#!/usr/bin/env python3
"""Build and run the confsim benchmark.

    python3 confbench/run.py --workload figure-suite --seed 1 \
        --seconds 10 --trace 0
    python3 confbench/run.py --regen      # rewrite confbench/expected/

Run from the repository root. The first call configures and builds
confbench (Release) under .bench_build/. Expected outputs for the
default seed ship in confbench/expected/; for any other seed they are
computed first, by a sequential single-thread run in its own process,
so neither set-up time nor peak memory includes them. The last line of
standard output is the result JSON; build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "confbench")
BINARY = os.path.join(BUILD_DIR, "confbench")
WORKLOADS = ["figure-suite", "sampled-suite"]
DEFAULT_SEED = 1


def build():
    """Configure (once) and build confbench; exit 1 on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "confbench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit(1)


def work_dir(workload):
    return os.path.join(BUILD_ROOT, "work", workload)


def expected_path(workload, seed, scale):
    """The expected-values file for this input, computing it if needed."""
    if seed == DEFAULT_SEED and scale == 1.0:
        return os.path.join(HERE, "expected", workload + ".txt")
    # Keyed by the binary's build time too, so a rebuilt program never
    # reads values an older one computed.
    path = os.path.join(BUILD_ROOT, "expect", "%s-%d-%g-%d.txt" % (
        workload, seed, scale, os.stat(BINARY).st_mtime_ns))
    if not os.path.exists(path):
        compute_expected(workload, seed, scale, path)
    return path


def compute_expected(workload, seed, scale, out):
    os.makedirs(os.path.dirname(out), exist_ok=True)
    tmp = out + ".tmp"
    cmd = [BINARY, "expect", "--workload", workload, "--seed", str(seed),
           "--scale", str(scale), "--work-dir", work_dir(workload),
           "--out", tmp]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit(1)
    os.replace(tmp, out)


def run(workload, seed, seconds, trace, scale, expect=None):
    """Run one measurement; returns the process's exit code."""
    expect = expect or expected_path(workload, seed, scale)
    shutil.rmtree(work_dir(workload), ignore_errors=True)
    cmd = [BINARY, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", str(scale), "--expect", expect,
           "--work-dir", work_dir(workload)]
    sys.stdout.flush()
    code = subprocess.run(cmd).returncode
    shutil.rmtree(work_dir(workload), ignore_errors=True)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="trace-length multiplier (self-test)")
    parser.add_argument("--expect",
                        help="expected-values file to check against")
    parser.add_argument("--regen", action="store_true",
                        help="rewrite confbench/expected/ for the "
                             "default seed and exit")
    args = parser.parse_args()

    build()
    if args.regen:
        for workload in WORKLOADS:
            compute_expected(workload, DEFAULT_SEED, 1.0,
                             os.path.join(HERE, "expected",
                                          workload + ".txt"))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, args.trace,
               args.scale, args.expect)


if __name__ == "__main__":
    sys.exit(main())
