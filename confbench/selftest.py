#!/usr/bin/env python3
"""Self-test of the benchmark at tiny trace sizes.

    python3 confbench/selftest.py

Run from the repository root. For every workload it checks that the
untraced and traced runs print exactly the metrics BENCHMARK.json names,
with their units, and pass their output checks; that a perturbed
expected digest makes the run fail a check; and that a non-default seed
passes its own check. It also checks that the benchmark refuses to run
under an environment variable that changes what is measured. Exits 0 iff
every check holds.
"""

import json
import os
import subprocess
import sys

import run

SCALE = 0.05
SECONDS = 1


def result_of(cmd, env=None):
    """Run @p cmd; return (exit code, parsed last stdout line or None)."""
    out = subprocess.run(cmd, capture_output=True, text=True, env=env)
    lines = out.stdout.strip().splitlines()
    try:
        return out.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return out.returncode, None


def bench_cmd(workload, seed, trace, expect=None):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace), "--scale", str(SCALE)]
    if expect:
        cmd += ["--expect", expect]
    return cmd


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    run.build()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            code, result = result_of(bench_cmd(workload, run.DEFAULT_SEED,
                                               trace))
            check(code == 0 and result is not None,
                  "%s trace=%d exits 0 with a result" % (workload, trace))
            if result is None:
                continue
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"],
                  "%s trace=%d result keys" % (workload, trace))
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == wanted[trace],
                  "%s trace=%d prints every metric with its unit"
                  % (workload, trace))
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  "%s trace=%d passes its checks" % (workload, trace))

        # A perturbed digest must be caught.
        good = run.expected_path(workload, run.DEFAULT_SEED, SCALE)
        bad = good + ".perturbed"
        with open(good) as f:
            lines = f.read().splitlines()
        index = next(i for i, l in enumerate(lines)
                     if l.startswith("digest "))
        kind, key, digest = lines[index].split()
        lines[index] = "%s %s %016x" % (kind, key, int(digest, 16) ^ 1)
        with open(bad, "w") as f:
            f.write("\n".join(lines) + "\n")
        code, result = result_of(bench_cmd(workload, run.DEFAULT_SEED, 0,
                                           expect=bad))
        check(result is not None and result["failed"] > 0 and
              not result["correct"],
              "%s detects a perturbed digest (%s)" % (workload, key))

        code, result = result_of(bench_cmd(workload, 7, 0))
        check(code == 0 and result is not None and result["failed"] == 0,
              "%s passes its own check at seed 7" % workload)

    env = dict(os.environ, CONFSIM_SEQUENTIAL="1")
    code, result = result_of(bench_cmd(run.WORKLOADS[0], run.DEFAULT_SEED,
                                       0), env=env)
    check(code != 0 and result is None,
          "refuses to run with CONFSIM_SEQUENTIAL set")

    print("%d failures" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
