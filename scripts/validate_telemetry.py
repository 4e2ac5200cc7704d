#!/usr/bin/env python3
"""Schema validation for confsim telemetry JSONL streams.

The format is documented in docs/observability.md. One JSON object per
line: line 1 must be the run manifest (type "manifest", schema
"confsim-telemetry-v1"); every later line is an event with a string
"type" and a numeric, monotonic non-negative "t_ms". Known event types
are checked for their required fields.

A resumed run can additionally be checked against the run it resumed
(--resume-of): both manifests must describe the same simulation input
— identical benchmark (name, seed, trace_checksum) lists — otherwise
the "resume" silently simulated a different trace and its bit-exactness
guarantee is meaningless.

Usage:
    validate_telemetry.py run.jsonl [more.jsonl ...]
    validate_telemetry.py --resume-of original.jsonl resumed.jsonl

Exits 0 when every file validates, 1 on the first violation. Stdlib
only — safe to run anywhere CI has a python3.
"""

import argparse
import json
import sys

MANIFEST_SCHEMA = "confsim-telemetry-v1"

# Required fields per event type; unknown event types are allowed
# (the stream is extensible) but known ones must be complete.
EVENT_REQUIRED_FIELDS = {
    "suite_run_started": ["benchmarks", "configs", "watchdog_ms"],
    "suite_run_finished": ["wall_ms", "failed_benchmarks"],
    "benchmark_started": ["benchmark"],
    "benchmark_finished": [
        "benchmark", "wall_ms", "branches", "mispredicts",
        "mispredict_rate",
    ],
    "watchdog_timeout": ["benchmark", "error"],
    # fault_injected comes in two shapes, dispatched on "kind" in
    # validate_event: trace-source injection carries the record index,
    # plan-based injection (kind "plan.<site>", fault/fault_plan.h)
    # carries the action/config/occurrence that fired.
    "fault_injected": ["benchmark", "kind"],
    "checkpoint_write_failed": ["benchmark", "at_branch", "error"],
    "corrupt_chunk_skipped": [
        "benchmark", "what", "chunk", "dropped_records",
    ],
    "checkpoint_written": [
        "benchmark", "generation", "at_branch", "bytes",
    ],
    "checkpoint_restored": ["benchmark", "generation", "at_branch"],
    "checkpoint_corrupt": ["benchmark", "generation", "error"],
    "sweep_run_started": [
        "benchmark", "configs", "batch_size", "resumed",
    ],
    "sweep_run_finished": [
        "benchmark", "configs", "records", "branches", "batches",
        "wall_ms", "decode_stall_ms", "ns_per_branch_update",
        "checkpoints_written",
    ],
    "sweep_config_finished": [
        "benchmark", "config", "branches", "mispredicts",
        "mispredict_rate", "context_switches",
    ],
    "metrics_snapshot": [],
    # Statistical sampling (sim/sampling_engine.h): one summary per
    # sampled suite run with the estimate provenance (rate/subsample
    # count) and the replayed-records reduction the estimates cost.
    "sampling_run_finished": [
        "benchmarks", "configs", "sample_rate", "subsamples",
        "total_branches", "recorded_branches", "reduction",
        "composite_mispredict_rate", "wall_ms",
    ],
    "branch_profile_written": [
        "path", "format", "branches", "executions", "mispredictions",
    ],
}

MANIFEST_REQUIRED = [
    "schema", "tool", "suite", "benchmarks", "predictor",
    "estimators", "build_type", "compiler", "cxx_standard",
]


class ValidationError(Exception):
    pass


def fail(path, where, message):
    raise ValidationError(f"{path}:{where}: {message}")


def validate_manifest(path, obj):
    for key in MANIFEST_REQUIRED:
        if key not in obj:
            fail(path, 1, f"manifest is missing required key '{key}'")
    if obj["schema"] != MANIFEST_SCHEMA:
        fail(path, 1,
             f"manifest schema is '{obj['schema']}', "
             f"expected '{MANIFEST_SCHEMA}'")
    if not isinstance(obj["benchmarks"], list):
        fail(path, 1, "manifest 'benchmarks' must be a list")
    for i, bench in enumerate(obj["benchmarks"]):
        for key in ("name", "seed", "branches", "trace_checksum"):
            if key not in bench:
                fail(path, 1,
                     f"manifest benchmark #{i} is missing '{key}'")


def validate_event(path, lineno, obj):
    if not isinstance(obj.get("type"), str):
        fail(path, lineno, "event has no string 'type'")
    t_ms = obj.get("t_ms")
    if not isinstance(t_ms, (int, float)) or t_ms < 0:
        fail(path, lineno, "event 't_ms' must be a non-negative number")
    required = EVENT_REQUIRED_FIELDS.get(obj["type"])
    if required is None:
        return  # unknown event types are allowed
    for key in required:
        if key not in obj:
            fail(path, lineno,
                 f"event '{obj['type']}' is missing field '{key}'")
    if obj["type"] == "fault_injected":
        kind = obj.get("kind")
        if isinstance(kind, str) and kind.startswith("plan."):
            extra = ("action", "config", "occurrence")
        else:
            extra = ("record",)
        for key in extra:
            if key not in obj:
                fail(path, lineno,
                     f"fault_injected (kind {kind!r}) is missing "
                     f"field '{key}'")
    if obj["type"] == "sweep_run_finished":
        busy = obj.get("shard_busy_frac")
        if busy is not None and (
                not isinstance(busy, (int, float)) or
                not 0.0 <= busy <= 1.0):
            fail(path, lineno,
                 f"sweep_run_finished 'shard_busy_frac' must be a "
                 f"number in [0, 1], got {busy!r}")
    if obj["type"] == "sampling_run_finished":
        rate = obj.get("sample_rate")
        if not isinstance(rate, (int, float)) or not 0.0 < rate <= 1.0:
            fail(path, lineno,
                 f"sampling_run_finished 'sample_rate' must be a "
                 f"number in (0, 1], got {rate!r}")
        recorded = obj.get("recorded_branches")
        total = obj.get("total_branches")
        if (isinstance(recorded, int) and isinstance(total, int) and
                recorded > total):
            fail(path, lineno,
                 f"sampling_run_finished recorded_branches "
                 f"{recorded} exceeds total_branches {total}")
    if obj["type"] == "metrics_snapshot":
        # The snapshot is flat: metric names are field keys. The
        # replay share, when present, has a hard range.
        busy = obj.get("sweep.shard_busy_frac")
        if busy is not None and (
                not isinstance(busy, (int, float)) or
                not 0.0 <= busy <= 1.0):
            fail(path, lineno,
                 f"metric 'sweep.shard_busy_frac' must be in [0, 1], "
                 f"got {busy!r}")


def validate_jsonl(path):
    with open(path, encoding="utf-8") as stream:
        lines = stream.read().splitlines()
    if not lines:
        fail(path, 1, "file is empty (expected a manifest line)")
    objs = []
    for lineno, line in enumerate(lines, start=1):
        try:
            objs.append(json.loads(line))
        except json.JSONDecodeError as err:
            fail(path, lineno, f"invalid JSON: {err}")
    if objs[0].get("type") != "manifest":
        fail(path, 1,
             f"first record must be the manifest, got "
             f"'{objs[0].get('type')}'")
    validate_manifest(path, objs[0])
    last_t = 0.0
    for lineno, obj in enumerate(objs[1:], start=2):
        if obj.get("type") == "manifest":
            fail(path, lineno, "duplicate manifest record")
        validate_event(path, lineno, obj)
        if obj["t_ms"] < last_t:
            fail(path, lineno,
                 f"t_ms went backwards ({obj['t_ms']} < {last_t})")
        last_t = obj["t_ms"]
    return len(objs) - 1


def read_manifest(path):
    """Parse and schema-validate a JSONL file's manifest line."""
    with open(path, encoding="utf-8") as stream:
        first = stream.readline()
    if not first.strip():
        fail(path, 1, "file is empty (expected a manifest line)")
    try:
        obj = json.loads(first)
    except json.JSONDecodeError as err:
        fail(path, 1, f"invalid JSON: {err}")
    if obj.get("type") != "manifest":
        fail(path, 1,
             f"first record must be the manifest, got "
             f"'{obj.get('type')}'")
    validate_manifest(path, obj)
    return obj


def validate_resume_pair(original_path, resumed_path):
    """Check that a resumed run simulated the same input as the
    original: identical (name, seed, trace_checksum) benchmark lists.
    """
    def trace_identity(manifest):
        return [(b["name"], b["seed"], b["trace_checksum"])
                for b in manifest["benchmarks"]]

    original = trace_identity(read_manifest(original_path))
    resumed = trace_identity(read_manifest(resumed_path))
    if len(original) != len(resumed):
        fail(resumed_path, 1,
             f"resumed run has {len(resumed)} benchmark(s), the "
             f"original had {len(original)}")
    for i, (orig, res) in enumerate(zip(original, resumed)):
        if orig != res:
            fail(resumed_path, 1,
                 f"benchmark #{i} diverged from the original run: "
                 f"original (name, seed, trace_checksum) = {orig}, "
                 f"resumed = {res}")
    return len(resumed)


def main():
    parser = argparse.ArgumentParser(
        description="Validate confsim telemetry artifacts.")
    parser.add_argument("files", nargs="+",
                        help="telemetry JSONL files to validate")
    parser.add_argument("--resume-of", metavar="ORIGINAL",
                        help="each file is the JSONL of a resumed run; "
                             "assert its manifest simulates the same "
                             "traces as ORIGINAL's manifest")
    args = parser.parse_args()

    try:
        for path in args.files:
            if args.resume_of:
                n = validate_jsonl(path)
                benches = validate_resume_pair(args.resume_of, path)
                print(f"{path}: OK ({n} event(s); trace identity "
                      f"matches {args.resume_of} across {benches} "
                      f"benchmark(s))")
                continue
            n = validate_jsonl(path)
            print(f"{path}: OK (manifest + {n} event(s))")
    except ValidationError as err:
        print(f"FAIL {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"FAIL {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
