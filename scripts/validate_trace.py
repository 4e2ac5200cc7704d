#!/usr/bin/env python3
"""Schema validation for confsim's Chrome trace files.

A trace file (written by SpanTracer::finish, src/obs/span.cc; the
traced confbench probe writes `<work-dir>/ckpt/sweep_trace.json`) is a
single JSON object in the Chrome trace-event format that Perfetto and
chrome://tracing load directly:

  {"displayTimeUnit": "ms", "traceEvents": [ ... ]}

This validator enforces the invariants the exporter guarantees and CI
relies on (docs/observability.md, "Execution spans"):

  * "traceEvents" is a non-empty list of objects; every event has a
    string "ph" in {B, E, C, M} plus integer "pid"/"tid" and a
    numeric, non-negative "ts" (metadata aside).
  * Per (pid, tid): timestamps are monotonic non-decreasing, and the
    B/E duration events nest like matched parentheses — every "E"
    closes the innermost open "B" and nothing is left open at the end
    (the exporter repairs ring-wraparound imbalance before writing).
  * "B" events carry a non-empty string "name".
  * "C" (counter) events carry numeric args.value.
  * "M" metadata includes a process_name record and a thread_name
    record for every tid that emits duration or counter events.

Usage:
    validate_trace.py trace.json [more.json ...]

Exits 0 when every file validates, 1 on the first violation. Stdlib
only — safe to run anywhere CI has a python3.
"""

import argparse
import json
import sys

KNOWN_PHASES = {"B", "E", "C", "M"}


class ValidationError(Exception):
    pass


def fail(path, message):
    raise ValidationError(f"{path}: {message}")


def validate_trace(path):
    with open(path, encoding="utf-8") as stream:
        try:
            obj = json.load(stream)
        except json.JSONDecodeError as err:
            fail(path, f"invalid JSON: {err}")
    if not isinstance(obj, dict):
        fail(path, "top level must be a JSON object")
    events = obj.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(path, "'traceEvents' must be a non-empty list")

    named_threads = set()
    saw_process_name = False
    # Per-(pid, tid) open-span stack and last timestamp.
    stacks = {}
    last_ts = {}
    emitting_tids = set()
    counters = 0
    durations = 0

    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            fail(path, f"{where}: event must be an object")
        phase = event.get("ph")
        if phase not in KNOWN_PHASES:
            fail(path, f"{where}: 'ph' must be one of "
                       f"{sorted(KNOWN_PHASES)}, got {phase!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                fail(path, f"{where}: '{key}' must be an integer")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(path, f"{where}: 'ts' must be a non-negative number")

        if phase == "M":
            name = event.get("name")
            args = event.get("args", {})
            if name == "process_name":
                saw_process_name = True
            elif name == "thread_name":
                if not isinstance(args.get("name"), str):
                    fail(path, f"{where}: thread_name metadata must "
                               f"carry a string args.name")
                named_threads.add((event["pid"], event["tid"]))
            continue

        key = (event["pid"], event["tid"])
        emitting_tids.add(key)
        if key in last_ts and ts < last_ts[key]:
            fail(path, f"{where}: timestamps regress on pid/tid "
                       f"{key}: {ts} < {last_ts[key]}")
        last_ts[key] = ts

        if phase == "C":
            counters += 1
            value = event.get("args", {}).get("value")
            if not isinstance(value, (int, float)):
                fail(path, f"{where}: counter event must carry "
                           f"numeric args.value")
            continue

        durations += 1
        if phase == "B":
            name = event.get("name")
            if not isinstance(name, str) or not name:
                fail(path, f"{where}: 'B' event must carry a "
                           f"non-empty string name")
            stacks.setdefault(key, []).append(name)
        else:  # "E"
            stack = stacks.get(key)
            if not stack:
                fail(path, f"{where}: 'E' event with no open span on "
                           f"pid/tid {key}")
            stack.pop()

    for key, stack in stacks.items():
        if stack:
            fail(path, f"{len(stack)} span(s) left open on pid/tid "
                       f"{key}: {stack}")
    if durations == 0:
        fail(path, "trace contains no duration (B/E) events")
    if not saw_process_name:
        fail(path, "missing process_name metadata")
    missing = emitting_tids - named_threads
    if missing:
        fail(path, f"tids emitted events but have no thread_name "
                   f"metadata: {sorted(missing)}")
    return durations, counters


def main():
    parser = argparse.ArgumentParser(
        description="Validate confsim span trace files.")
    parser.add_argument("files", nargs="+",
                        help="trace.json files to validate")
    args = parser.parse_args()
    try:
        for path in args.files:
            durations, counters = validate_trace(path)
            print(f"{path}: OK ({durations} duration event(s), "
                  f"{counters} counter sample(s))")
    except ValidationError as err:
        print(f"FAIL {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"FAIL {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
