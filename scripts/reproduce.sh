#!/usr/bin/env bash
# One-command reproduction of every artifact in EXPERIMENTS.md.
#
# Usage:
#   scripts/reproduce.sh [results_dir]
#
# Builds the project, runs the full test suite, regenerates every
# paper figure/table plus all ablations and application studies at the
# default scale (2M branches per benchmark), and leaves:
#   <results_dir>/*.csv        every data series
#   <results_dir>/*.txt        full terminal output per harness
#   test_output.txt            ctest log
#   bench_output.txt           concatenated harness output
#
# Timings are not part of the reproduction: confbench measures them
# (python3 confbench/run.py --workload figure-suite --trace 1).
set -euo pipefail

cd "$(dirname "$0")/.."
RESULTS="${1:-results}"
mkdir -p "$RESULTS"

echo "== configure & build =="
cmake -B build -G Ninja
cmake --build build

echo "== tests =="
ctest --test-dir build 2>&1 | tee test_output.txt

echo "== figure/table harnesses =="
: > bench_output.txt
for b in build/bench/*; do
    name="$(basename "$b")"
    case "$name" in
        CMakeFiles|CTestTestfile.cmake|cmake_install.cmake) continue ;;
        *)
            echo "== $name =="
            "$b" --csv-dir "$RESULTS" 2>&1 \
                | tee "$RESULTS/$name.txt" | tee -a bench_output.txt
            ;;
    esac
done

echo "== done: CSVs and logs in $RESULTS/ =="
