#!/usr/bin/env bash
# Build and run tests under a sanitizer.
#
# Usage: scripts/check_sanitize.sh [address|thread] [ctest args]
#
#   address (default)  ASan + UBSan over the full tier-1 suite — the
#                      trace I/O error paths and suite-runner fault
#                      handling with memory checking.
#   thread             TSan over the concurrency-heavy suites: the
#                      sweep and sampling differential harnesses, the
#                      suite runner's pass threads, and the chaos
#                      tests, so fault injection, cancellation, and
#                      fail-fast teardown are checked for data races —
#                      plus the TAGE/perceptron predictor shard. TAGE
#                      and the perceptron memoize their last lookup, so
#                      predict() writes: each pass must own its
#                      configurations' predictors and their memos,
#                      which the sampling differential's TAGE config
#                      checks across worker budgets.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=address
if [[ $# -gt 0 && ( "$1" == "address" || "$1" == "thread" ) ]]; then
    MODE="$1"
    shift
fi

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [[ "$MODE" == "thread" ]]; then
    BUILD_DIR=build-tsan
else
    BUILD_DIR=build-sanitize
fi

cmake -B "$BUILD_DIR" -S . \
    -DCONFSIM_SANITIZE="$MODE" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$JOBS"

# halt_on_error so a sanitizer report fails the ctest run loudly.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

if [[ "$MODE" == "thread" && $# -eq 0 ]]; then
    # Default TSan scope: the tests that actually exercise threads,
    # plus the predictor property wall (no predictor state is shared
    # between shards; each shard owns its predictors and their memos).
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
        -R 'SweepDifferential|SamplingDifferential|Chaos|Tage|Perceptron|SuiteRunner'
else
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" "$@"
fi
