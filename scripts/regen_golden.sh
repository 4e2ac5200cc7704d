#!/usr/bin/env sh
# Regenerate the frozen golden-output fixtures (tests/golden/*.csv)
# and verify they round-trip through the golden regression tests.
#
# Use ONLY after an intentional modeling change: the simulation is
# fully deterministic, so a fixture diff is always a behavior change.
# Commit the regenerated CSVs together with the change that moved
# them, and explain in the commit message why the numbers moved (see
# tests/golden/README.md).
#
# Usage:  scripts/regen_golden.sh [build-dir]     (default: build)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

if [ ! -d "$BUILD_DIR" ]; then
    echo "error: build directory '$BUILD_DIR' not found" >&2
    echo "configure first: cmake -B $BUILD_DIR -G Ninja" >&2
    exit 1
fi

cmake --build "$BUILD_DIR" -j
# Every harness with a golden_<harness> ctest (tests/CMakeLists.txt).
for harness in fig02_static fig05_one_level fig06_two_level \
        fig07_comparison fig08_reduction fig09_benchmarks \
        fig10_small_tables fig11_init table1_resetting \
        ablation_aliasing ablation_context_switch ablation_estimators \
        ablation_index ablation_predictors ablation_seed_sensitivity \
        ablation_widths native_confidence app_dual_path app_hybrid \
        app_pipeline_gating app_reverser app_smt_fetch; do
    "./$BUILD_DIR/bench/$harness" --fast --csv-dir tests/golden
done
ctest --test-dir "$BUILD_DIR" -L golden --output-on-failure

echo ""
echo "golden fixtures regenerated and verified:"
git -c core.quotePath=false status --short tests/golden/ || true
