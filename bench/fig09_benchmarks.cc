/**
 * @file
 * Reproduces paper Fig. 9: per-benchmark confidence curves for the
 * best (jpeg) and worst (gcc) IBS benchmarks under the best one-level
 * method with ideal reduction — plus the per-benchmark table for the
 * whole suite so the best/worst claim is auditable.
 *
 * Extended past the paper: the figure also carries the same two
 * benchmarks under TAGE provider confidence and perceptron margin
 * confidence, so the per-benchmark spread of the modern built-in
 * signals is visible next to the 1996 CIR estimator's.
 *
 * Paper observations: considerable variation between benchmarks; the
 * zero buckets hold similar *fractions of mispredictions* but very
 * different *numbers of branches*.
 */

#include <cstdio>

#include "sim/experiment.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    std::printf("=== Fig. 9: per-benchmark variation (jpeg vs gcc) "
                "===\n\n");
    const std::vector<EstimatorConfig> configs = {
        oneLevelIdealConfig(IndexScheme::PcXorBhr),
    };
    const std::vector<SweepExperimentConfig> sweep_configs = {
        {"gshare+CIR", largeGshareFactory(), configs},
        {"tage", tageFactory(), {tageProviderConfig()}},
        {"perceptron", perceptronFactory(), {perceptronMarginConfig()}},
    };
    const SweepSuiteResult sweep = runSuiteExperiment(env, sweep_configs);
    const SuiteRunResult &result = sweep.perConfig[0];
    printMispredictionRates(result);

    // Per-benchmark curve summary.
    std::printf("%-12s %8s %10s %14s %14s\n", "benchmark", "rate",
                "@20%", "zero-bkt refs", "zero-bkt miss");
    std::vector<NamedCurve> figure_curves;
    for (const auto &bench : result.perBenchmark) {
        const auto curve =
            ConfidenceCurve::fromBucketStats(bench.estimatorStats[0]);
        const auto &stats = bench.estimatorStats[0];
        std::printf("%-12s %7.2f%% %9.1f%% %13.1f%% %13.1f%%\n",
                    bench.name.c_str(), 100.0 * bench.mispredictRate,
                    100.0 * curve.mispredCoverageAt(0.2),
                    100.0 * stats[0].refs / stats.totalRefs(),
                    100.0 * stats[0].mispredicts /
                        stats.totalMispredicts());
        if (bench.name == "jpeg" || bench.name == "real_gcc")
            figure_curves.push_back({bench.name, curve});
    }

    // The same two benchmarks under the native confidence signals.
    const char *const kNativeTags[] = {"tage", "perc"};
    for (std::size_t c = 1; c < sweep.perConfig.size(); ++c) {
        for (const auto &bench : sweep.perConfig[c].perBenchmark) {
            if (bench.name != "jpeg" && bench.name != "real_gcc")
                continue;
            figure_curves.push_back(
                {bench.name + "-" + kNativeTags[c - 1],
                 ConfidenceCurve::fromBucketStats(
                     bench.estimatorStats[0])});
        }
    }

    std::printf("\n");
    printCoverageSummary(figure_curves);
    std::puts(plotCurves("Fig. 9 — best (jpeg) vs worst (gcc)",
                         figure_curves)
                  .c_str());
    writeCurvesCsv(env.csvDir + "/fig09_benchmarks.csv",
                   figure_curves);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, "Fig. 9: best/worst benchmarks", run);
}
