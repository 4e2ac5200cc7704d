/**
 * @file
 * The paper-extending headline table: where do the 1996 CIR estimators
 * beat — and lose to — the confidence signals modern predictors give
 * away for free?
 *
 * Three configurations ride one decode pass per benchmark: the paper's
 * 64K gshare with the best one-level CIR estimator (PC xor BHR, ideal
 * reduction), TAGE with its provider-strength confidence, and a
 * perceptron with its |margin|-vs-theta confidence. For each benchmark
 * and each signal the table reports the predictor's misprediction
 * rate, the misprediction coverage of a ~20%-of-branches low set
 * (paper Figs. 5-9 operating point), and the PVN of that set (the
 * Grunwald-style P(mispredict | low) from
 * metrics/classification_metrics.h) — then names the winner per row.
 */

#include <cstdio>
#include <vector>

#include "metrics/operating_point.h"
#include "sim/experiment.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    std::printf("=== CIR estimators vs. native predictor confidence "
                "===\n\n");
    const std::vector<SweepExperimentConfig> sweep_configs = {
        {"gshare+CIR",
         largeGshareFactory(),
         {oneLevelIdealConfig(IndexScheme::PcXorBhr)}},
        {"tage", tageFactory(), {tageProviderConfig()}},
        {"perceptron", perceptronFactory(), {perceptronMarginConfig()}},
    };
    const SweepSuiteResult sweep = runSuiteExperiment(env, sweep_configs);

    std::printf("per-benchmark, at a ~20%%-of-branches low-confidence "
                "set:\n");
    std::printf("  cov  = %% of mispredictions captured by the set\n");
    std::printf("  pvn  = %% of the set that actually mispredicts\n\n");
    std::printf("%-12s", "benchmark");
    for (const auto &config : sweep_configs)
        std::printf(" | %-21.21s", config.label.c_str());
    std::printf(" | best cov\n");
    std::printf("%-12s", "");
    for (std::size_t c = 0; c < sweep_configs.size(); ++c)
        std::printf(" |  rate     cov    pvn");
    std::printf(" |\n");

    const std::size_t benchmarks =
        sweep.perConfig[0].perBenchmark.size();
    std::vector<int> wins(sweep_configs.size(), 0);
    for (std::size_t b = 0; b < benchmarks; ++b) {
        std::printf("%-12s",
                    sweep.perConfig[0].perBenchmark[b].name.c_str());
        std::size_t best = 0;
        double best_cov = -1.0;
        std::vector<OperatingPoint> points;
        for (std::size_t c = 0; c < sweep.perConfig.size(); ++c) {
            const auto &bench = sweep.perConfig[c].perBenchmark[b];
            const OperatingPoint point =
                operatingPointAt20(bench.estimatorStats[0]);
            points.push_back(point);
            if (point.coverage > best_cov) {
                best_cov = point.coverage;
                best = c;
            }
            std::printf(" | %5.2f%% %6.1f%% %5.1f%%",
                        100.0 * bench.mispredictRate,
                        100.0 * point.coverage, 100.0 * point.pvn);
        }
        ++wins[best];
        std::printf(" | %s\n", sweep_configs[best].label.c_str());
    }

    std::printf("\ncomposite (suite-wide, equal weight):\n");
    std::vector<NamedCurve> curves;
    for (std::size_t c = 0; c < sweep.perConfig.size(); ++c) {
        const OperatingPoint point = operatingPointAt20(
            sweep.perConfig[c].compositeEstimatorStats[0]);
        std::printf("  %-11s cov %.1f%%  pvn %.1f%% (low set %.1f%% of "
                    "branches)\n",
                    sweep_configs[c].label.c_str(),
                    100.0 * point.coverage, 100.0 * point.pvn,
                    100.0 * point.lowFraction);
        curves.push_back(
            compositeCurve(sweep.perConfig[c], 0,
                           c == 0 ? "PCxorBHR"
                                  : sweep_configs[c]
                                        .estimators[0]
                                        .label));
    }
    for (std::size_t c = 0; c < wins.size(); ++c) {
        std::printf("  %-11s best coverage on %d/%zu benchmarks\n",
                    sweep_configs[c].label.c_str(), wins[c],
                    benchmarks);
    }

    std::printf("\n");
    printCoverageSummary(curves);
    writeCurvesCsv(env.csvDir + "/native_confidence.csv", curves);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv,
                      "CIR vs. native confidence headline table", run);
}
