/**
 * @file
 * Reproduces paper Fig. 10: small CIR tables holding resetting
 * counters, accessed with PC xor BHR, over the SMALL (4K-entry,
 * 12-bit-history) gshare predictor. Table sizes sweep 4096 down to
 * 128 entries.
 *
 * Paper reference points: the small predictor mispredicts 8.6% on IBS;
 * with an equal-size (4096-entry) confidence table, 75% of the
 * mispredictions are identified within 20% of the branches; aliasing
 * degrades performance gracefully as the table shrinks, because a
 * resetting counter amplifies interference (any aliased miss resets
 * the streak).
 */

#include <cstdio>

#include "sim/experiment.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    std::printf("=== Fig. 10: small CIR tables (resetting counters, "
                "4K gshare) ===\n\n");
    std::vector<EstimatorConfig> configs;
    for (std::size_t entries : {4096, 2048, 1024, 512, 256, 128}) {
        auto config = oneLevelCounterConfig(
            IndexScheme::PcXorBhr, CounterKind::Resetting, entries);
        config.label = std::to_string(entries);
        configs.push_back(std::move(config));
    }
    const auto swept =
        runSuiteExperiment(env, {{"run", smallGshareFactory(), configs}});
    const SuiteRunResult &result = swept.perConfig.front();
    printMispredictionRates(result);
    std::printf("(paper: 8.6%% composite misprediction rate for the 4K "
                "gshare)\n\n");

    std::vector<NamedCurve> curves;
    for (std::size_t i = 0; i < configs.size(); ++i)
        curves.push_back(compositeCurve(result, i, configs[i].label));
    printCoverageSummary(curves);

    std::printf("\npaper: equal-size table (4096) identifies ~75%% of "
                "misses at 20%% of branches; measured %.0f%%\n\n",
                100.0 * curves[0].curve.mispredCoverageAt(0.2));

    std::puts(plotCurves("Fig. 10 — small CIR tables", curves).c_str());
    writeCurvesCsv(env.csvDir + "/fig10_small_tables.csv", curves);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, "Fig. 10: small confidence tables", run);
}
