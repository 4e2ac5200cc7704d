/**
 * @file
 * Reproduces paper Fig. 5: one-level dynamic confidence methods with
 * the ideal (profile-sorted) reduction, indexing the 2^16-entry CIR
 * table with PC, global BHR, and PC xor BHR, plus the static method
 * for comparison. 64K gshare, IBS composite.
 *
 * Extended past the paper: the same figure now carries the two native
 * confidence signals the field moved to after 1996 — TAGE provider
 * confidence and perceptron margin confidence — each riding its own
 * predictor through the same one-decode-pass sweep, so the 1996 CIR
 * estimators and the modern built-ins share one set of axes.
 *
 * Paper reference points at 20% of dynamic branches: PC xor BHR -> 89%
 * of mispredictions, BHR -> 85%, PC -> 72%, static -> ~63%.
 */

#include <cstdio>

#include "sim/experiment.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    std::printf("=== Fig. 5: one-level dynamic confidence (ideal "
                "reduction) ===\n\n");
    const std::vector<EstimatorConfig> configs = {
        oneLevelIdealConfig(IndexScheme::Pc),
        oneLevelIdealConfig(IndexScheme::Bhr),
        oneLevelIdealConfig(IndexScheme::PcXorBhr),
    };
    // One decode pass feeds the paper configuration and both native
    // families; per-config results are bit-exact with sequential runs.
    const std::vector<SweepExperimentConfig> sweep_configs = {
        {"gshare+CIR", largeGshareFactory(), configs},
        {"tage", tageFactory(), {tageProviderConfig()}},
        {"perceptron", perceptronFactory(), {perceptronMarginConfig()}},
    };
    const SweepSuiteResult sweep = runSuiteExperiment(env, sweep_configs);
    const SuiteRunResult &result = sweep.perConfig[0];
    printMispredictionRates(result);

    std::vector<NamedCurve> curves;
    curves.push_back(staticCompositeCurve(result));
    for (std::size_t i = 0; i < configs.size(); ++i)
        curves.push_back(compositeCurve(result, i, configs[i].label));
    curves.push_back(compositeCurve(sweep.perConfig[1], 0,
                                    sweep_configs[1].estimators[0].label));
    curves.push_back(compositeCurve(sweep.perConfig[2], 0,
                                    sweep_configs[2].estimators[0].label));
    printCoverageSummary(curves);

    std::printf("\npaper @20%%: static 63, PC 72, BHR 85, PCxorBHR "
                "89\n");
    std::printf("ours  @20%%: static %.0f, PC %.0f, BHR %.0f, PCxorBHR "
                "%.0f, TAGE %.0f, perceptron %.0f\n\n",
                100.0 * curves[0].curve.mispredCoverageAt(0.2),
                100.0 * curves[1].curve.mispredCoverageAt(0.2),
                100.0 * curves[2].curve.mispredCoverageAt(0.2),
                100.0 * curves[3].curve.mispredCoverageAt(0.2),
                100.0 * curves[4].curve.mispredCoverageAt(0.2),
                100.0 * curves[5].curve.mispredCoverageAt(0.2));

    // Zero-bucket characteristics (paper: ~80% of predictions read the
    // all-zeros CIR, carrying 12-15% of the mispredictions).
    const auto &stats = result.compositeEstimatorStats[2];
    std::printf("PCxorBHR zero bucket: %.1f%% of refs, %.1f%% of "
                "mispredicts (paper ~80%% / 12-15%%)\n\n",
                100.0 * stats[0].refs / stats.totalRefs(),
                100.0 * stats[0].mispredicts /
                    stats.totalMispredicts());

    std::puts(plotCurves("Fig. 5 — one-level methods (ideal reduction)",
                         curves)
                  .c_str());
    writeCurvesCsv(env.csvDir + "/fig05_one_level.csv", curves);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, "Fig. 5: one-level dynamic methods", run);
}
