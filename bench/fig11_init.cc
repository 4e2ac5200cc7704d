/**
 * @file
 * Reproduces paper Fig. 11: the effect of CIR-table initialization on
 * the best one-level method with ideal reduction (2^16-entry CT, 64K
 * gshare): all ones, all zeros, random, and "lastbit" (only the
 * oldest CIR bit set).
 *
 * Paper findings: all-ones and random perform similarly; all-zeros is
 * clearly worse (startup mispredictions land in the high-confidence
 * zero bucket); lastbit matches the non-zero initializations,
 * suggesting cheap context-switch handling.
 */

#include <cstdio>

#include "sim/experiment.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    std::printf("=== Fig. 11: effect of CT initial state ===\n\n");
    const std::vector<std::pair<const char *, CtInit>> inits = {
        {"one", CtInit::Ones},
        {"zero", CtInit::Zeros},
        {"lastbit", CtInit::LastBit},
        {"random", CtInit::Random},
    };
    std::vector<EstimatorConfig> configs;
    for (const auto &[name, init] : inits) {
        auto config = oneLevelIdealConfig(IndexScheme::PcXorBhr,
                                          paper::kLargeCtEntries,
                                          paper::kCirBits, init);
        config.label = name;
        configs.push_back(std::move(config));
    }
    const auto swept =
        runSuiteExperiment(env, {{"run", largeGshareFactory(), configs}});
    const SuiteRunResult &result = swept.perConfig.front();
    printMispredictionRates(result);

    std::vector<NamedCurve> curves;
    for (std::size_t i = 0; i < configs.size(); ++i)
        curves.push_back(compositeCurve(result, i, configs[i].label));
    printCoverageSummary(curves);

    std::puts(plotCurves("Fig. 11 — CT initialization", curves)
                  .c_str());
    writeCurvesCsv(env.csvDir + "/fig11_init.csv", curves);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, "Fig. 11: CT initialization effects", run);
}
