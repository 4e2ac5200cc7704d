/**
 * @file
 * Reproduces paper Fig. 6: two-level dynamic confidence methods (ideal
 * reduction on the level-2 CIR), with the paper's three variants:
 *   PC -> CIR, PCxorBHR -> CIR, PCxorBHR -> CIRxorPCxorBHR,
 * plus the static curve. 64K gshare, IBS composite.
 *
 * Paper finding: the best two-level method indexes level 1 with
 * PC xor BHR and level 2 with the CIR alone.
 */

#include <cstdio>

#include "sim/experiment.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    std::printf("=== Fig. 6: two-level dynamic confidence (ideal "
                "reduction) ===\n\n");
    const std::vector<EstimatorConfig> configs = {
        twoLevelConfig(IndexScheme::Pc, SecondLevelIndex::Cir),
        twoLevelConfig(IndexScheme::PcXorBhr, SecondLevelIndex::Cir),
        twoLevelConfig(IndexScheme::PcXorBhr,
                       SecondLevelIndex::CirXorPcXorBhr),
    };
    const auto swept =
        runSuiteExperiment(env, {{"run", largeGshareFactory(), configs}});
    const SuiteRunResult &result = swept.perConfig.front();
    printMispredictionRates(result);

    std::vector<NamedCurve> curves;
    curves.push_back(staticCompositeCurve(result));
    for (std::size_t i = 0; i < configs.size(); ++i)
        curves.push_back(compositeCurve(result, i, configs[i].label));
    printCoverageSummary(curves);

    std::puts(plotCurves("Fig. 6 — two-level methods (ideal reduction)",
                         curves)
                  .c_str());
    writeCurvesCsv(env.csvDir + "/fig06_two_level.csv", curves);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, "Fig. 6: two-level dynamic methods", run);
}
