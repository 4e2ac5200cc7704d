/**
 * @file
 * Reproduces paper Fig. 7: the best one-level method (PC xor BHR), the
 * best two-level method (PCxorBHR -> CIR), and the static method on
 * one graph. 64K gshare, IBS composite.
 *
 * Paper conclusion: "the one and two level methods give very similar
 * performance. If anything, the two level method performs very
 * slightly worse... the extra hardware in the second level table is
 * not worth the cost." The harness also prints the storage cost of
 * each mechanism to make that trade-off concrete.
 */

#include <cstdio>

#include "sim/experiment.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    std::printf("=== Fig. 7: best one-level vs best two-level vs "
                "static ===\n\n");
    const std::vector<EstimatorConfig> configs = {
        oneLevelIdealConfig(IndexScheme::PcXorBhr),
        twoLevelConfig(IndexScheme::PcXorBhr, SecondLevelIndex::Cir),
    };
    const auto swept =
        runSuiteExperiment(env, {{"run", largeGshareFactory(), configs}});
    const SuiteRunResult &result = swept.perConfig.front();
    printMispredictionRates(result);

    std::vector<NamedCurve> curves;
    curves.push_back(staticCompositeCurve(result));
    curves.push_back(compositeCurve(result, 0, "BHRxorPC (1-level)"));
    curves.push_back(compositeCurve(result, 1, "BHRxorPC-CIR (2-level)"));
    printCoverageSummary(curves);

    // Storage comparison (the paper's cost argument).
    auto one = configs[0].make();
    auto two = configs[1].make();
    std::printf("\nstorage: one-level %llu Kbit, two-level %llu Kbit "
                "(+%.0f%%)\n\n",
                static_cast<unsigned long long>(one->storageBits() /
                                                1024),
                static_cast<unsigned long long>(two->storageBits() /
                                                1024),
                100.0 * (static_cast<double>(two->storageBits()) /
                             one->storageBits() -
                         1.0));

    std::puts(
        plotCurves("Fig. 7 — one-level vs two-level vs static", curves)
            .c_str());
    writeCurvesCsv(env.csvDir + "/fig07_comparison.csv", curves);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv,
                      "Fig. 7: best 1-level vs 2-level vs static",
                      run);
}
