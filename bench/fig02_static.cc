/**
 * @file
 * Reproduces paper Fig. 2: cumulative mispredictions versus cumulative
 * dynamic branches for the idealized profile-based STATIC confidence
 * method, under the 64K-entry gshare predictor over the IBS stand-in
 * suite (equal-weight composite).
 *
 * Paper reference points: the knee at (25.2% branches, 70.6% misses);
 * ~63% of mispredictions concentrated in 20% of dynamic branches;
 * composite misprediction rate 3.85%.
 */

#include <cstdio>

#include "confidence/branch_classes.h"
#include "sim/experiment.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    std::printf("=== Fig. 2: ideal static (profile-based) confidence "
                "===\n\n");
    const auto swept =
        runSuiteExperiment(env, {{"run", largeGshareFactory(), {}}});
    const SuiteRunResult &result = swept.perConfig.front();
    printMispredictionRates(result);

    std::vector<NamedCurve> curves;
    curves.push_back(staticCompositeCurve(result));
    printCoverageSummary(curves);

    const double at20 = curves[0].curve.mispredCoverageAt(0.20);
    const double knee_y = curves[0].curve.mispredCoverageAt(0.252);
    std::printf("\npaper reference: 20%% -> ~63%%;   measured: 20%% -> "
                "%.1f%%\n",
                100.0 * at20);
    std::printf("paper knee (25.2, 70.6);          measured: (25.2, "
                "%.1f)\n\n",
                100.0 * knee_y);

    std::puts(plotCurves("Fig. 2 — static confidence method", curves)
                  .c_str());

    // Branch-class breakdown: which taken-rate bands carry the
    // mispredictions the static method localizes? (Computed on the
    // first suite benchmark's profile as an illustration; the curve
    // above uses the full composite.)
    {
        const auto suite = env.makeSuite();
        auto gen = suite.makeGenerator(0);
        auto predictor = largeGshareFactory()();
        DriverOptions options;
        options.profileStatic = true;
        SimulationDriver driver(*predictor, {}, options);
        const auto run = driver.run(*gen);
        std::printf("branch classes for '%s':\n%s\n",
                    suite.profile(0).name.c_str(),
                    renderBranchClassTable(
                        classifyProfile(run.staticProfile))
                        .c_str());
    }

    writeCurvesCsv(env.csvDir + "/fig02_static.csv", curves);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, "Fig. 2: static confidence method", run);
}
