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
#include <string>

#include "confidence/branch_classes.h"
#include "sim/experiment.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    std::printf("=== Fig. 2: ideal static (profile-based) confidence "
                "===\n\n");
    // Branch-class breakdown: which taken-rate bands carry the
    // mispredictions the static method localizes? Computed on the first
    // suite benchmark's profile as an illustration, which its pass's
    // finish hook reads before the run keeps only bucket counts; the
    // curve uses the full composite.
    std::string classes;
    SuiteRunner::PassHooks hooks;
    hooks.finish = [&classes](std::size_t bench, const SweepRunResult &pass) {
        if (bench == 0) {
            classes = renderBranchClassTable(
                classifyProfile(pass.perConfig.front().staticProfile));
        }
    };
    const auto swept = runSuiteExperiment(
        env, {{"run", largeGshareFactory(), {}}}, hooks);
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

    // A benchmark restored from its done-marker replays nothing, so it
    // has no profile to break down.
    std::printf("branch classes for '%s':\n%s\n",
                result.perBenchmark.front().name.c_str(),
                classes.empty() ? "(restored from a checkpoint; no profile)"
                                : classes.c_str());

    writeCurvesCsv(env.csvDir + "/fig02_static.csv", curves);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, "Fig. 2: static confidence method", run);
}
