/**
 * @file
 * Confidence-based hybrid selector study (paper Section 1 application
 * 3): per IBS benchmark, compare
 *  - bimodal alone,
 *  - gshare alone,
 *  - the classic McFarling chooser hybrid,
 *  - confidence arbitration (each constituent carries a resetting-
 *    counter estimator; on disagreement the more confident wins),
 *  - the oracle (both wrong) lower bound.
 */

#include <cstdio>
#include <memory>

#include "apps/hybrid_selector.h"
#include "predictor/bimodal.h"
#include "predictor/hybrid.h"
#include "sim/experiment.h"
#include "util/csv.h"
#include "util/string_utils.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    std::printf("=== Application 3: hybrid predictor selection ===\n\n");
    std::printf("%-12s %9s %9s %9s %9s %9s\n", "benchmark", "bimodal",
                "gshare", "chooser", "confsel", "oracle");
    CsvWriter csv(env.csvDir + "/app_hybrid.csv");
    csv.writeRow({"benchmark", "bimodal", "gshare", "chooser",
                  "confsel", "oracle"});

    // Three configurations over one replay per benchmark: the two
    // constituents, each with its own resetting-counter estimator, and
    // the McFarling chooser over the same pair.
    const EstimatorConfig bimodal_conf =
        oneLevelCounterConfig(IndexScheme::Pc, CounterKind::Resetting, 4096);
    const EstimatorConfig gshare_conf = oneLevelCounterConfig(
        IndexScheme::PcXorBhr, CounterKind::Resetting, 4096);
    const auto bimodal_shape = bimodal_conf.make();
    const auto gshare_shape = gshare_conf.make();
    const PredictorFactory bimodal = [] {
        return std::make_unique<BimodalPredictor>(4096);
    };
    const PredictorFactory chooser = [] {
        return std::make_unique<HybridPredictor>(
            std::make_unique<BimodalPredictor>(4096),
            std::make_unique<GsharePredictor>(4096, 12), 4096);
    };
    std::vector<HybridSelectorResult> selections(env.makeSuite().size());
    const SweepSuiteResult swept = runSuiteExperiment(
        env,
        {{"bimodal", bimodal, {bimodal_conf}},
         {"gshare", smallGshareFactory(), {gshare_conf}},
         {"chooser", chooser, {}}},
        branchLogHooks([&](std::size_t bench, const SweepRunResult &pass) {
            selections[bench] =
                runHybridSelector(branchLog(pass, 0, 0, *bimodal_shape),
                                  branchLog(pass, 1, 0, *gshare_shape));
        }));

    double sums[5] = {};
    for (std::size_t b = 0; b < selections.size(); ++b) {
        const HybridSelectorResult &sel = selections[b];
        const BenchmarkRunResult &chooser_run =
            swept.perConfig[2].perBenchmark[b];
        const double rates[5] = {
            sel.rate(sel.firstMispredicts),
            sel.rate(sel.secondMispredicts),
            chooser_run.mispredictRate,
            sel.rate(sel.selectedMispredicts),
            sel.rate(sel.oracleMispredicts),
        };
        std::printf("%-12s %8.2f%% %8.2f%% %8.2f%% %8.2f%% %8.2f%%\n",
                    chooser_run.name.c_str(), 100.0 * rates[0],
                    100.0 * rates[1], 100.0 * rates[2],
                    100.0 * rates[3], 100.0 * rates[4]);
        csv.writeRow({chooser_run.name, formatFixed(rates[0], 5),
                      formatFixed(rates[1], 5),
                      formatFixed(rates[2], 5),
                      formatFixed(rates[3], 5),
                      formatFixed(rates[4], 5)});
        for (int i = 0; i < 5; ++i)
            sums[i] += rates[i];
    }
    const auto n = static_cast<double>(selections.size());
    std::printf("%-12s %8.2f%% %8.2f%% %8.2f%% %8.2f%% %8.2f%%  "
                "(equal-weight)\n",
                "composite", 100.0 * sums[0] / n, 100.0 * sums[1] / n,
                100.0 * sums[2] / n, 100.0 * sums[3] / n,
                100.0 * sums[4] / n);
    std::printf("\n(the paper: confidence mechanisms 'may ... arrive "
                "at more accurate hybrid selectors' than the ad hoc "
                "chooser)\n");
    std::printf("wrote %s/app_hybrid.csv\n", env.csvDir.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv,
                      "Application: confidence hybrid selector",
                      run);
}
