/**
 * @file
 * Estimator-design ablation: the paper's recommended resetting counter
 * against the design-space neighbours its Sections 1.1 and 6 point to:
 *
 *  - counter-strength confidence (the Smith-1981 style proposal the
 *    paper cites as prior work [9]),
 *  - the cross-product composite of the two (an "other possible
 *    method" of the kind Section 6 invites),
 *  - a three-class multi-level split (the generalization the paper
 *    explicitly defers: "one could divide the branches into multiple
 *    sets with a range of confidence levels").
 *
 * 64K gshare, IBS composite, ideal operating points read off each
 * estimator's own profiled buckets.
 */

#include <cstdio>

#include "confidence/composite_confidence.h"
#include "confidence/multi_level_signal.h"
#include "confidence/self_counter.h"
#include "sim/experiment.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    std::printf("=== Ablation: resetting counter vs counter-strength "
                "vs composite ===\n\n");
    std::vector<EstimatorConfig> configs;
    configs.push_back(oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                            CounterKind::Resetting));
    {
        EstimatorConfig config;
        config.label = "selfcnt3";
        config.make = [] {
            return std::make_unique<SelfCounterConfidence>(
                IndexScheme::Pc, paper::kLargeCtEntries, 3);
        };
        configs.push_back(std::move(config));
    }
    {
        EstimatorConfig config;
        config.label = "reset x selfcnt";
        config.make = [] {
            return std::make_unique<CompositeConfidence>(
                std::make_unique<OneLevelCounterConfidence>(
                    IndexScheme::PcXorBhr, paper::kLargeCtEntries,
                    CounterKind::Resetting, paper::kCounterMax, 0),
                std::make_unique<SelfCounterConfidence>(
                    IndexScheme::Pc, paper::kLargeCtEntries, 3));
        };
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

    // Storage context.
    for (const auto &config : configs) {
        auto est = config.make();
        std::printf("  %-18s %6llu Kbit\n", config.label.c_str(),
                    static_cast<unsigned long long>(
                        est->storageBits() / 1024));
    }

    // Multi-level classes on the resetting counter: show the graded
    // sets the paper's generalization would expose to applications.
    std::printf("\nmulti-level split of the resetting counter "
                "(cuts at 5%% and 20%% of references):\n");
    {
        OneLevelCounterConfidence estimator(
            IndexScheme::PcXorBhr, paper::kLargeCtEntries,
            CounterKind::Resetting, paper::kCounterMax, 0);
        const MultiLevelConfidenceSignal signal(
            estimator, result.compositeEstimatorStats[0],
            {0.05, 0.20});
        const char *labels[] = {"lowest", "middle", "highest"};
        for (unsigned c = 0; c < signal.numClasses(); ++c) {
            const auto &summary = signal.classSummaries()[c];
            std::printf("  class %u (%s): %5.1f%% of predictions, "
                        "misprediction rate %5.2f%%\n",
                        c, labels[c], 100.0 * summary.refFraction,
                        100.0 * summary.mispredictRate);
        }
    }

    writeCurvesCsv(env.csvDir + "/ablation_estimators.csv", curves);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, "Ablation: estimator design space", run);
}
