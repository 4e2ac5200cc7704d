/**
 * @file
 * Reproduces paper Fig. 8: practical reduction functions on the best
 * one-level method (PC xor BHR indexing): ideal (profile-sorted raw
 * CIR patterns), ones counting, saturating 0..16 counters, and
 * resetting 0..16 counters. 64K gshare, IBS composite.
 *
 * Paper findings: ones counting falls short of ideal because it
 * weights old and recent mispredictions equally; saturating counters
 * inflate the max-count ("zero") bucket and cannot form low-confidence
 * sets beyond ~60% coverage; resetting counters track the ideal curve
 * closely with the same zero bucket and are the recommended
 * implementation.
 */

#include <cstdio>

#include "sim/experiment.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    std::printf("=== Fig. 8: reduction functions on the best one-level "
                "method ===\n\n");
    const std::vector<EstimatorConfig> configs = {
        oneLevelIdealConfig(IndexScheme::PcXorBhr),
        oneLevelOnesCountConfig(IndexScheme::PcXorBhr),
        oneLevelCounterConfig(IndexScheme::PcXorBhr,
                              CounterKind::Saturating),
        oneLevelCounterConfig(IndexScheme::PcXorBhr,
                              CounterKind::Resetting),
    };
    const auto swept =
        runSuiteExperiment(env, {{"run", largeGshareFactory(), configs}});
    const SuiteRunResult &result = swept.perConfig.front();
    printMispredictionRates(result);

    std::vector<NamedCurve> curves;
    curves.push_back(compositeCurve(result, 0, "BHRxorPC (ideal)"));
    curves.push_back(compositeCurve(result, 1, "BHRxorPC.1Cnt"));
    curves.push_back(compositeCurve(result, 2, "BHRxorPC.Sat"));
    curves.push_back(compositeCurve(result, 3, "BHRxorPC.Reset"));
    printCoverageSummary(curves);

    // Max-bucket ("zero bucket") comparison — the paper's explanation
    // for the saturating counter's weakness.
    auto max_bucket_stats = [&result](std::size_t index,
                                      std::uint64_t bucket) {
        const auto &stats = result.compositeEstimatorStats[index];
        return std::pair<double, double>(
            100.0 * stats[bucket].refs / stats.totalRefs(),
            100.0 * stats[bucket].mispredicts /
                stats.totalMispredicts());
    };
    const auto sat = max_bucket_stats(2, 16);
    const auto reset = max_bucket_stats(3, 16);
    std::printf("\nmax-count bucket:   saturating %.1f%% refs / %.1f%% "
                "misses;   resetting %.1f%% refs / %.1f%% misses\n",
                sat.first, sat.second, reset.first, reset.second);
    std::printf("(the paper: the saturating max bucket 'contains more "
                "mispredicted branches')\n\n");

    // Storage: counters embed in the CT -> log-factor cheaper.
    auto ideal = configs[0].make();
    auto reset_est = configs[3].make();
    std::printf("storage: full CIRs %llu Kbit vs resetting counters "
                "%llu Kbit (%.1fx cheaper)\n\n",
                static_cast<unsigned long long>(ideal->storageBits() /
                                                1024),
                static_cast<unsigned long long>(
                    reset_est->storageBits() / 1024),
                static_cast<double>(ideal->storageBits()) /
                    reset_est->storageBits());

    std::puts(
        plotCurves("Fig. 8 — reduction functions (BHRxorPC)", curves)
            .c_str());
    writeCurvesCsv(env.csvDir + "/fig08_reduction.csv", curves);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, "Fig. 8: reduction functions", run);
}
