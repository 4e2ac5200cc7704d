/**
 * @file
 * Integration tests for per-branch attribution profiling: profiling
 * must be bit-exact-neutral in the sequential driver and in every
 * sweep config replica, its totals must equal the run aggregates
 * exactly (the acceptance invariant behind --branch-profile), and the
 * suite merge must tag PCs by benchmark index.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "obs/branch_profiler.h"
#include "predictor/gshare.h"
#include "sim/driver.h"
#include "sim/suite_runner.h"
#include "sim/sweep_engine.h"
#include "workload/suite.h"

namespace confsim {
namespace {

constexpr std::uint64_t kBranches = 40'000;

PredictorFactory
testPredictor()
{
    return [] { return std::make_unique<GsharePredictor>(4096, 12); };
}

EstimatorSetFactory
testEstimators()
{
    return [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::PcXorBhr, 1024, CounterKind::Resetting, 16,
            0));
        return out;
    };
}

DriverResult
runSequential(DriverOptions options,
              std::uint64_t branches = kBranches)
{
    auto predictor = testPredictor()();
    auto owned = testEstimators()();
    std::vector<ConfidenceEstimator *> raw;
    for (auto &estimator : owned)
        raw.push_back(estimator.get());
    SimulationDriver driver(*predictor, raw, options);
    auto source = BenchmarkSuite::ibsSmall(branches).makeGenerator(0);
    return driver.run(*source);
}

void
expectProfilesIdentical(const BranchProfile &expected,
                        const BranchProfile &actual)
{
    EXPECT_EQ(expected.totalExecutions(), actual.totalExecutions());
    EXPECT_EQ(expected.totalMispredictions(),
              actual.totalMispredictions());
    EXPECT_EQ(expected.evictedPcs(), actual.evictedPcs());
    ASSERT_EQ(expected.entries().size(), actual.entries().size());
    for (const auto &[pc, entry] : expected.entries()) {
        const auto it = actual.entries().find(pc);
        ASSERT_NE(it, actual.entries().end()) << "pc " << pc;
        EXPECT_EQ(entry.executions, it->second.executions);
        EXPECT_EQ(entry.mispredictions, it->second.mispredictions);
        EXPECT_EQ(entry.lowConfidence, it->second.lowConfidence);
        EXPECT_EQ(entry.confidenceSum, it->second.confidenceSum);
    }
}

TEST(BranchProfileIntegration, ProfilingIsBitExactNeutral)
{
    DriverOptions plain;
    const DriverResult reference = runSequential(plain);

    DriverOptions profiled = plain;
    profiled.profileBranches = true;
    const DriverResult result = runSequential(profiled);

    // Simulation outputs are untouched by the observer.
    EXPECT_EQ(reference.branches, result.branches);
    EXPECT_EQ(reference.mispredicts, result.mispredicts);
    ASSERT_EQ(reference.estimatorStats.size(),
              result.estimatorStats.size());
    const BucketStats &eb = reference.estimatorStats[0];
    const BucketStats &ab = result.estimatorStats[0];
    ASSERT_EQ(eb.numBuckets(), ab.numBuckets());
    for (std::uint64_t b = 0; b < eb.numBuckets(); ++b) {
        EXPECT_EQ(eb[b].refs, ab[b].refs);
        EXPECT_EQ(eb[b].mispredicts, ab[b].mispredicts);
    }

    // The acceptance invariant: profile totals equal the run
    // aggregates exactly (eviction folds, never discards).
    ASSERT_TRUE(result.branchProfile.enabled());
    EXPECT_EQ(result.branchProfile.totalExecutions(), result.branches);
    EXPECT_EQ(result.branchProfile.totalMispredictions(),
              result.mispredicts);
    EXPECT_FALSE(reference.branchProfile.enabled());

    // And the top-K table's mass plus the evicted aggregate recovers
    // the total: nothing is double counted or lost.
    std::uint64_t tracked = 0;
    for (const auto &entry : result.branchProfile.topByMispredictions(
             result.branchProfile.entries().size()))
        tracked += entry.second.mispredictions;
    EXPECT_EQ(tracked +
                  result.branchProfile.evicted().mispredictions,
              result.mispredicts);
}

TEST(BranchProfileIntegration, WarmupGatesProfileLikeTheAggregates)
{
    // A planned replay whose first region only warms: it trains the
    // structures but records nothing, on both sides identically.
    DriverOptions options;
    options.profileBranches = true;
    SweepRecordingPlan plan;
    plan.regionBranches = 5'000;
    plan.numSlots = 1;
    plan.regionSlots.assign(kBranches / plan.regionBranches, 0);
    plan.regionSlots.front() = SweepRecordingPlan::kWarmOnly;
    SweepEngine engine({{"cfg", testPredictor(), testEstimators()}},
                       options);
    auto source = BenchmarkSuite::ibsSmall(kBranches).makeGenerator(0);
    const SweepRunResult run = engine.run(*source, &plan);
    const SweepConfigResult &result = run.perConfig.front();
    EXPECT_EQ(result.branches, kBranches - plan.regionBranches);
    EXPECT_EQ(result.branchProfile.totalExecutions(), result.branches);
    EXPECT_EQ(result.branchProfile.totalMispredictions(),
              result.mispredicts);
}

TEST(BranchProfileIntegration, SweepReplicaMatchesSequential)
{
    DriverOptions options;
    options.profileBranches = true;
    const DriverResult reference = runSequential(options);

    SweepOptions sweep;
    sweep.batchSize = 777;
    std::vector<SweepConfiguration> configs;
    for (int c = 0; c < 3; ++c)
        configs.push_back({"cfg" + std::to_string(c), testPredictor(),
                           testEstimators()});
    SweepEngine engine(configs, options, sweep);
    auto source = BenchmarkSuite::ibsSmall(kBranches).makeGenerator(0);
    const SweepRunResult result = engine.run(*source);

    ASSERT_EQ(result.perConfig.size(), configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE("config " + std::to_string(c));
        ASSERT_TRUE(result.perConfig[c].branchProfile.enabled());
        expectProfilesIdentical(reference.branchProfile,
                                result.perConfig[c].branchProfile);
        EXPECT_EQ(result.perConfig[c].branchProfile
                      .totalMispredictions(),
                  result.perConfig[c].mispredicts);
    }
}

TEST(BranchProfileIntegration, SuiteMergeTagsPcsByBenchmark)
{
    DriverOptions options;
    options.profileBranches = true;
    // Room for every benchmark's statics so the per-PC re-keying
    // below is exhaustive (no eviction in the merged profile).
    options.branchProfile.capacity = 1u << 16;
    SuiteRunner runner(BenchmarkSuite::ibsSmall(10'000));
    const SuiteRunResult result = runner.run(
        testPredictor(), testEstimators(), options, RunPolicy{});

    ASSERT_TRUE(result.branchProfile.enabled());
    std::uint64_t exec_sum = 0;
    std::uint64_t mis_sum = 0;
    for (std::size_t bench = 0; bench < result.perBenchmark.size();
         ++bench) {
        const BenchmarkRunResult &br = result.perBenchmark[bench];
        ASSERT_TRUE(br.branchProfile.enabled()) << br.name;
        EXPECT_EQ(br.branchProfile.totalExecutions(), br.branches);
        EXPECT_EQ(br.branchProfile.totalMispredictions(),
                  br.mispredicts);
        exec_sum += br.branches;
        mis_sum += br.mispredicts;

        // Every per-benchmark PC reappears in the merged profile
        // re-keyed under this benchmark's tag.
        const std::uint64_t tag = static_cast<std::uint64_t>(bench)
                                  << 48;
        for (const auto &[pc, entry] :
             br.branchProfile.entries()) {
            const auto it =
                result.branchProfile.entries().find(tag | pc);
            ASSERT_NE(it, result.branchProfile.entries().end())
                << br.name << " pc " << pc;
            EXPECT_EQ(entry.executions, it->second.executions);
            EXPECT_EQ(entry.mispredictions,
                      it->second.mispredictions);
        }
    }
    // Merged totals are the exact suite sums.
    EXPECT_EQ(result.branchProfile.totalExecutions(), exec_sum);
    EXPECT_EQ(result.branchProfile.totalMispredictions(), mis_sum);
}

} // namespace
} // namespace confsim
