/** @file Unit tests for the selective dual-path execution model. */

#include "apps/dual_path.h"

#include <gtest/gtest.h>

#include "kernel_log.h"
#include "workload/workload_generator.h"

namespace confsim {
namespace {

using testing_apps::entries;
using testing_apps::logOf;

/** A resetting counter of 0..4: five buckets. */
constexpr std::uint64_t kBuckets = 5;

BenchmarkProfile
testProfile()
{
    BenchmarkProfile p;
    p.name = "dp-test";
    p.targetBlocks = 150;
    p.seed = 91;
    p.mix = BehaviorMix{0.4, 0.1, 0.05, 0.3, 0.0, 0.1};
    return p;
}

/** The shared test configuration's log of @p branches of
 *  testProfile(). */
std::vector<std::uint32_t>
workloadLog(std::uint64_t branches)
{
    WorkloadGenerator gen(testProfile(), branches);
    return testing_apps::gshareCounterLog(gen);
}

TEST(DualPathTest, AllLowConfidenceForksEverywhereWithinResources)
{
    // With every bucket low-confidence and a 1-branch window, a fork
    // fires whenever the slot is free.
    const auto log = entries(100, 2, false);
    DualPathConfig config;
    config.resolutionWindow = 1;
    const auto result = runDualPath(
        logOf(log, kBuckets), std::vector<bool>(kBuckets, true), config);
    EXPECT_EQ(result.branches, 100u);
    EXPECT_EQ(result.forkRequests, 100u);
    // With window 1, a fork is held for one subsequent branch, so at
    // most every other branch can fork.
    EXPECT_GE(result.forks, 50u);
}

TEST(DualPathTest, NoLowConfidenceNeverForks)
{
    const auto log = entries(100, 0, true);
    const auto result = runDualPath(logOf(log, kBuckets),
                                    std::vector<bool>(kBuckets, false));
    EXPECT_EQ(result.forks, 0u);
    EXPECT_EQ(result.coveredMispredicts, 0u);
    EXPECT_EQ(result.mispredicts, 100u);
    // Without forks the dual-path machine degenerates to baseline.
    EXPECT_DOUBLE_EQ(result.dualPathCycles, result.baselineCycles);
    EXPECT_DOUBLE_EQ(result.speedup(), 1.0);
}

TEST(DualPathTest, CoveredMispredictsPayReducedPenalty)
{
    // Every branch mispredicted at low confidence with a 1-wide
    // window: every branch forks and every miss is covered.
    const auto log = entries(50, 0, true);
    DualPathConfig config;
    config.resolutionWindow = 1;
    const auto result = runDualPath(
        logOf(log, kBuckets), std::vector<bool>(kBuckets, true), config);
    // Every miss resets the fork slot, so the fork is always free at
    // the next branch: full coverage.
    EXPECT_EQ(result.mispredicts, 50u);
    EXPECT_EQ(result.coveredMispredicts, 50u);
    EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
    const double expected_baseline =
        50 * (config.baseCyclesPerBranch + config.mispredictPenalty);
    const double expected_dual =
        50 * (config.baseCyclesPerBranch + config.forkCost +
              config.forkedMispredictPenalty);
    EXPECT_DOUBLE_EQ(result.baselineCycles, expected_baseline);
    EXPECT_DOUBLE_EQ(result.dualPathCycles, expected_dual);
    EXPECT_GT(result.speedup(), 1.0);
}

TEST(DualPathTest, ConfidenceGuidedForkingBeatsBlindForkingOnBudget)
{
    // On a realistic workload, forking on the resetting counter's low
    // buckets must cover a disproportionate share of mispredictions
    // relative to the forks spent.
    const auto log = workloadLog(150000);
    std::vector<bool> low(17, false);
    for (std::uint64_t b = 0; b <= 3; ++b)
        low[b] = true; // fork only on the least-confident buckets
    const auto result = runDualPath(logOf(log, 17), low);
    EXPECT_GT(result.mispredicts, 0u);
    // Coverage should exceed fork rate substantially (the whole point
    // of confidence-guided forking).
    EXPECT_GT(result.coverage(), result.forkRate() * 1.5);
    EXPECT_GT(result.speedup(), 1.0);
}

TEST(DualPathTest, MismatchedMaskIsFatal)
{
    const std::vector<std::uint32_t> log;
    EXPECT_THROW(
        runDualPath(logOf(log, kBuckets), std::vector<bool>(2, true)),
        std::runtime_error);
}


TEST(DualPathTest, MoreForkSlotsIncreaseCoverage)
{
    // Eager-execution-style hardware: with more simultaneous forks,
    // coverage can only improve (same trigger policy).
    const auto log = workloadLog(100000);
    auto run = [&](unsigned slots) {
        std::vector<bool> low(17, false);
        for (std::uint64_t b = 0; b <= 7; ++b)
            low[b] = true;
        DualPathConfig config;
        config.maxForks = slots;
        return runDualPath(logOf(log, 17), low, config);
    };
    const auto one = run(1);
    const auto four = run(4);
    EXPECT_GE(four.coverage(), one.coverage());
    EXPECT_GE(four.forks, one.forks);
}

TEST(DualPathTest, ZeroForkSlotsIsFatal)
{
    const std::vector<std::uint32_t> log;
    DualPathConfig config;
    config.maxForks = 0;
    EXPECT_THROW(runDualPath(logOf(log, kBuckets),
                             std::vector<bool>(kBuckets, true), config),
                 std::runtime_error);
}
} // namespace
} // namespace confsim
