/** @file Unit tests for the branch-log view the models read. */

#include "apps/branch_log.h"

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "kernel_log.h"
#include "predictor/gshare.h"
#include "workload/workload_generator.h"

namespace confsim {
namespace {

/** A resetting counter of 0..@p max over PCxorBHR. */
std::unique_ptr<ConfidenceEstimator>
resetting(unsigned max)
{
    return std::make_unique<OneLevelCounterConfidence>(
        IndexScheme::PcXorBhr, 4096, CounterKind::Resetting, max, 0);
}

/** A one-configuration pass of gshare with resetting(16) over 5,000
 *  branches, under @p plan when it is set. */
SweepRunResult
pass(const SweepRecordingPlan *plan)
{
    BenchmarkProfile profile;
    profile.name = "log-test";
    profile.targetBlocks = 100;
    profile.seed = 7;
    profile.mix = BehaviorMix{0.4, 0.1, 0.05, 0.3, 0.0, 0.1};
    WorkloadGenerator gen(profile, 5000);
    SweepRunResult out;
    out.perConfig.push_back(testing_apps::kernelReplay(
        gen, [] { return std::make_unique<GsharePredictor>(4096, 12); },
        [] { return resetting(16); }, plan));
    return out;
}

TEST(BranchLogTest, ViewsTheLoggedEstimatorsEntries)
{
    const SweepRecordingPlan plan = fullCoveragePlan();
    const SweepRunResult replay = pass(&plan);
    const BranchLog log = branchLog(replay, 0, 0, *resetting(16));
    EXPECT_EQ(log.entries.size(), replay.perConfig[0].branches);
    EXPECT_EQ(log.numBuckets, 17u);
    EXPECT_TRUE(log.bucketsOrdered);
    std::uint64_t misses = 0;
    for (const std::uint32_t entry : log.entries) {
        EXPECT_LT(BranchLog::bucket(entry), log.numBuckets);
        misses += BranchLog::missed(entry) ? 1 : 0;
    }
    EXPECT_EQ(misses, replay.perConfig[0].mispredicts);
}

TEST(BranchLogTest, ShapeOfAnotherEstimatorIsFatal)
{
    // A 9-bucket shape over a 17-bucket log would let a 9-flag mask
    // pass requireMaskFits and read buckets 9..16 as high confidence.
    const SweepRecordingPlan plan = fullCoveragePlan();
    const SweepRunResult replay = pass(&plan);
    EXPECT_THROW(branchLog(replay, 0, 0, *resetting(8)),
                 std::runtime_error);
}

TEST(BranchLogTest, PlainReplayIsFatal)
{
    const SweepRunResult replay = pass(nullptr);
    EXPECT_THROW(branchLog(replay, 0, 0, *resetting(16)),
                 std::runtime_error);
}

} // namespace
} // namespace confsim
