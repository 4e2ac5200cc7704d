/**
 * @file
 * The planned-replay record format: what a SweepRecordingPlan leaves in
 * a sweep result. A planned replay keeps the aggregate branch and
 * mispredict counts and one 4-byte `(bucket << 1) | mispredicted` log
 * entry per recorded branch and estimator, and no dense
 * per-estimator bank. A plan's source snapshots must lie inside their
 * buffer, in branch order.
 */

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "predictor/gshare.h"
#include "sim/sweep_engine.h"
#include "util/error.h"
#include "workload/workload_generator.h"

namespace confsim {
namespace {

constexpr std::uint64_t kBranches = 40000;
constexpr std::uint64_t kRegionBranches = 1000;

/** gshare-4K with a 64K-bucket raw CIR and a 17-bucket counter. */
SweepConfiguration
twoEstimatorConfig()
{
    SweepConfiguration config;
    config.label = "gshare+CIR+sat";
    config.makePredictor = [] {
        return std::make_unique<GsharePredictor>(4096, 12);
    };
    config.makeEstimators = [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<OneLevelCirConfidence>(
            IndexScheme::PcXorBhr, 1 << 16, 16,
            CirReduction::RawPattern));
        out.push_back(std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::Pc, 4096, CounterKind::Saturating, 16, 0));
        return out;
    };
    return config;
}

/** Replay jpeg through @p config, under @p plan when it is set. */
SweepConfigResult
replayJpeg(const SweepConfiguration &config,
           const SweepRecordingPlan *plan)
{
    SweepOptions sweep;
    sweep.recordingPlan = plan;
    SweepEngine engine({config}, DriverOptions{}, sweep);
    WorkloadGenerator workload(ibsProfile("jpeg"), kBranches);
    SweepRunResult result = engine.run(workload);
    return std::move(result.perConfig.at(0));
}

/** One slot that records every region of the trace. */
SweepRecordingPlan
fullCoveragePlan()
{
    SweepRecordingPlan plan;
    plan.regionBranches = kRegionBranches;
    plan.numSlots = 1;
    plan.regionSlots.assign(kBranches / kRegionBranches, 0);
    return plan;
}

TEST(PlannedReplayTest, FullCoverageSlotLogsCountToThePlainReplay)
{
    const SweepConfiguration config = twoEstimatorConfig();
    const SweepConfigResult plain = replayJpeg(config, nullptr);
    const SweepRecordingPlan plan = fullCoveragePlan();
    const SweepConfigResult planned = replayJpeg(config, &plan);

    EXPECT_TRUE(planned.estimatorStats.empty());
    EXPECT_EQ(planned.branches, plain.branches);
    EXPECT_EQ(planned.mispredicts, plain.mispredicts);
    EXPECT_EQ(planned.branches, kBranches);
    EXPECT_EQ(planned.estimatorNames, plain.estimatorNames);

    ASSERT_EQ(planned.slotStats.size(), 1u);
    const SweepSlotStats &slot = planned.slotStats[0];
    EXPECT_EQ(slot.branches, plain.branches);
    EXPECT_EQ(slot.mispredicts, plain.mispredicts);
    ASSERT_EQ(slot.estimatorLogs.size(), plain.estimatorStats.size());
    for (std::size_t e = 0; e < plain.estimatorStats.size(); ++e) {
        SCOPED_TRACE(plain.estimatorNames[e]);
        const BucketStats &want = plain.estimatorStats[e];
        const std::vector<std::uint32_t> &log = slot.estimatorLogs[e];
        ASSERT_EQ(log.size(), plain.branches);
        BucketStats counted(want.numBuckets());
        for (const std::uint32_t entry : log) {
            ASSERT_LT(entry >> 1, want.numBuckets());
            counted.record(entry >> 1, (entry & 1) != 0);
        }
        std::uint64_t differing = 0;
        for (std::uint64_t k = 0; k < want.numBuckets(); ++k) {
            differing +=
                std::bit_cast<std::uint64_t>(counted[k].refs) !=
                    std::bit_cast<std::uint64_t>(want[k].refs) ||
                std::bit_cast<std::uint64_t>(counted[k].mispredicts) !=
                    std::bit_cast<std::uint64_t>(want[k].mispredicts);
        }
        EXPECT_EQ(differing, 0u) << "buckets whose counts differ";
    }
}

/** A bucket space of @p buckets with every read in bucket 0. */
class WideBucketEstimator : public ConfidenceEstimator
{
  public:
    explicit WideBucketEstimator(std::uint64_t buckets)
        : buckets_(buckets)
    {}

    std::uint64_t
    bucketOf(const BranchContext &) const override
    {
        return 0;
    }
    std::uint64_t
    update(const BranchContext &, bool, bool) override
    {
        return 0;
    }
    std::uint64_t numBuckets() const override { return buckets_; }
    std::uint64_t storageBits() const override { return 0; }
    std::string name() const override { return "wide"; }
    void reset() override {}

  private:
    std::uint64_t buckets_;
};

TEST(PlannedReplayTest, RejectsBucketIdsWiderThan31Bits)
{
    const SweepRecordingPlan plan = fullCoveragePlan();
    const auto wide_config = [](std::uint64_t buckets) {
        SweepConfiguration config;
        config.label = "wide";
        config.makePredictor = [] {
            return std::make_unique<GsharePredictor>(4096, 12);
        };
        config.makeEstimators = [buckets] {
            std::vector<std::unique_ptr<ConfidenceEstimator>> out;
            out.push_back(std::make_unique<WideBucketEstimator>(buckets));
            return out;
        };
        return config;
    };

    // 2^31 buckets have 31-bit ids: a log entry holds them.
    const SweepConfigResult fits =
        replayJpeg(wide_config(std::uint64_t{1} << 31), &plan);
    EXPECT_EQ(fits.slotStats.at(0).estimatorLogs.at(0).size(), kBranches);

    try {
        (void)replayJpeg(wide_config((std::uint64_t{1} << 31) + 1), &plan);
        FAIL() << "a 2^31 + 1 bucket estimator replayed under a plan";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kConfig) << e.what();
    }
}

TEST(PlannedReplayTest, RejectsSnapshotsOutsideTheirBuffer)
{
    const SweepConfiguration config = twoEstimatorConfig();
    SweepRecordingPlan plan = fullCoveragePlan();
    plan.snapshotBytes.assign(16, 0);
    plan.snapshots.push_back({kRegionBranches, 8, 9});
    try {
        (void)replayJpeg(config, &plan);
        FAIL() << "a snapshot past the end of its buffer replayed";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kConfig) << e.what();
    }
    plan.snapshots = {{2 * kRegionBranches, 0, 8}, {kRegionBranches, 8, 8}};
    try {
        (void)replayJpeg(config, &plan);
        FAIL() << "snapshots out of branch order replayed";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kConfig) << e.what();
    }
}

} // namespace
} // namespace confsim
