/**
 * @file The replay kernel's tally guard: a dense bucket bank counts at
 * most 2^32 - 1 branches per bucket, so a run that could record more
 * fails with Error{kConfig} before the batch that would pass the limit.
 */

#include "sim/replay_kernel.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "confidence/one_level.h"
#include "predictor/bimodal.h"
#include "trace/vector_trace_source.h"

namespace confsim {
namespace {

constexpr std::uint64_t kLimit = std::numeric_limits<std::uint32_t>::max();

/** A batch of @p conditionals conditional records, then @p calls calls. */
RecordBatch
batchOf(int conditionals, int calls)
{
    std::vector<BranchRecord> records;
    for (int i = 0; i < conditionals; ++i)
        records.push_back({0x1000, 0x1010, i % 2 == 0,
                           BranchType::Conditional});
    for (int i = 0; i < calls; ++i)
        records.push_back({0x2000, 0x3000, true, BranchType::Call});
    VectorTraceSource source(std::move(records));
    RecordBatch batch;
    batch.refill(source);
    return batch;
}

/** One configuration's components, freshly built. */
struct Config
{
    BimodalPredictor predictor{256};
    OneLevelCounterConfidence estimator{IndexScheme::Pc, 64,
                                        CounterKind::Resetting, 4, 0};
    std::vector<ConfidenceEstimator *> estimators{&estimator};
};

TEST(TallyLimitTest, RestoredNearTheLimitRefusesABatchThatWouldPassIt)
{
    const DriverOptions options;
    const ReplayGuard guard(options);

    // A checkpoint of a configuration that has recorded 2^32 - 2
    // branches (the count is set, not simulated).
    Config saved;
    const std::uint32_t fingerprint =
        configFingerprint(saved.predictor, saved.estimators, options);
    ReplayKernel writer(saved.predictor, saved.estimators, "cfg", options);
    writer.result().branches = kLimit - 1;
    Checkpoint ckpt;
    ckpt.branches = kLimit - 1;
    writer.save(ckpt, "cfg0:", fingerprint);

    Config restored;
    ReplayKernel kernel(restored.predictor, restored.estimators, "cfg",
                        options);
    kernel.restore(ckpt, "cfg0:", fingerprint);
    ASSERT_EQ(kernel.result().branches, kLimit - 1);

    try {
        kernel.replay(batchOf(4, 0), guard);
        FAIL() << "four branches recorded past 2^32 - 2";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kConfig) << e.what();
    }
    // Refused before the first record of the batch.
    EXPECT_EQ(kernel.result().branches, kLimit - 1);
    EXPECT_EQ(kernel.simulated(), kLimit - 1);
    EXPECT_DOUBLE_EQ(kernel.result().estimatorStats.at(0).totalRefs(), 0.0);

    // One conditional (non-conditional records count for nothing)
    // reaches the limit exactly; the next one would pass it.
    kernel.replay(batchOf(1, 3), guard);
    EXPECT_EQ(kernel.result().branches, kLimit);
    EXPECT_DOUBLE_EQ(kernel.result().estimatorStats.at(0).totalRefs(), 1.0);
    EXPECT_THROW(kernel.replay(batchOf(1, 0), guard), Error);
    EXPECT_EQ(kernel.result().branches, kLimit);
}

TEST(TallyLimitTest, AKernelWithoutDenseBanksHasNoLimit)
{
    const DriverOptions options;
    const ReplayGuard guard(options);
    BimodalPredictor predictor(256);
    ReplayKernel kernel(predictor, {}, "bare", options);
    kernel.result().branches = kLimit;
    kernel.replay(batchOf(4, 0), guard);
    EXPECT_EQ(kernel.result().branches, kLimit + 4);
}

} // namespace
} // namespace confsim
