/** @file Unit tests for the pipeline-gating (speculation control)
 *  model. */

#include "apps/pipeline_gating.h"

#include <gtest/gtest.h>

#include "kernel_log.h"
#include "workload/workload_generator.h"

namespace confsim {
namespace {

using testing_apps::entries;
using testing_apps::logOf;

/** A resetting counter of 0..4: five buckets. */
constexpr std::uint64_t kBuckets = 5;

GatingConfig
smallConfig(bool gate, unsigned threshold = 0)
{
    GatingConfig config;
    config.fetchWidth = 4;
    config.resolveLatency = 8;
    config.instrsPerBranch = 3;
    config.enableGating = gate;
    config.gateThreshold = threshold;
    config.branches = 1'000'000; // run to the log's end
    return config;
}

/** Counter values 0..7 of 17 are low confidence. */
std::vector<bool>
lowUpTo7()
{
    std::vector<bool> low(17, false);
    for (std::uint64_t b = 0; b <= 7; ++b)
        low[b] = true;
    return low;
}

TEST(PipelineGatingTest, PerfectPredictionFetchesNoJunk)
{
    const auto log = entries(200, 4, false);
    const auto result =
        runPipelineGating(logOf(log, kBuckets),
                          std::vector<bool>(kBuckets, false),
                          smallConfig(false));
    EXPECT_EQ(result.branches, 200u);
    EXPECT_EQ(result.mispredicts, 0u);
    EXPECT_EQ(result.wrongPathInstructions, 0u);
    EXPECT_EQ(result.committedInstructions,
              result.fetchedInstructions);
    // 200 branches x (3 gap instrs + the branch) / 4-wide fetch, plus
    // the drain tail.
    EXPECT_GE(result.cycles, 200u);
    EXPECT_GT(result.ipc(), 3.0);
}

TEST(PipelineGatingTest, MispredictsCostWrongPathWork)
{
    const auto log = entries(100, 0, true);
    const auto result =
        runPipelineGating(logOf(log, kBuckets),
                          std::vector<bool>(kBuckets, false),
                          smallConfig(false));
    EXPECT_EQ(result.mispredicts, 100u);
    EXPECT_GT(result.wrongPathInstructions, 0u);
    EXPECT_GT(result.wastedFraction(), 0.3);
}

TEST(PipelineGatingTest, GatingOnAlwaysLowStopsWrongPathFetch)
{
    // Every prediction low-confidence + threshold 0: after fetching a
    // branch, fetch stalls until it resolves, so no wrong-path
    // instruction is ever fetched.
    const auto log = entries(100, 0, true);
    const auto result =
        runPipelineGating(logOf(log, kBuckets),
                          std::vector<bool>(kBuckets, true),
                          smallConfig(true, 0));
    EXPECT_EQ(result.mispredicts, 100u);
    EXPECT_EQ(result.wrongPathInstructions, 0u);
    EXPECT_GT(result.gatedCycles, 0u);
}

TEST(PipelineGatingTest, GatingTradesCyclesForWaste)
{
    // On a realistic workload: gating must reduce the wasted fraction;
    // the IPC cost must be bounded (that's the entire selling point).
    WorkloadGenerator gen(ibsProfile("groff"), 200000);
    const auto log = testing_apps::gshareCounterLog(gen);
    const auto run = [&](bool gate) {
        GatingConfig config;
        config.enableGating = gate;
        config.gateThreshold = 1;
        config.branches = 200000;
        return runPipelineGating(logOf(log, 17), lowUpTo7(), config);
    };
    const auto baseline = run(false);
    const auto gated = run(true);
    EXPECT_LT(gated.wastedFraction(), baseline.wastedFraction());
    EXPECT_GT(gated.gatedCycles, 0u);
    // Gating may cost some IPC but must stay within ~30% here.
    EXPECT_GT(gated.ipc(), baseline.ipc() * 0.70);
    // Committed work is identical — same trace either way.
    EXPECT_EQ(gated.committedInstructions,
              baseline.committedInstructions);
}

TEST(PipelineGatingTest, NonConditionalRecordsAreNotBranches)
{
    // Calls, returns and jumps mixed into the trace are not branches
    // the model fetches: its result equals the one over the same
    // conditional stream without them.
    const auto run = [](bool emit_non_conditional) {
        BenchmarkProfile profile = ibsProfile("jpeg");
        profile.emitNonConditional = emit_non_conditional;
        WorkloadGenerator gen(profile, 50000);
        const auto log = testing_apps::gshareCounterLog(gen);
        GatingConfig config;
        config.branches = 50000;
        return runPipelineGating(logOf(log, 17), lowUpTo7(), config);
    };
    const GatingResult plain = run(false);
    const GatingResult mixed = run(true);
    EXPECT_EQ(mixed.branches, 50000u);
    EXPECT_EQ(mixed.branches, plain.branches);
    EXPECT_EQ(mixed.mispredicts, plain.mispredicts);
    EXPECT_EQ(mixed.cycles, plain.cycles);
    EXPECT_EQ(mixed.fetchedInstructions, plain.fetchedInstructions);
    EXPECT_EQ(mixed.wrongPathInstructions, plain.wrongPathInstructions);
    EXPECT_EQ(mixed.committedInstructions, plain.committedInstructions);
    EXPECT_EQ(mixed.gatedCycles, plain.gatedCycles);
}

TEST(PipelineGatingTest, HighThresholdNeverGates)
{
    const auto log = entries(100, 4, false);
    const auto result =
        runPipelineGating(logOf(log, kBuckets),
                          std::vector<bool>(kBuckets, true),
                          smallConfig(true, 1000));
    EXPECT_EQ(result.gatedCycles, 0u);
}

TEST(PipelineGatingTest, BranchBudgetStopsEarly)
{
    const auto log = entries(1000, 4, false);
    GatingConfig config = smallConfig(false);
    config.branches = 50;
    const auto result =
        runPipelineGating(logOf(log, kBuckets),
                          std::vector<bool>(kBuckets, false), config);
    EXPECT_EQ(result.branches, 50u);
}

TEST(PipelineGatingTest, MismatchedMaskIsFatal)
{
    const std::vector<std::uint32_t> log;
    EXPECT_THROW(runPipelineGating(logOf(log, kBuckets),
                                   std::vector<bool>(2, true)),
                 std::runtime_error);
}

} // namespace
} // namespace confsim
