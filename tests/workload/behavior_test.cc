/** @file Unit tests for workload/branch_behavior.h. */

#include "workload/branch_behavior.h"

#include <array>

#include <gtest/gtest.h>

#include "util/error.h"

namespace confsim {
namespace {

TEST(WorkloadContextTest, RecordsAndExposesHistory)
{
    WorkloadContext ctx;
    ctx.recordOutcome(true);
    ctx.recordOutcome(false);
    ctx.recordOutcome(true);
    // pastOutcome(0) = most recent.
    EXPECT_TRUE(ctx.pastOutcome(0));
    EXPECT_FALSE(ctx.pastOutcome(1));
    EXPECT_TRUE(ctx.pastOutcome(2));
    EXPECT_FALSE(ctx.pastOutcome(3));
}

TEST(WorkloadContextTest, ResetClearsHistory)
{
    WorkloadContext ctx;
    ctx.recordOutcome(true);
    ctx.reset();
    EXPECT_EQ(ctx.historyValue(), 0u);
}

TEST(BiasedBehaviorTest, FrequencyMatchesProbability)
{
    WorkloadContext ctx;
    Rng rng(5);
    BranchBehavior biased = BranchBehavior::biased(0.8);
    int taken = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        taken += biased.nextOutcome(ctx, rng);
    EXPECT_NEAR(static_cast<double>(taken) / n, 0.8, 0.01);
}

TEST(BiasedBehaviorTest, RejectsBadProbability)
{
    EXPECT_THROW(BranchBehavior::biased(-0.1), std::runtime_error);
    EXPECT_THROW(BranchBehavior::biased(1.1), std::runtime_error);
}

TEST(LoopBehaviorTest, FixedTripPattern)
{
    // Trip 4: T T T N, repeating.
    WorkloadContext ctx;
    Rng rng(9);
    BranchBehavior loop = BranchBehavior::loop(4, TripCountModel::Fixed);
    for (int pass = 0; pass < 3; ++pass) {
        EXPECT_TRUE(loop.nextOutcome(ctx, rng));
        EXPECT_TRUE(loop.nextOutcome(ctx, rng));
        EXPECT_TRUE(loop.nextOutcome(ctx, rng));
        EXPECT_FALSE(loop.nextOutcome(ctx, rng));
    }
}

TEST(LoopBehaviorTest, TripOneNeverIterates)
{
    WorkloadContext ctx;
    Rng rng(9);
    BranchBehavior loop = BranchBehavior::loop(1, TripCountModel::Fixed);
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(loop.nextOutcome(ctx, rng));
}

TEST(LoopBehaviorTest, JitteredStaysInRange)
{
    WorkloadContext ctx;
    Rng rng(11);
    BranchBehavior loop =
        BranchBehavior::loop(10, TripCountModel::Jittered, 2);
    for (int pass = 0; pass < 200; ++pass) {
        int trip = 0;
        while (loop.nextOutcome(ctx, rng))
            ++trip;
        ++trip; // the exit execution is also one trip
        EXPECT_GE(trip, 8);
        EXPECT_LE(trip, 12);
    }
}

TEST(LoopBehaviorTest, GeometricMeanApproximatelyCorrect)
{
    WorkloadContext ctx;
    Rng rng(13);
    BranchBehavior loop =
        BranchBehavior::loop(8, TripCountModel::Geometric);
    double total = 0.0;
    const int passes = 20000;
    for (int pass = 0; pass < passes; ++pass) {
        int trip = 1;
        while (loop.nextOutcome(ctx, rng))
            ++trip;
        total += trip;
    }
    EXPECT_NEAR(total / passes, 8.0, 0.7);
}

TEST(LoopBehaviorTest, ResetReArms)
{
    WorkloadContext ctx;
    Rng rng(15);
    BranchBehavior loop = BranchBehavior::loop(3, TripCountModel::Fixed);
    EXPECT_TRUE(loop.nextOutcome(ctx, rng));
    loop.reset();
    // After reset the loop starts a fresh trip: T T N.
    EXPECT_TRUE(loop.nextOutcome(ctx, rng));
    EXPECT_TRUE(loop.nextOutcome(ctx, rng));
    EXPECT_FALSE(loop.nextOutcome(ctx, rng));
}

TEST(LoopBehaviorTest, RejectsBadParameters)
{
    EXPECT_THROW(BranchBehavior::loop(0, TripCountModel::Fixed),
                 std::runtime_error);
    EXPECT_THROW(BranchBehavior::loop(4, TripCountModel::Jittered, 4),
                 std::runtime_error);
}

TEST(PatternBehaviorTest, ReplaysCyclically)
{
    WorkloadContext ctx;
    Rng rng(17);
    BranchBehavior pattern =
        BranchBehavior::pattern(std::array{true, true, false});
    for (int pass = 0; pass < 4; ++pass) {
        EXPECT_TRUE(pattern.nextOutcome(ctx, rng));
        EXPECT_TRUE(pattern.nextOutcome(ctx, rng));
        EXPECT_FALSE(pattern.nextOutcome(ctx, rng));
    }
}

TEST(PatternBehaviorTest, ResetRestartsPhase)
{
    WorkloadContext ctx;
    Rng rng(17);
    BranchBehavior pattern =
        BranchBehavior::pattern(std::array{true, false});
    EXPECT_TRUE(pattern.nextOutcome(ctx, rng));
    pattern.reset();
    EXPECT_TRUE(pattern.nextOutcome(ctx, rng));
}

TEST(PatternBehaviorTest, RestoreRejectsAPhasePastThePattern)
{
    // The phase indexes the pattern, so a checkpoint must not set it
    // past the end; the last phase restores and resumes there.
    WorkloadContext ctx;
    Rng rng(17);
    BranchBehavior pattern =
        BranchBehavior::pattern(std::array{true, true, false});
    for (const std::uint64_t phase : {std::uint64_t{3}, ~std::uint64_t{0}}) {
        StateWriter out;
        out.putU64(phase);
        StateReader in(out.bytes());
        try {
            pattern.loadState(in);
            ADD_FAILURE() << "phase " << phase << " restored";
        } catch (const Error &e) {
            EXPECT_EQ(e.category(), ErrorCategory::kCheckpoint) << phase;
        }
    }
    StateWriter out;
    out.putU64(2);
    StateReader in(out.bytes());
    pattern.loadState(in);
    EXPECT_FALSE(pattern.nextOutcome(ctx, rng));
    EXPECT_TRUE(pattern.nextOutcome(ctx, rng));
}

TEST(PatternBehaviorTest, EmptyPatternIsFatal)
{
    EXPECT_THROW(BranchBehavior::pattern({}), std::runtime_error);
}

TEST(PatternBehaviorTest, PatternLongerThanAWordIsFatal)
{
    // The directions are the bits of one word: the first and the last
    // of the longest pattern are taken.
    constexpr unsigned kLongest = BranchBehavior::kMaxPatternLength;
    std::array<bool, kLongest + 1> directions{};
    directions[0] = true;
    directions[kLongest - 1] = true;
    EXPECT_THROW(BranchBehavior::pattern(directions), std::runtime_error);
    WorkloadContext ctx;
    Rng rng(17);
    BranchBehavior longest =
        BranchBehavior::pattern(std::span(directions.data(), kLongest));
    for (int pass = 0; pass < 2; ++pass) {
        for (unsigned i = 0; i < kLongest; ++i)
            EXPECT_EQ(longest.nextOutcome(ctx, rng), directions[i]) << i;
    }
}

TEST(HistoryCorrelatedTest, ParityFollowsTaps)
{
    WorkloadContext ctx;
    Rng rng(19);
    BranchBehavior parity = BranchBehavior::historyCorrelated(
        std::array{0u, 1u}, CorrelationOp::Parity, 0.0);
    ctx.recordOutcome(true);
    ctx.recordOutcome(false); // history (newest first): 0, 1
    EXPECT_TRUE(parity.nextOutcome(ctx, rng)); // 0 xor 1 = 1
    ctx.recordOutcome(true); // history: 1, 0
    EXPECT_TRUE(parity.nextOutcome(ctx, rng));
    ctx.recordOutcome(true); // history: 1, 1
    EXPECT_FALSE(parity.nextOutcome(ctx, rng));
}

TEST(HistoryCorrelatedTest, MajorityAndAnd)
{
    WorkloadContext ctx;
    Rng rng(23);
    ctx.recordOutcome(true);
    ctx.recordOutcome(true);
    ctx.recordOutcome(false); // newest first: 0, 1, 1
    BranchBehavior maj = BranchBehavior::historyCorrelated(
        std::array{0u, 1u, 2u}, CorrelationOp::Majority, 0.0);
    EXPECT_TRUE(maj.nextOutcome(ctx, rng)); // two of three taken
    BranchBehavior all = BranchBehavior::historyCorrelated(
        std::array{0u, 1u, 2u}, CorrelationOp::And, 0.0);
    EXPECT_FALSE(all.nextOutcome(ctx, rng)); // newest is not taken
    BranchBehavior all12 = BranchBehavior::historyCorrelated(
        std::array{1u, 2u}, CorrelationOp::And, 0.0);
    EXPECT_TRUE(all12.nextOutcome(ctx, rng));
}

TEST(HistoryCorrelatedTest, InvertFlips)
{
    WorkloadContext ctx;
    Rng rng(29);
    ctx.recordOutcome(true);
    BranchBehavior plain = BranchBehavior::historyCorrelated(
        std::array{0u}, CorrelationOp::Parity, 0.0, false);
    BranchBehavior inverted = BranchBehavior::historyCorrelated(
        std::array{0u}, CorrelationOp::Parity, 0.0, true);
    EXPECT_TRUE(plain.nextOutcome(ctx, rng));
    EXPECT_FALSE(inverted.nextOutcome(ctx, rng));
}

TEST(HistoryCorrelatedTest, NoiseFlipsAtConfiguredRate)
{
    WorkloadContext ctx;
    Rng rng(31);
    BranchBehavior noisy = BranchBehavior::historyCorrelated(
        std::array{0u}, CorrelationOp::Parity, 0.2);
    ctx.recordOutcome(true); // functional outcome always "taken"
    int flips = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        flips += !noisy.nextOutcome(ctx, rng);
    EXPECT_NEAR(static_cast<double>(flips) / n, 0.2, 0.01);
}

TEST(HistoryCorrelatedTest, RejectsDeepTapsAndBadNoise)
{
    EXPECT_THROW(BranchBehavior::historyCorrelated(
                     std::array{16u}, CorrelationOp::Parity, 0.0),
                 std::runtime_error);
    EXPECT_THROW(BranchBehavior::historyCorrelated(
                     {}, CorrelationOp::Parity, 0.0),
                 std::runtime_error);
    EXPECT_THROW(BranchBehavior::historyCorrelated(
                     std::array{0u}, CorrelationOp::Parity, 1.5),
                 std::runtime_error);
}

TEST(HistoryCorrelatedTest, RejectsMoreThanThreeTaps)
{
    EXPECT_THROW(BranchBehavior::historyCorrelated(
                     std::array{0u, 1u, 2u, 3u}, CorrelationOp::Parity,
                     0.0),
                 std::runtime_error);
}

TEST(ChainBehaviorTest, EchoesPastOutcome)
{
    WorkloadContext ctx;
    Rng rng(37);
    BranchBehavior chain = BranchBehavior::chain(1, false, 0.0);
    ctx.recordOutcome(true);
    ctx.recordOutcome(false); // depth 1 = second most recent = taken
    EXPECT_TRUE(chain.nextOutcome(ctx, rng));
    BranchBehavior inverted = BranchBehavior::chain(1, true, 0.0);
    EXPECT_FALSE(inverted.nextOutcome(ctx, rng));
}

TEST(ChainBehaviorTest, RejectsDeepChain)
{
    EXPECT_THROW(BranchBehavior::chain(16, false, 0.0), std::runtime_error);
}

} // namespace
} // namespace confsim
