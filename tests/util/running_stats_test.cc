/** @file Unit tests for streaming statistics. */

#include "util/running_stats.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace confsim {
namespace {

TEST(RunningStatsTest, EmptyIsZeroed)
{
    RunningStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, KnownSmallSample)
{
    RunningStats stats;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stats.add(v);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 4.0); // classic example
    EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
    EXPECT_NEAR(stats.sampleVariance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSequential)
{
    Rng rng(4242);
    RunningStats whole;
    RunningStats left;
    RunningStats right;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.nextDouble() * 10.0 - 3.0;
        whole.add(v);
        (i % 2 == 0 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStatsTest, ShardedMergeMatchesSingleStream)
{
    // The parallel-reduction pattern the telemetry layer relies on:
    // many per-worker accumulators folded pairwise in arbitrary order
    // must equal one sequential stream.
    constexpr int kShards = 7;
    Rng rng(99);
    RunningStats whole;
    RunningStats shards[kShards];
    for (int i = 0; i < 35000; ++i) {
        const double v = rng.nextDouble() * 1000.0 - 250.0;
        whole.add(v);
        shards[i % kShards].add(v);
    }
    RunningStats merged;
    for (int s = kShards - 1; s >= 0; --s)
        merged.merge(shards[s]);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(merged.variance(), whole.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(merged.min(), whole.min());
    EXPECT_DOUBLE_EQ(merged.max(), whole.max());
}

TEST(RunningStatsTest, MergeWithEmptySides)
{
    RunningStats a;
    RunningStats b;
    b.add(3.0);
    a.merge(b); // empty <- nonempty
    EXPECT_EQ(a.count(), 1u);
    RunningStats c;
    a.merge(c); // nonempty <- empty
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
}

} // namespace
} // namespace confsim
