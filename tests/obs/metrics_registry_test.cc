/** @file Unit tests for the metrics registry and ScopedTimer. */

#include "obs/metrics_registry.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace confsim {
namespace {

TEST(MetricsRegistryTest, CountersStartAtZeroAndAccumulate)
{
    MetricsRegistry registry;
    EXPECT_EQ(registry.counter("absent"), 0u);
    registry.increment("runs");
    registry.increment("runs");
    registry.increment("branches", 1000);
    EXPECT_EQ(registry.counter("runs"), 2u);
    EXPECT_EQ(registry.counter("branches"), 1000u);
}

TEST(MetricsRegistryTest, GaugesKeepLastValue)
{
    MetricsRegistry registry;
    EXPECT_EQ(registry.gauge("absent"), 0.0);
    registry.setGauge("rate", 0.25);
    registry.setGauge("rate", 0.5);
    EXPECT_EQ(registry.gauge("rate"), 0.5);
}

TEST(MetricsRegistryTest, ObserveFeedsRunningStats)
{
    MetricsRegistry registry;
    registry.observe("wall_ms", 1.0);
    registry.observe("wall_ms", 3.0);
    const RunningStats stats = registry.stats("wall_ms");
    EXPECT_EQ(stats.count(), 2u);
    EXPECT_DOUBLE_EQ(stats.mean(), 2.0);
    EXPECT_DOUBLE_EQ(stats.min(), 1.0);
    EXPECT_DOUBLE_EQ(stats.max(), 3.0);
}

TEST(MetricsRegistryTest, MergeStatsMatchesDirectObservation)
{
    MetricsRegistry direct;
    MetricsRegistry merged;
    RunningStats local;
    for (double v : {2.0, 4.0, 8.0, 16.0}) {
        direct.observe("ns", v);
        local.add(v);
    }
    merged.mergeStats("ns", local);
    EXPECT_EQ(merged.stats("ns").count(), direct.stats("ns").count());
    EXPECT_DOUBLE_EQ(merged.stats("ns").mean(),
                     direct.stats("ns").mean());
    EXPECT_DOUBLE_EQ(merged.stats("ns").variance(),
                     direct.stats("ns").variance());
}

TEST(MetricsRegistryTest, SnapshotIsNameSorted)
{
    MetricsRegistry registry;
    registry.increment("zeta");
    registry.increment("alpha");
    registry.setGauge("mid", 1.0);
    registry.observe("stat", 2.0);
    const MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "alpha");
    EXPECT_EQ(snap.counters[1].first, "zeta");
    ASSERT_EQ(snap.gauges.size(), 1u);
    ASSERT_EQ(snap.stats.size(), 1u);
}

TEST(MetricsRegistryTest, SnapshotSectionsAreByteWiseNameSorted)
{
    // Pins the ordering contract documented on snapshot(): every
    // section is sorted by name, ascending, byte-wise, regardless of
    // insertion order.
    MetricsRegistry registry;
    registry.increment("b.counter");
    registry.increment("B.counter");
    registry.setGauge("g2", 1.0);
    registry.setGauge("g10", 2.0);
    registry.observe("s.b", 1.0);
    registry.observe("s.a", 1.0);

    const MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "B.counter"); // 'B' < 'b'
    EXPECT_EQ(snap.counters[1].first, "b.counter");
    ASSERT_EQ(snap.gauges.size(), 2u);
    EXPECT_EQ(snap.gauges[0].first, "g10"); // byte-wise: '1' < '2'
    EXPECT_EQ(snap.gauges[1].first, "g2");
    ASSERT_EQ(snap.stats.size(), 2u);
    EXPECT_EQ(snap.stats[0].first, "s.a");
    EXPECT_EQ(snap.stats[1].first, "s.b");
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreNotLost)
{
    MetricsRegistry registry;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry] {
            for (int i = 0; i < kPerThread; ++i)
                registry.increment("shared");
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(registry.counter("shared"),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ScopedTimerTest, RecordsOneObservationOnScopeExit)
{
    MetricsRegistry registry;
    {
        ScopedTimer timer(&registry, "phase_ms");
    }
    EXPECT_EQ(registry.stats("phase_ms").count(), 1u);
    EXPECT_GE(registry.stats("phase_ms").min(), 0.0);
}

TEST(ScopedTimerTest, StopIsIdempotent)
{
    MetricsRegistry registry;
    ScopedTimer timer(&registry, "phase_ms");
    timer.stop();
    timer.stop();
    EXPECT_EQ(registry.stats("phase_ms").count(), 1u);
}

TEST(ScopedTimerTest, NullRegistryIsANoOp)
{
    ScopedTimer timer(nullptr, "ignored");
    EXPECT_GE(timer.stop(), 0.0);
}

} // namespace
} // namespace confsim
