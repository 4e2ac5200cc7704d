/** @file Tests for the execution-span tracer (obs/span.h). */

#include "obs/span.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/counting_new.h"

namespace confsim {
namespace {

std::string
tempTracePath(const char *name)
{
    return ::testing::TempDir() + "/confsim_span_" + name + ".json";
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::size_t
countOccurrences(const std::string &haystack, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

TEST(SpanTest, DisabledTracerAllocatesNothing)
{
    // The null-facade contract quoted in span.h: a ScopedSpan over a
    // null tracer must not allocate (and, structurally, cannot read
    // the clock — there is no tracer to read it from).
    SpanTracer *tracer = nullptr;
    const std::uint64_t before = allocationCount();
    for (int i = 0; i < 10000; ++i) {
        ScopedSpan span(tracer, "disabled.span");
    }
    const std::uint64_t after = allocationCount();
    EXPECT_EQ(before, after);
}

TEST(SpanTest, RecordsNestedSpansInThreadOrder)
{
    SpanTracerOptions options;
    options.path = tempTracePath("nested");
    SpanTracer tracer(options);
    {
        ScopedSpan outer(&tracer, "outer");
        ScopedSpan inner(&tracer, "inner");
    }
    const auto events = tracer.snapshotEvents();
    ASSERT_EQ(events.size(), 4u);
    // LIFO nesting on one thread: B outer, B inner, E inner, E outer.
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[0].phase, 'B');
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[1].phase, 'B');
    EXPECT_EQ(events[2].name, "inner");
    EXPECT_EQ(events[2].phase, 'E');
    EXPECT_EQ(events[3].name, "outer");
    EXPECT_EQ(events[3].phase, 'E');
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].tsNs, events[i - 1].tsNs);
    std::remove(options.path.c_str());
}

TEST(SpanTest, RingWraparoundKeepsNewestAndCountsDropped)
{
    SpanTracerOptions options;
    options.path = tempTracePath("wrap");
    options.ringCapacity = 8;
    const int kSpans = 100; // 200 events >> capacity 8
    std::uint64_t dropped;
    std::uint64_t events_retained;
    {
        SpanTracer tracer(options);
        for (int i = 0; i < kSpans; ++i) {
            ScopedSpan span(&tracer, "wrapped");
        }
        const auto events = tracer.snapshotEvents();
        EXPECT_LE(events.size(), 8u);
        ASSERT_FALSE(events.empty());
        // Oldest events are overwritten: the retained tail must end
        // with the final end event.
        EXPECT_EQ(events.back().phase, 'E');
        const auto summary = tracer.finish();
        dropped = summary.dropped;
        events_retained = summary.events;
        EXPECT_EQ(summary.path, options.path);
    }
    // head = 200 events ever pushed, capacity 8 retained.
    EXPECT_EQ(dropped, static_cast<std::uint64_t>(2 * kSpans) - 8);
    EXPECT_GE(events_retained, 1u);
    EXPECT_LE(events_retained, 8u);

    // The exporter repairs begin/end balance across the dropped
    // prefix: the emitted JSON must have matching B and E counts.
    const std::string json = readWholeFile(options.path);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"B\""),
              countOccurrences(json, "\"ph\":\"E\""));
    std::remove(options.path.c_str());
}

TEST(SpanTest, CounterAndThreadNameAreExported)
{
    SpanTracerOptions options;
    options.path = tempTracePath("counter");
    SpanTracer tracer(options);
    tracer.setCurrentThreadName("first-name");
    tracer.setCurrentThreadName("second-name"); // first name wins
    tracer.counter("ring.depth", 7);
    const auto events = tracer.snapshotEvents();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].phase, 'C');
    EXPECT_EQ(events[0].name, "ring.depth");
    EXPECT_EQ(events[0].value, 7u);
    EXPECT_EQ(events[0].threadName, "first-name");
    tracer.finish();
    const std::string json = readWholeFile(options.path);
    EXPECT_NE(json.find("\"first-name\""), std::string::npos);
    EXPECT_EQ(json.find("\"second-name\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("ring.depth"), std::string::npos);
    std::remove(options.path.c_str());
}

TEST(SpanTest, SummaryAggregatesPerNameAndIsIdempotent)
{
    SpanTracerOptions options;
    options.path = tempTracePath("summary");
    SpanTracer tracer(options);
    {
        ScopedSpan a1(&tracer, "alpha");
    }
    {
        ScopedSpan a2(&tracer, "alpha");
    }
    {
        ScopedSpan b(&tracer, "beta");
    }
    const auto summary = tracer.finish();
    EXPECT_EQ(summary.threads, 1u);
    EXPECT_EQ(summary.events, 6u);
    EXPECT_EQ(summary.dropped, 0u);
    ASSERT_EQ(summary.spans.size(), 2u);
    // Name-sorted aggregates.
    EXPECT_EQ(summary.spans[0].name, "alpha");
    EXPECT_EQ(summary.spans[0].count, 2u);
    EXPECT_GE(summary.spans[0].totalNs, 0.0);
    EXPECT_EQ(summary.spans[1].name, "beta");
    EXPECT_EQ(summary.spans[1].count, 1u);

    // finish() is idempotent: the second call returns the first
    // summary without rewriting the file.
    const auto again = tracer.finish();
    EXPECT_EQ(again.events, summary.events);
    EXPECT_EQ(again.spans.size(), summary.spans.size());
    std::remove(options.path.c_str());
}

TEST(SpanTest, TracksEveryEmittingThread)
{
    SpanTracerOptions options;
    options.path = tempTracePath("threads");
    SpanTracer tracer(options);
    std::vector<std::thread> workers;
    for (int t = 0; t < 3; ++t) {
        workers.emplace_back([&tracer] {
            tracer.setCurrentThreadName("worker");
            ScopedSpan span(&tracer, "work");
        });
    }
    for (auto &worker : workers)
        worker.join();
    EXPECT_EQ(tracer.threadsSeen(), 3u);
    const auto summary = tracer.finish();
    EXPECT_EQ(summary.threads, 3u);
    ASSERT_EQ(summary.spans.size(), 1u);
    EXPECT_EQ(summary.spans[0].count, 3u);
    std::remove(options.path.c_str());
}

TEST(SpanTest, LongNamesTruncateToMaxName)
{
    SpanTracerOptions options;
    options.path = tempTracePath("truncate");
    SpanTracer tracer(options);
    const std::string longName(2 * SpanTracer::kMaxName, 'x');
    {
        ScopedSpan span(&tracer, longName.c_str());
    }
    const auto events = tracer.snapshotEvents();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].name.size(), SpanTracer::kMaxName);
    EXPECT_EQ(events[0].name,
              longName.substr(0, SpanTracer::kMaxName));
    std::remove(options.path.c_str());
}

} // namespace
} // namespace confsim
