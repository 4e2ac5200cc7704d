/**
 * @file
 * Integration test for execution-span tracing across a sweep pass: an
 * 8-configuration sweep with checkpointing must emit correctly nested
 * refill, replay and checkpoint spans on the one thread that runs the
 * pass, and the exported Chrome trace file must be balanced.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint_store.h"
#include "confidence/one_level.h"
#include "confidence/two_level.h"
#include "obs/span.h"
#include "predictor/gshare.h"
#include "sim/sweep_engine.h"
#include "workload/suite.h"

namespace confsim {
namespace {

PredictorFactory
testPredictor()
{
    return [] { return std::make_unique<GsharePredictor>(4096, 12); };
}

/** Eight small sweep configurations (the acceptance scenario). */
std::vector<SweepConfiguration>
eightConfigs()
{
    auto one = [](std::unique_ptr<ConfidenceEstimator> estimator) {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::move(estimator));
        return out;
    };
    std::vector<SweepConfiguration> configs;
    for (int i = 0; i < 4; ++i) {
        configs.push_back(
            {"resetting_" + std::to_string(i), testPredictor(),
             [one, i] {
                 return one(
                     std::make_unique<OneLevelCounterConfidence>(
                         IndexScheme::PcXorBhr, 256u << i,
                         CounterKind::Resetting, 16, 0));
             }});
        configs.push_back(
            {"two_level_" + std::to_string(i), testPredictor(),
             [one, i] {
                 return one(std::make_unique<TwoLevelConfidence>(
                     IndexScheme::Pc, 256u << i, 8,
                     SecondLevelIndex::CirXorPc, 8));
             }});
    }
    return configs;
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

TEST(SpanTraceIntegration, PipelinedSweepEmitsNestedNamedSpans)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        "span_trace_integration";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string trace_path = (dir / "trace.json").string();

    SpanTracerOptions span_options;
    span_options.path = trace_path;
    SpanTracer tracer(span_options);

    DriverOptions options;
    options.spans = &tracer;

    CheckpointStore store(dir.string(), "span-trace", 2);
    store.setSpanTracer(&tracer);
    SweepRunResult result;
    {
        SweepEngine engine(eightConfigs(), options);
        engine.checkpointEvery(15'000, &store);
        auto source = BenchmarkSuite::ibsSmall(60'000).makeGenerator(0);
        result = engine.run(*source);
    }

    ASSERT_EQ(result.perConfig.size(), 8u);
    ASSERT_GT(result.checkpointsWritten, 0u);

    // Replay-share accounting derived from the same run.
    EXPECT_GT(result.shardBusyFrac, 0.0);
    EXPECT_LE(result.shardBusyFrac, 1.0 + 1e-9);
    EXPECT_GT(result.decodeStallMs, 0.0);
    EXPECT_EQ(result.barrierWaitMs, 0.0);

    const auto events = tracer.snapshotEvents();
    ASSERT_FALSE(events.empty());

    // LIFO nesting with monotonic timestamps (the ring is far larger
    // than this run, so nothing was dropped), all on the calling
    // thread: the pass starts no other.
    std::vector<std::string> stack;
    std::uint64_t last_ts = 0;
    std::set<std::string> names;
    std::map<std::string, std::set<std::string>> parents;
    for (const auto &event : events) {
        EXPECT_EQ(event.tid, events.front().tid);
        EXPECT_GE(event.tsNs, last_ts);
        last_ts = event.tsNs;
        names.insert(event.name);
        EXPECT_NE(event.phase, 'C') << event.name;
        if (event.phase == 'B') {
            parents[event.name].insert(stack.empty() ? "" : stack.back());
            stack.push_back(event.name);
        } else if (event.phase == 'E') {
            ASSERT_FALSE(stack.empty())
                << "unmatched end of '" << event.name << "'";
            EXPECT_EQ(stack.back(), event.name) << "spans must close LIFO";
            stack.pop_back();
        }
    }
    EXPECT_TRUE(stack.empty()) << stack.size() << " spans left open";

    // Each stage fired: refill and replay alternate at the top level,
    // and the store's write nests inside the engine's checkpoint.
    using Parents = std::set<std::string>;
    EXPECT_EQ(parents["decode.refill"], Parents{""});
    EXPECT_EQ(parents["shard.replay"], Parents{""});
    EXPECT_EQ(parents["ckpt.write"], Parents{""});
    EXPECT_EQ(parents["ckpt.store_write"], Parents{"ckpt.write"});
    EXPECT_EQ(names, (std::set<std::string>{"ckpt.store_write",
                                             "ckpt.write", "decode.refill",
                                             "shard.replay"}));

    const auto summary = tracer.finish();
    EXPECT_EQ(summary.dropped, 0u);
    EXPECT_EQ(summary.threads, 1u);

    // The exported file is Chrome/Perfetto trace-event JSON with
    // process/thread metadata and balanced duration events.
    const std::string json = readWholeFile(trace_path);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"B\""),
              countOccurrences(json, "\"ph\":\"E\""));

    std::filesystem::remove_all(dir);
}

TEST(SpanTraceIntegration, TracingNeverChangesSweepResults)
{
    // Differential: the same sweep with and without a span tracer
    // attached must be bit-exact (the null-facade contract, end to
    // end).
    const auto run = [](SpanTracer *tracer) {
        DriverOptions options;
        options.spans = tracer;
        SweepEngine engine(eightConfigs(), options);
        auto source = BenchmarkSuite::ibsSmall(30'000).makeGenerator(0);
        return engine.run(*source);
    };

    const SweepRunResult plain = run(nullptr);
    SpanTracerOptions span_options;
    span_options.path =
        ::testing::TempDir() + "/confsim_span_differential.json";
    SweepRunResult traced;
    {
        SpanTracer tracer(span_options);
        traced = run(&tracer);
    }

    ASSERT_EQ(plain.perConfig.size(), traced.perConfig.size());
    for (std::size_t c = 0; c < plain.perConfig.size(); ++c) {
        SCOPED_TRACE("config " + std::to_string(c));
        EXPECT_EQ(plain.perConfig[c].branches,
                  traced.perConfig[c].branches);
        EXPECT_EQ(plain.perConfig[c].mispredicts,
                  traced.perConfig[c].mispredicts);
        const auto &eb = plain.perConfig[c].estimatorStats;
        const auto &ab = traced.perConfig[c].estimatorStats;
        ASSERT_EQ(eb.size(), ab.size());
        for (std::size_t e = 0; e < eb.size(); ++e) {
            ASSERT_EQ(eb[e].numBuckets(), ab[e].numBuckets());
            for (std::uint64_t b = 0; b < eb[e].numBuckets(); ++b) {
                EXPECT_EQ(eb[e][b].refs, ab[e][b].refs);
                EXPECT_EQ(eb[e][b].mispredicts, ab[e][b].mispredicts);
            }
        }
    }
    std::remove(span_options.path.c_str());
}

} // namespace
} // namespace confsim
