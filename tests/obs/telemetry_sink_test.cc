/** @file Tests for telemetry sinks, events, and the Telemetry context. */

#include "obs/telemetry.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/event.h"
#include "obs/run_manifest.h"
#include "predictor/gshare.h"
#include "sim/suite_runner.h"

namespace confsim {
namespace {

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

class SinkFileTest : public ::testing::Test
{
  protected:
    std::string
    tempPath(const std::string &suffix)
    {
        const std::string path =
            ::testing::TempDir() + "/confsim_obs_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name() +
            suffix;
        paths_.push_back(path);
        return path;
    }

    void
    TearDown() override
    {
        for (const auto &path : paths_)
            std::remove(path.c_str());
    }

  private:
    std::vector<std::string> paths_;
};

RunManifest
sampleManifest()
{
    RunManifest manifest = RunManifest::withBuildInfo();
    manifest.tool = "sink_test";
    manifest.suite = "single";
    ManifestBenchmark bench;
    bench.name = "jpeg";
    bench.seed = 13;
    bench.branches = 1000;
    bench.traceChecksum = 0xDEADBEEF;
    manifest.benchmarks.push_back(bench);
    manifest.predictor = "gshare-test";
    manifest.estimators = {"est-a", "est-b"};
    return manifest;
}

TEST(TelemetryEventTest, ToJsonQuotesStringsOnly)
{
    TelemetryEvent event(
        "demo", {field("name", "va\"lue"), field("n", std::uint64_t{7}),
                 field("x", 0.5), field("ok", true)});
    event.tMs = 1.5;
    EXPECT_EQ(event.toJson(),
              "{\"type\":\"demo\",\"t_ms\":1.5,\"name\":\"va\\\"lue\","
              "\"n\":7,\"x\":0.5,\"ok\":true}");
}

TEST(TelemetryEventTest, FieldValueLookup)
{
    const TelemetryEvent event("demo", {field("a", "x")});
    EXPECT_EQ(event.fieldValue("a"), "x");
    EXPECT_EQ(event.fieldValue("missing"), "");
}

TEST(TelemetryTest, FromOptionsIsNullWhenNoSinkEnabled)
{
    EXPECT_EQ(Telemetry::fromOptions(TelemetryOptions{}), nullptr);
}

TEST_F(SinkFileTest, JsonlStreamIsManifestFirstThenEvents)
{
    const std::string path = tempPath(".jsonl");
    {
        TelemetryOptions options;
        options.jsonlPath = path;
        const auto telemetry = Telemetry::fromOptions(options);
        ASSERT_NE(telemetry, nullptr);
        telemetry->setManifest(sampleManifest());
        telemetry->emit(TelemetryEvent(events::kBenchmarkFinished,
                                       {field("benchmark", "jpeg")}));
    } // destructor emits metrics_snapshot and flushes

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("\"type\":\"manifest\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"schema\":\"confsim-telemetry-v1\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"trace_checksum\":3735928559"),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"type\":\"benchmark_finished\""),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"benchmark\":\"jpeg\""),
              std::string::npos);
    EXPECT_NE(lines[2].find("\"type\":\"metrics_snapshot\""),
              std::string::npos);
}

TEST_F(SinkFileTest, ManifestIsWrittenOnlyOnce)
{
    const std::string path = tempPath(".jsonl");
    {
        TelemetryOptions options;
        options.jsonlPath = path;
        Telemetry telemetry(options);
        telemetry.setManifest(sampleManifest());
        telemetry.setManifest(sampleManifest());
        telemetry.finish();
    }
    const auto lines = readLines(path);
    std::size_t manifests = 0;
    for (const auto &line : lines) {
        if (line.find("\"type\":\"manifest\"") != std::string::npos)
            ++manifests;
    }
    EXPECT_EQ(manifests, 1u);
}

TEST_F(SinkFileTest, FinishSnapshotCarriesRegistryMetrics)
{
    const std::string path = tempPath(".jsonl");
    {
        TelemetryOptions options;
        options.jsonlPath = path;
        Telemetry telemetry(options);
        telemetry.setManifest(sampleManifest());
        telemetry.registry().increment("demo.count", 42);
        telemetry.registry().observe("demo.ms", 2.0);
        telemetry.finish();
        telemetry.finish(); // idempotent
    }
    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"type\":\"manifest\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"type\":\"metrics_snapshot\""),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"demo.count\":42"), std::string::npos);
    EXPECT_NE(lines[1].find("\"demo.ms.mean\":2"), std::string::npos);
}

TEST_F(SinkFileTest, NoManifestPublishesNoFile)
{
    // A run that fails before it sets its manifest (say, on a refused
    // flag) has no telemetry file to publish: a JSONL stream whose
    // first record is not the manifest would fail schema validation.
    const std::string path = tempPath(".jsonl");
    {
        TelemetryOptions options;
        options.jsonlPath = path;
        Telemetry telemetry(options);
        telemetry.emit(TelemetryEvent(events::kBenchmarkFinished,
                                      {field("benchmark", "jpeg")}));
        telemetry.registry().increment("demo.count", 42);
    } // the destructor finishes
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(StderrProgressSinkTest, CountRestartsAtEachSuiteRun)
{
    // A harness may run several suites in one process: each run's
    // heartbeat counts its own benchmarks against its own size, not
    // the manifest's (one benchmark here).
    ::testing::internal::CaptureStderr();
    {
        TelemetryOptions options;
        options.progress = true;
        Telemetry telemetry(options);
        telemetry.setManifest(sampleManifest());
        DriverOptions driver;
        driver.telemetry = &telemetry;
        const SuiteRunner runner(BenchmarkSuite::ibsSmall(2000));
        for (int run = 0; run < 2; ++run) {
            (void)runner.run(
                [] { return std::make_unique<GsharePredictor>(4096, 12); },
                [] {
                    return std::vector<
                        std::unique_ptr<ConfidenceEstimator>>{};
                },
                driver);
        }
    }
    // Heartbeat lines read "[confsim] <done>/<total> benchmarks done".
    std::istringstream err(::testing::internal::GetCapturedStderr());
    std::string counts;
    for (std::string line; std::getline(err, line);) {
        const std::size_t end = line.find(" benchmarks done");
        if (end != std::string::npos)
            counts += line.substr(10, end - 10) + " ";
    }
    EXPECT_EQ(counts, "1/3 2/3 3/3 1/3 2/3 3/3 ");
}

TEST(RunManifestTest, BuildInfoIsPopulated)
{
    const RunManifest manifest = RunManifest::withBuildInfo();
    EXPECT_FALSE(manifest.compiler.empty());
    EXPECT_FALSE(manifest.cxxStandard.empty());
    EXPECT_EQ(manifest.schema, "confsim-telemetry-v1");
}

} // namespace
} // namespace confsim
