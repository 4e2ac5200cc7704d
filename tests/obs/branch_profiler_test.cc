/** @file Tests for per-branch attribution (obs/branch_profiler.h). */

#include "obs/branch_profiler.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/telemetry.h"

namespace confsim {
namespace {

std::vector<BranchProfileEstimatorInfo>
oneOrderedEstimator(std::size_t buckets = 16)
{
    return {{"est-ordered", buckets, true}};
}

/** Feed one retired branch through the profile. */
void
feed(BranchProfile *profile, std::uint64_t pc, std::uint64_t bucket,
     bool correct)
{
    profile->onBucket(0, bucket, correct);
    profile->onBranch(pc, !correct);
}

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

TEST(BranchProfileTest, DisabledUntilConfigured)
{
    BranchProfile profile;
    EXPECT_FALSE(profile.enabled());
    profile.configure(BranchProfileOptions{}, oneOrderedEstimator());
    EXPECT_TRUE(profile.enabled());
}

TEST(BranchProfileTest, TracksPerPcTotals)
{
    BranchProfile profile;
    profile.configure(BranchProfileOptions{}, oneOrderedEstimator());
    feed(&profile, 0x100, 15, true);
    feed(&profile, 0x100, 3, false);
    feed(&profile, 0x200, 0, false);

    EXPECT_EQ(profile.totalExecutions(), 3u);
    EXPECT_EQ(profile.totalMispredictions(), 2u);
    ASSERT_EQ(profile.entries().size(), 2u);
    const auto &hot = profile.entries().at(0x100);
    EXPECT_EQ(hot.executions, 2u);
    EXPECT_EQ(hot.mispredictions, 1u);
    // Bucket 15 is the saturated (high-confidence) bucket; buckets 3
    // and 0 are below saturation, hence low-confidence.
    EXPECT_EQ(hot.lowConfidence, 1u);
    const auto &cold = profile.entries().at(0x200);
    EXPECT_EQ(cold.executions, 1u);
    EXPECT_EQ(cold.lowConfidence, 1u);
}

TEST(BranchProfileTest, EvictionKeepsTotalsExact)
{
    BranchProfileOptions options;
    options.capacity = 8;
    BranchProfile profile;
    profile.configure(options, oneOrderedEstimator());

    // 100 distinct PCs, every third one mispredicted: far over
    // capacity, so heavy-hitter eviction must trigger.
    const std::uint64_t kPcs = 100;
    std::uint64_t fed_mispredicts = 0;
    for (std::uint64_t pc = 0; pc < kPcs; ++pc) {
        const bool correct = pc % 3 != 0;
        fed_mispredicts += correct ? 0 : 1;
        feed(&profile, 0x1000 + pc, 5, correct);
    }

    EXPECT_LE(profile.entries().size(), options.capacity);
    EXPECT_GT(profile.evictedPcs(), 0u);
    EXPECT_EQ(profile.entries().size() + profile.evictedPcs(), kPcs);

    // The acceptance invariant: evicted counts are aggregated, never
    // discarded, so grand totals equal exactly what was fed.
    EXPECT_EQ(profile.totalExecutions(), kPcs);
    EXPECT_EQ(profile.totalMispredictions(), fed_mispredicts);
    std::uint64_t tracked_exec = 0;
    std::uint64_t tracked_mis = 0;
    for (const auto &entry : profile.entries()) {
        tracked_exec += entry.second.executions;
        tracked_mis += entry.second.mispredictions;
    }
    EXPECT_EQ(tracked_exec + profile.evicted().executions, kPcs);
    EXPECT_EQ(tracked_mis + profile.evicted().mispredictions,
              fed_mispredicts);
}

TEST(BranchProfileTest, TopByMispredictionsOrdersWorstFirst)
{
    BranchProfile profile;
    profile.configure(BranchProfileOptions{}, oneOrderedEstimator());
    // pc 0x30: 3 mispredicts; 0x10: 1; 0x20 and 0x40: 2 each (the tie
    // breaks by ascending PC for determinism).
    for (int i = 0; i < 3; ++i)
        feed(&profile, 0x30, 0, false);
    feed(&profile, 0x10, 0, false);
    for (int i = 0; i < 2; ++i)
        feed(&profile, 0x40, 0, false);
    for (int i = 0; i < 2; ++i)
        feed(&profile, 0x20, 0, false);

    const auto top = profile.topByMispredictions(3);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].first, 0x30u);
    EXPECT_EQ(top[1].first, 0x20u);
    EXPECT_EQ(top[2].first, 0x40u);
    EXPECT_EQ(profile.topByMispredictions(100).size(), 4u);
}

TEST(BranchProfileTest, CalibrationBinsMapConfidenceToAccuracy)
{
    BranchProfileOptions options;
    options.reliabilityBins = 10;
    BranchProfile profile;
    // 11 buckets so bucket b has estimated confidence b/10.
    profile.configure(options, oneOrderedEstimator(11));

    // Bucket 10 (confidence 1.0) twice correct -> last bin.
    feed(&profile, 0x1, 10, true);
    feed(&profile, 0x1, 10, true);
    // Bucket 5 (confidence 0.5) one correct, one wrong -> bin 5.
    feed(&profile, 0x1, 5, true);
    feed(&profile, 0x1, 5, false);

    const auto &cells = profile.calibration(0);
    ASSERT_EQ(cells.size(), 10u);
    EXPECT_EQ(cells[9].predictions, 2u);
    EXPECT_EQ(cells[9].correct, 2u);
    EXPECT_DOUBLE_EQ(cells[9].accuracy(), 1.0);
    EXPECT_DOUBLE_EQ(cells[9].meanConfidence(), 1.0);
    EXPECT_EQ(cells[5].predictions, 2u);
    EXPECT_EQ(cells[5].correct, 1u);
    EXPECT_DOUBLE_EQ(cells[5].accuracy(), 0.5);
    EXPECT_DOUBLE_EQ(cells[5].meanConfidence(), 0.5);
}

TEST(BranchProfileTest, UnorderedEstimatorGetsPerBucketCells)
{
    BranchProfile profile;
    profile.configure(BranchProfileOptions{},
                      {{"est-unordered", 4, false}});
    feed(&profile, 0x1, 2, true);
    feed(&profile, 0x1, 0, false);
    const auto &cells = profile.calibration(0);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[2].predictions, 1u);
    EXPECT_EQ(cells[0].predictions, 1u);
    // Unordered bucket 0 is the low-confidence marker.
    EXPECT_EQ(profile.entries().at(0x1).lowConfidence, 1u);
}

TEST(BranchProfileTest, MergeFromTagsPcsAndAdoptsShape)
{
    BranchProfile source;
    source.configure(BranchProfileOptions{}, oneOrderedEstimator());
    feed(&source, 0x100, 0, false);
    feed(&source, 0x100, 15, true);

    BranchProfile merged; // unconfigured: adopts source's shape
    const std::uint64_t tag = std::uint64_t{3} << 48;
    merged.mergeFrom(source, tag);
    merged.mergeFrom(source, std::uint64_t{4} << 48);

    EXPECT_TRUE(merged.enabled());
    ASSERT_EQ(merged.entries().size(), 2u);
    const auto &entry = merged.entries().at(tag | 0x100);
    EXPECT_EQ(entry.executions, 2u);
    EXPECT_EQ(entry.mispredictions, 1u);
    EXPECT_EQ(merged.totalExecutions(), 4u);
    EXPECT_EQ(merged.totalMispredictions(), 2u);
    // Calibration cells merge bin-wise.
    EXPECT_EQ(merged.calibration(0)[0].predictions, 2u);
}

TEST(BranchProfileTest, CsvExportEndsWithExactTotalRow)
{
    BranchProfile profile;
    profile.configure(BranchProfileOptions{}, oneOrderedEstimator());
    feed(&profile, 0xAB, 0, false);
    feed(&profile, 0xCD, 15, true);

    const std::string path =
        ::testing::TempDir() + "/confsim_profile_total.csv";
    profile.writeCsv(path, {});
    const auto lines = readLines(path);
    ASSERT_GE(lines.size(), 2u);
    EXPECT_EQ(lines[0].rfind("kind,benchmark,pc,estimator,bin,", 0),
              0u);
    // branch rows worst-first: 0xab (1 mispredict) before 0xcd (0).
    EXPECT_EQ(lines[1].rfind("branch,,0xab,", 0), 0u);
    EXPECT_EQ(lines[2].rfind("branch,,0xcd,", 0), 0u);
    const std::string &total = lines.back();
    EXPECT_EQ(total.rfind("total,", 0), 0u);
    EXPECT_NE(total.find(",2,1,"), std::string::npos)
        << "total row must carry the exact run aggregates: " << total;
    std::remove(path.c_str());
}

TEST(BranchProfileTest, PublishWritesFileAndEmitsEvent)
{
    BranchProfile profile;
    profile.configure(BranchProfileOptions{}, oneOrderedEstimator());
    feed(&profile, 0xEE, 0, false);

    const std::string csv_path =
        ::testing::TempDir() + "/confsim_profile_publish.csv";
    const std::string jsonl_path =
        ::testing::TempDir() + "/confsim_profile_publish.jsonl";
    const std::string telemetry_path =
        ::testing::TempDir() + "/confsim_profile_telemetry.jsonl";

    TelemetryOptions telemetry_options;
    telemetry_options.jsonlPath = telemetry_path;
    auto telemetry = Telemetry::fromOptions(telemetry_options);
    ASSERT_NE(telemetry, nullptr);
    telemetry->setManifest(RunManifest::withBuildInfo());

    // Format dispatch on the path suffix; empty path is a no-op.
    publishBranchProfile(profile, "", {}, telemetry.get());
    publishBranchProfile(profile, csv_path, {}, telemetry.get());
    publishBranchProfile(profile, jsonl_path, {}, telemetry.get());
    telemetry.reset();

    const auto csv = readLines(csv_path);
    ASSERT_FALSE(csv.empty());
    EXPECT_EQ(csv[0].rfind("kind,", 0), 0u);
    const auto jsonl = readLines(jsonl_path);
    ASSERT_FALSE(jsonl.empty());
    EXPECT_EQ(jsonl[0].rfind("{\"type\":\"branch\"", 0), 0u);

    std::size_t written_events = 0;
    for (const auto &line : readLines(telemetry_path))
        if (line.find("branch_profile_written") != std::string::npos)
            ++written_events;
    EXPECT_EQ(written_events, 2u) << "empty path must not emit";

    std::remove(csv_path.c_str());
    std::remove(jsonl_path.c_str());
    std::remove(telemetry_path.c_str());
}

} // namespace
} // namespace confsim
