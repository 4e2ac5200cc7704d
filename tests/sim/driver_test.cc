/** @file Unit tests for the simulation driver. */

#include "sim/driver.h"

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "predictor/bimodal.h"
#include "support/static_predictor.h"
#include "trace/vector_trace_source.h"

namespace confsim {
namespace {

std::vector<BranchRecord>
repeated(std::uint64_t pc, const std::vector<bool> &outcomes)
{
    std::vector<BranchRecord> records;
    for (bool taken : outcomes)
        records.push_back({pc, pc + 16, taken, BranchType::Conditional});
    return records;
}

TEST(DriverTest, CountsBranchesAndMispredicts)
{
    // Static always-taken predictor on a known stream: misses =
    // not-taken outcomes.
    StaticPredictor pred(StaticPolicy::AlwaysTaken);
    VectorTraceSource source(
        repeated(0x1000, {true, false, true, false, false}));
    SimulationDriver driver(pred, {});
    const auto result = driver.run(source);
    EXPECT_EQ(result.branches, 5u);
    EXPECT_EQ(result.mispredicts, 3u);
    EXPECT_DOUBLE_EQ(result.mispredictRate(), 0.6);
}

TEST(DriverTest, SkipsNonConditionalRecords)
{
    StaticPredictor pred(StaticPolicy::AlwaysTaken);
    VectorTraceSource source({
        {0x100, 0x200, true, BranchType::Call},
        {0x104, 0x200, true, BranchType::Conditional},
        {0x108, 0x200, true, BranchType::Return},
    });
    SimulationDriver driver(pred, {});
    const auto result = driver.run(source);
    EXPECT_EQ(result.branches, 1u);
}

TEST(DriverTest, EstimatorStatsMatchPredictorAccuracy)
{
    StaticPredictor pred(StaticPolicy::AlwaysTaken);
    OneLevelCounterConfidence est(IndexScheme::Pc, 64,
                                  CounterKind::Resetting, 4, 0);
    VectorTraceSource source(
        repeated(0x1000, {true, true, false, true, true}));
    SimulationDriver driver(pred, {&est});
    const auto result = driver.run(source);
    ASSERT_EQ(result.estimatorStats.size(), 1u);
    const BucketStats &stats = result.estimatorStats[0];
    EXPECT_DOUBLE_EQ(stats.totalRefs(), 5.0);
    EXPECT_DOUBLE_EQ(stats.totalMispredicts(), 1.0);
    // Bucket sequence: counter goes 0,1,2,(miss->0),1 — so buckets
    // read are 0,1,2,0(after reset? no: read before update).
    // reads: 0 (then +1), 1 (then +1), 2 (miss, then reset), 0, 1.
    EXPECT_DOUBLE_EQ(stats[0].refs, 2.0);
    EXPECT_DOUBLE_EQ(stats[1].refs, 2.0);
    EXPECT_DOUBLE_EQ(stats[2].refs, 1.0);
    EXPECT_DOUBLE_EQ(stats[2].mispredicts, 1.0);
}

TEST(DriverTest, HandsOverPackedBucketStats)
{
    StaticPredictor pred(StaticPolicy::AlwaysTaken);
    OneLevelCounterConfidence est(IndexScheme::Pc, 64,
                                  CounterKind::Resetting, 4, 0);
    VectorTraceSource source(
        repeated(0x1000, {true, true, false, true, true}));
    SimulationDriver driver(pred, {&est});
    const auto result = driver.run(source);
    ASSERT_EQ(result.estimatorStats.size(), 1u);
    EXPECT_TRUE(result.estimatorStats[0].packed());
    EXPECT_EQ(result.estimatorStats[0].nonEmpty().size(), 3u);
}

TEST(DriverTest, StaticProfileCollectsPerPcCounts)
{
    StaticPredictor pred(StaticPolicy::AlwaysTaken);
    DriverOptions options;
    options.profileStatic = true;
    std::vector<BranchRecord> records =
        repeated(0x1000, {true, false, true});
    const auto more = repeated(0x2000, {false, false});
    records.insert(records.end(), more.begin(), more.end());
    VectorTraceSource source(records);
    SimulationDriver driver(pred, {}, options);
    const auto result = driver.run(source);
    EXPECT_EQ(result.staticProfile.size(), 2u);
    EXPECT_EQ(result.staticProfile.entries().at(0x1000).executions, 3u);
    EXPECT_EQ(result.staticProfile.entries().at(0x1000).mispredictions,
              1u);
    EXPECT_EQ(result.staticProfile.entries().at(0x2000).mispredictions,
              2u);
}

TEST(DriverTest, ContextCarriesArchitecturalHistory)
{
    // With BHR indexing and a width-4 BHR, two branches with the same
    // PC but different preceding outcomes hit different CT entries.
    // Construct a stream where the second visit to PC 0x1000 has
    // different history from the first and verify the estimator's
    // bucket statistics spread across entries.
    StaticPredictor pred(StaticPolicy::AlwaysTaken);
    OneLevelCirConfidence est(IndexScheme::Bhr, 16, 4,
                              CirReduction::RawPattern, CtInit::Zeros);
    std::vector<BranchRecord> records;
    // First: history 0000 when reaching 0x1000 (all prior taken=F).
    records.push_back({0x2000, 0, false, BranchType::Conditional});
    records.push_back({0x1000, 0, false, BranchType::Conditional});
    // Then: history contains a taken.
    records.push_back({0x2000, 0, true, BranchType::Conditional});
    records.push_back({0x1000, 0, false, BranchType::Conditional});
    VectorTraceSource source(records);
    SimulationDriver driver(pred, {&est});
    const auto result = driver.run(source);
    // All four references landed somewhere; the two 0x1000 visits
    // were recorded against different CIR-table entries, so at least
    // 2 distinct buckets were observed in total.
    EXPECT_DOUBLE_EQ(result.estimatorStats[0].totalRefs(), 4.0);
}

TEST(DriverTest, MultipleEstimatorsRunIndependently)
{
    BimodalPredictor pred(256);
    OneLevelCounterConfidence sat(IndexScheme::Pc, 64,
                                  CounterKind::Saturating, 16, 0);
    OneLevelCounterConfidence reset(IndexScheme::Pc, 64,
                                    CounterKind::Resetting, 16, 0);
    VectorTraceSource source(repeated(
        0x1000, std::vector<bool>(50, true)));
    SimulationDriver driver(pred, {&sat, &reset});
    const auto result = driver.run(source);
    ASSERT_EQ(result.estimatorStats.size(), 2u);
    EXPECT_DOUBLE_EQ(result.estimatorStats[0].totalRefs(), 50.0);
    EXPECT_DOUBLE_EQ(result.estimatorStats[1].totalRefs(), 50.0);
}


TEST(DriverTest, WarmupExcludesEarlyBranchesFromStats)
{
    StaticPredictor pred(StaticPolicy::AlwaysTaken);
    DriverOptions options;
    options.warmupBranches = 3;
    // 5 branches: first 3 (T, N, T) are warmup; recorded: N, N.
    VectorTraceSource source(
        repeated(0x1000, {true, false, true, false, false}));
    SimulationDriver driver(pred, {}, options);
    const auto result = driver.run(source);
    EXPECT_EQ(result.branches, 2u);
    EXPECT_EQ(result.mispredicts, 2u);
}

TEST(DriverTest, WarmupStillTrainsStructures)
{
    // The predictor must have learned during warmup: a bimodal
    // predictor sees 10 not-taken warmup branches, so the recorded
    // region is predicted correctly from its first branch.
    BimodalPredictor pred(256);
    DriverOptions options;
    options.warmupBranches = 10;
    VectorTraceSource source(
        repeated(0x1000, std::vector<bool>(20, false)));
    SimulationDriver driver(pred, {}, options);
    const auto result = driver.run(source);
    EXPECT_EQ(result.branches, 10u);
    EXPECT_EQ(result.mispredicts, 0u);
}

TEST(DriverTest, ContextSwitchFlushesPredictor)
{
    // A bimodal predictor fully trained to not-taken would predict the
    // stream perfectly; flushing every 4 branches forces it back to
    // weakly-taken, so every post-switch window restarts with misses.
    BimodalPredictor pred(256);
    DriverOptions options;
    options.contextSwitchInterval = 4;
    VectorTraceSource source(
        repeated(0x1000, std::vector<bool>(40, false)));
    SimulationDriver driver(pred, {}, options);
    const auto result = driver.run(source);

    BimodalPredictor pred2(256);
    VectorTraceSource source2(
        repeated(0x1000, std::vector<bool>(40, false)));
    SimulationDriver undisturbed(pred2, {});
    const auto baseline = undisturbed.run(source2);

    EXPECT_GT(result.mispredicts, baseline.mispredicts);
    // Weakly-taken init mispredicts the first not-taken branch of
    // every 4-branch window: 10 windows.
    EXPECT_EQ(result.mispredicts, 10u);
}

TEST(DriverTest, ContextSwitchFlushesEstimators)
{
    StaticPredictor pred(StaticPolicy::AlwaysTaken);
    OneLevelCounterConfidence est(IndexScheme::Pc, 64,
                                  CounterKind::Resetting, 16, 0);
    DriverOptions options;
    options.contextSwitchInterval = 8;
    options.flushPredictorOnSwitch = false;
    VectorTraceSource source(
        repeated(0x1000, std::vector<bool>(32, true)));
    SimulationDriver driver(pred, {&est}, options);
    const auto result = driver.run(source);
    // The counter restarts at 0 after every 8 branches, so no bucket
    // beyond 7 is ever read.
    const BucketStats &stats = result.estimatorStats[0];
    for (std::uint64_t b = 8; b <= 16; ++b)
        EXPECT_DOUBLE_EQ(stats[b].refs, 0.0) << b;
    EXPECT_DOUBLE_EQ(stats[0].refs, 4.0); // one per window
}

TEST(DriverTest, SelectiveFlushLeavesEstimatorsAlone)
{
    StaticPredictor pred(StaticPolicy::AlwaysTaken);
    OneLevelCounterConfidence est(IndexScheme::Pc, 64,
                                  CounterKind::Resetting, 16, 0);
    DriverOptions options;
    options.contextSwitchInterval = 8;
    options.flushEstimatorsOnSwitch = false;
    VectorTraceSource source(
        repeated(0x1000, std::vector<bool>(32, true)));
    SimulationDriver driver(pred, {&est}, options);
    const auto result = driver.run(source);
    // Without estimator flushes the counter keeps climbing past 8.
    const BucketStats &stats = result.estimatorStats[0];
    EXPECT_GT(stats[10].refs, 0.0);
}

} // namespace
} // namespace confsim
