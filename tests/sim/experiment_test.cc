/** @file Unit tests for experiment plumbing (configs, curves, CSV). */

#include "sim/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.h"

namespace confsim {
namespace {

TEST(ExperimentEnvTest, CliDefaultsAndFast)
{
    ExperimentEnv env;
    const char *argv[] = {"bench"};
    ASSERT_TRUE(ExperimentEnv::fromCli(1, argv, "test", env));
    EXPECT_EQ(env.branchesPerBenchmark, 2'000'000u);
    EXPECT_TRUE(env.fullSuite);

    ExperimentEnv fast;
    const char *argv2[] = {"bench", "--fast"};
    ASSERT_TRUE(ExperimentEnv::fromCli(2, argv2, "test", fast));
    EXPECT_FALSE(fast.fullSuite);
    EXPECT_LE(fast.branchesPerBenchmark, 200'000u);
}

TEST(ExperimentEnvTest, RetiredSchedulingFlagsAreUnknown)
{
    // --sweep-threads is the one scheduling flag left.
    for (const std::string flag : {"--bench-parallel", "--decode-ahead",
                                   "--batch-size", "--retry-backoff-ms"}) {
        ExperimentEnv env;
        const char *argv[] = {"bench", flag.c_str(), "2"};
        try {
            (void)ExperimentEnv::fromCli(3, argv, "test", env);
            ADD_FAILURE() << flag << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("unknown option " + flag),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ExperimentEnvTest, SamplingFlagsBelongToTheSampledHarness)
{
    const char *const flags[][2] = {
        {"--sample-rate", "0.25"}, {"--region-branches", "2000"},
        {"--strata", "3"},         {"--subsamples", "4"},
        {"--sample-seed", "7"},    {"--warmup-regions", "2"}};
    // An exact harness does not know them.
    for (const auto &flag : flags) {
        ExperimentEnv env;
        const char *argv[] = {"bench", flag[0], flag[1]};
        try {
            (void)ExperimentEnv::fromCli(3, argv, "test", env);
            ADD_FAILURE() << flag[0] << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(std::string("unknown option ") +
                                                 flag[0]),
                      std::string::npos)
                << e.what();
        }
    }

    // A sampled one fills env.sampling from them.
    std::vector<const char *> argv = {"bench"};
    for (const auto &flag : flags) {
        argv.push_back(flag[0]);
        argv.push_back(flag[1]);
    }
    ExperimentEnv env;
    ASSERT_TRUE(ExperimentEnv::fromCli(static_cast<int>(argv.size()),
                                       argv.data(), "test", env,
                                       /*sampled=*/true));
    EXPECT_EQ(env.sampling.sampleRate, 0.25);
    EXPECT_EQ(env.sampling.regionBranches, 2000u);
    EXPECT_EQ(env.sampling.strata, 3u);
    EXPECT_EQ(env.sampling.subsamples, 4u);
    EXPECT_EQ(env.sampling.seed, 7u);
    EXPECT_EQ(env.sampling.warmupRegions, 2u);
}

TEST(ExperimentEnvTest, SuiteSizeFollowsFullFlag)
{
    ExperimentEnv env;
    env.fullSuite = true;
    EXPECT_EQ(env.makeSuite().size(), 9u);
    env.fullSuite = false;
    EXPECT_LT(env.makeSuite().size(), 9u);
}

TEST(ExperimentConfigTest, FactoriesProduceFreshInstances)
{
    const auto config = oneLevelIdealConfig(IndexScheme::PcXorBhr, 256,
                                            8);
    auto a = config.make();
    auto b = config.make();
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->name(), b->name());
    EXPECT_EQ(config.label, "PCxorBHR");
}

TEST(ExperimentConfigTest, PredictorFactories)
{
    auto large = largeGshareFactory()();
    auto small = smallGshareFactory()();
    EXPECT_EQ(large->name(), "gshare-65536x2b-h16");
    EXPECT_EQ(small->name(), "gshare-4096x2b-h12");
}

TEST(ExperimentConfigTest, LabelsMatchPaperFigureKeys)
{
    EXPECT_EQ(oneLevelOnesCountConfig(IndexScheme::PcXorBhr).label,
              "PCxorBHR.1Cnt");
    EXPECT_EQ(oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                    CounterKind::Saturating)
                  .label,
              "PCxorBHR.Sat");
    EXPECT_EQ(oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                    CounterKind::Resetting)
                  .label,
              "PCxorBHR.Reset");
    EXPECT_EQ(twoLevelConfig(IndexScheme::PcXorBhr,
                             SecondLevelIndex::Cir)
                  .label,
              "PCxorBHR-CIR");
}

class ExperimentRunTest : public ::testing::Test
{
  protected:
    /** A one-configuration run on a worker budget of 2, with its
     *  telemetry context. */
    static const ExperimentEnv &
    sharedEnv()
    {
        static const ExperimentEnv env = [] {
            ExperimentEnv env;
            env.branchesPerBenchmark = 30000;
            env.fullSuite = false;
            env.sweepThreads = 2;
            env.telemetryContext =
                std::make_shared<Telemetry>(TelemetryOptions{});
            return env;
        }();
        return env;
    }

    static const SuiteRunResult &
    sharedResult()
    {
        static const SuiteRunResult result =
            runSuiteExperiment(
                sharedEnv(),
                {{"run", smallGshareFactory(),
                  {oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                         CounterKind::Resetting, 4096)}}})
                .perConfig.front();
        return result;
    }
};

TEST_F(ExperimentRunTest, OneConfigRunSpendsTheWorkerBudget)
{
    // A one-configuration run is scheduled like any sweep: its budget
    // is --sweep-threads, not a fixed single thread.
    (void)sharedResult();
    EXPECT_EQ(sharedEnv().telemetryContext->registry().gauge(
                  "sweep.pool_workers"),
              2.0);
}

TEST_F(ExperimentRunTest, ProducesCurvesWithMassAtOne)
{
    const auto &result = sharedResult();
    const auto curve = compositeCurve(result, 0, "reset");
    ASSERT_FALSE(curve.curve.points().empty());
    EXPECT_NEAR(curve.curve.points().back().refFraction, 1.0, 1e-9);
    EXPECT_NEAR(curve.curve.points().back().mispredFraction, 1.0,
                1e-9);
    // Counter estimators have at most 17 buckets.
    EXPECT_LE(curve.curve.points().size(), 17u);
}

TEST_F(ExperimentRunTest, StaticCurveAvailable)
{
    const auto named = staticCompositeCurve(sharedResult());
    EXPECT_EQ(named.name, "static");
    EXPECT_GT(named.curve.points().size(), 100u);
}

TEST_F(ExperimentRunTest, PlotRendersAllSeries)
{
    const auto &result = sharedResult();
    std::vector<NamedCurve> curves = {compositeCurve(result, 0, "r")};
    curves.push_back(staticCompositeCurve(result));
    const std::string plot = plotCurves("title", curves);
    EXPECT_NE(plot.find("title"), std::string::npos);
    EXPECT_NE(plot.find("static"), std::string::npos);
}

TEST_F(ExperimentRunTest, CsvHasHeaderAndRows)
{
    const auto &result = sharedResult();
    const std::string path =
        ::testing::TempDir() + "/confsim_experiment_test.csv";
    writeCurvesCsv(path, {compositeCurve(result, 0, "reset")});
    std::ifstream in(path);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header, "series,bucket,bucket_rate,ref_pct,mispred_pct");
    std::string line;
    int rows = 0;
    while (std::getline(in, line))
        ++rows;
    EXPECT_GT(rows, 0);
    std::remove(path.c_str());
}

/** A sampled run refuses, rather than drops, the flags it cannot
 *  honour: Error{kConfig} naming the flag. */
class SampledExperimentTest : public ::testing::Test
{
  protected:
    /** The run under test. */
    virtual void
    run()
    {
        (void)runSampledSuiteExperiment(
            env_, {{"run", smallGshareFactory(),
                    {oneLevelIdealConfig(IndexScheme::PcXorBhr, 4096, 8)}}});
    }

    void
    expectRefused(const std::string &flag)
    {
        try {
            run();
            ADD_FAILURE() << "the run accepted " << flag;
        } catch (const Error &e) {
            EXPECT_EQ(e.category(), ErrorCategory::kConfig);
            EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
                << e.what();
        }
    }

    ExperimentEnv env_;
};

TEST_F(SampledExperimentTest, RefusesCheckpointDir)
{
    env_.checkpointDir = ::testing::TempDir();
    expectRefused("--checkpoint-dir");
}

TEST_F(SampledExperimentTest, RefusesResume)
{
    env_.resume = true;
    expectRefused("--resume");
}

TEST_F(SampledExperimentTest, RefusesDeadline)
{
    env_.deadlineMs = 60'000;
    expectRefused("--deadline-ms");
}

/** An exact run under a plan hook (the application harnesses) refuses
 *  the same flags, for the same reason. */
class PlannedExperimentTest : public SampledExperimentTest
{
  protected:
    void
    run() override
    {
        SuiteRunner::PassHooks hooks;
        hooks.plan = [](std::size_t, TraceSource &) {
            SweepRecordingPlan plan;
            plan.regionBranches = 1000;
            plan.regionSlots = {0};
            plan.numSlots = 1;
            return plan;
        };
        (void)runSuiteExperiment(
            env_,
            {{"run", smallGshareFactory(),
              {oneLevelIdealConfig(IndexScheme::PcXorBhr, 4096, 8)}}},
            hooks);
    }
};

TEST_F(PlannedExperimentTest, RefusesCheckpointDir)
{
    env_.checkpointDir = ::testing::TempDir();
    expectRefused("--checkpoint-dir");
}

TEST_F(PlannedExperimentTest, RefusesResume)
{
    env_.resume = true;
    expectRefused("--resume");
}

TEST_F(PlannedExperimentTest, RefusesDeadline)
{
    env_.deadlineMs = 60'000;
    expectRefused("--deadline-ms");
}

TEST_F(PlannedExperimentTest, RunsEveryPassUnderThePlan)
{
    // The hooks see each benchmark's planned pass, and the merged
    // result keeps counts and rates without estimator statistics.
    env_.fullSuite = false;
    env_.branchesPerBenchmark = 5000;
    env_.sweepThreads = 2;
    std::vector<std::uint64_t> logged(env_.makeSuite().size(), 0);
    SuiteRunner::PassHooks hooks;
    hooks.plan = [](std::size_t, TraceSource &) {
        SweepRecordingPlan plan;
        plan.regionBranches = 1000;
        plan.regionSlots.assign(5, 0);
        plan.numSlots = 1;
        return plan;
    };
    hooks.finish = [&](std::size_t bench, const SweepRunResult &pass) {
        logged[bench] =
            pass.perConfig.at(0).slotStats.at(0).estimatorLogs.at(0).size();
    };
    const SweepSuiteResult result = runSuiteExperiment(
        env_,
        {{"run", smallGshareFactory(),
          {oneLevelIdealConfig(IndexScheme::PcXorBhr, 4096, 8)}}},
        hooks);
    const SuiteRunResult &run = result.perConfig.at(0);
    ASSERT_EQ(run.perBenchmark.size(), logged.size());
    for (std::size_t b = 0; b < logged.size(); ++b) {
        EXPECT_EQ(logged[b], 5000u);
        EXPECT_EQ(run.perBenchmark[b].branches, 5000u);
        EXPECT_TRUE(run.perBenchmark[b].estimatorStats.empty());
    }
    EXPECT_TRUE(run.compositeEstimatorStats.empty());
    EXPECT_GT(run.compositeMispredictRate, 0.0);
}

} // namespace
} // namespace confsim
