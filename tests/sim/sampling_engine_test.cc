/** @file Unit tests for the statistical sampling engine. */

#include "sim/sampling_engine.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "fault/fault_injection.h"
#include "metrics/operating_point.h"
#include "obs/telemetry.h"
#include "predictor/gshare.h"
#include "sim/suite_runner.h"
#include "util/cancellation.h"
#include "util/error.h"
#include "workload/suite.h"
#include "workload/workload_generator.h"

namespace confsim {
namespace {

std::vector<SweepConfiguration>
oneConfig()
{
    SweepConfiguration config;
    config.label = "gshare+CIR";
    config.makePredictor = [] {
        return std::make_unique<GsharePredictor>(4096, 12);
    };
    config.makeEstimators = [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<OneLevelCirConfidence>(
            IndexScheme::PcXorBhr, 4096, 16,
            CirReduction::RawPattern, CtInit::Ones));
        return out;
    };
    std::vector<SweepConfiguration> configs;
    configs.push_back(std::move(config));
    return configs;
}

SamplingEngine::SourceFactory
jpegSource(std::uint64_t branches)
{
    return [branches]() -> std::unique_ptr<TraceSource> {
        return std::make_unique<WorkloadGenerator>(ibsProfile("jpeg"),
                                                   branches);
    };
}

/** An immediately exhausted trace. */
class EmptySource : public TraceSource
{
  public:
    bool next(BranchRecord &) override { return false; }
    void reset() override {}
};

TEST(SamplingEngineTest, FullRateSingleSubsampleIsExact)
{
    SamplingOptions options;
    options.sampleRate = 1.0;
    options.strata = 1;
    options.subsamples = 1;
    options.regionBranches = 2000;
    SamplingEngine engine(oneConfig(), DriverOptions{}, options);
    const SamplingBenchmarkResult sampled =
        engine.runTrace("jpeg", jpegSource(40000));

    SweepEngine exact_engine(oneConfig(), DriverOptions{},
                             SweepOptions{});
    WorkloadGenerator workload(ibsProfile("jpeg"), 40000);
    const SweepRunResult exact = exact_engine.run(workload);

    EXPECT_EQ(sampled.totalBranches, 40000u);
    EXPECT_EQ(sampled.recordedBranches, 40000u);
    EXPECT_EQ(sampled.regions, 20u);
    EXPECT_EQ(sampled.sampledRegions, 20u);
    ASSERT_EQ(sampled.perConfig.size(), 1u);
    const SamplingConfigEstimate &est = sampled.perConfig[0];
    ASSERT_EQ(est.rateSubsamples.size(), 1u);
    const double exact_rate =
        static_cast<double>(exact.perConfig[0].mispredicts) /
        static_cast<double>(exact.perConfig[0].branches);
    EXPECT_DOUBLE_EQ(est.mispredictRate.mean, exact_rate);
    EXPECT_DOUBLE_EQ(est.mispredictRate.ciHalf, 0.0);

    // Coverage/PVN at the 20% point match the exact aggregates too
    // (the weighted bucket mass is the aggregate mass, rescaled).
    const OperatingPoint exact_point =
        operatingPointAt20(exact.perConfig[0].estimatorStats[0]);
    ASSERT_EQ(est.coverageAt20.size(), 1u);
    EXPECT_NEAR(est.coverageAt20[0].mean, exact_point.coverage, 1e-9);
    EXPECT_NEAR(est.pvnAt20[0].mean, exact_point.pvn, 1e-9);
}

/** A 64K-bucket CIR and a 17-bucket counter on one gshare-4K. */
std::vector<SweepConfiguration>
twoEstimatorConfig()
{
    SweepConfiguration config;
    config.label = "gshare+CIR+sat";
    config.makePredictor = [] {
        return std::make_unique<GsharePredictor>(4096, 12);
    };
    config.makeEstimators = [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<OneLevelCirConfidence>(
            IndexScheme::PcXorBhr, 1 << 16, 16,
            CirReduction::RawPattern));
        out.push_back(std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::Pc, 4096, CounterKind::Saturating, 16, 0));
        return out;
    };
    std::vector<SweepConfiguration> configs;
    configs.push_back(std::move(config));
    return configs;
}

/** A named estimate and the bit pattern of its value. */
struct PinnedValue
{
    const char *name;
    std::uint64_t bits;
};

/** Every estimate of @p est, named as the pinned tables name them. */
std::vector<std::pair<std::string, double>>
namedEstimates(const SamplingConfigEstimate &est, const std::string &prefix)
{
    std::vector<std::pair<std::string, double>> actual = {
        {prefix + "rate.mean", est.mispredictRate.mean},
        {prefix + "rate.ciHalf", est.mispredictRate.ciHalf}};
    for (std::size_t e = 0; e < est.coverageAt20.size(); ++e) {
        const std::string name = prefix + "est" + std::to_string(e) + ".";
        actual.push_back({name + "coverage.mean", est.coverageAt20[e].mean});
        actual.push_back({name + "coverage.ciHalf",
                          est.coverageAt20[e].ciHalf});
        actual.push_back({name + "pvn.mean", est.pvnAt20[e].mean});
        actual.push_back({name + "pvn.ciHalf", est.pvnAt20[e].ciHalf});
    }
    return actual;
}

/** Expect @p actual's bit patterns to equal @p recorded's; a mismatch
 *  prints the current values in the table's format. */
void
expectBitPatterns(const std::vector<std::pair<std::string, double>> &actual,
                  const std::vector<PinnedValue> &recorded)
{
    std::string table;
    for (const auto &[name, value] : actual) {
        char line[96];
        std::snprintf(line, sizeof(line),
                      "        {\"%s\", 0x%016" PRIx64 "},\n",
                      name.c_str(), std::bit_cast<std::uint64_t>(value));
        table += line;
    }
    ASSERT_EQ(actual.size(), recorded.size()) << table;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].first, recorded[i].name);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i].second),
                  recorded[i].bits)
            << actual[i].first << " = " << actual[i].second << "\n"
            << table;
    }
}

TEST(SamplingEngineTest, EstimatesMatchRecordedBitPatterns)
{
    // 60 regions at a 20% rate give 12 picks for 4 strata x 5
    // subsamples = 20 slots, so subsample 0 misses a stratum and its
    // weights are renormalized over the strata it covers.
    SamplingOptions options;
    options.sampleRate = 0.2;
    options.regionBranches = 1000;
    options.strata = 4;
    options.subsamples = 5;
    options.warmupRegions = 2;
    SamplingEngine engine(twoEstimatorConfig(), DriverOptions{},
                          options);
    const SamplingBenchmarkResult result =
        engine.runTrace("jpeg", jpegSource(60000));
    ASSERT_EQ(result.sampledRegions, 12u);
    ASSERT_EQ(result.perConfig.size(), 1u);
    const SamplingConfigEstimate &est = result.perConfig[0];
    ASSERT_EQ(est.rateSubsamples.size(), 5u);
    ASSERT_EQ(est.coverageAt20.size(), 2u);

    // Recorded from the implementation that kept a dense BucketStats
    // per slot and estimator (commit 614fffb), with this table empty:
    //   build/tests/sim_test
    //     --gtest_filter=SamplingEngineTest.EstimatesMatchRecordedBitPatterns
    // A mismatch prints the current values in this table's format.
    expectBitPatterns(namedEstimates(est, ""),
                      {
                          {"rate.mean", 0x3fadfc733bf02982},
                          {"rate.ciHalf", 0x3f8ca68ab4224979},
                          {"est0.coverage.mean", 0x3feecf694d64b40d},
                          {"est0.coverage.ciHalf", 0x3f9ef2ad409f1a97},
                          {"est0.pvn.mean", 0x3fdcfa1062c8a206},
                          {"est0.pvn.ciHalf", 0x3fcbfedbf945d69f},
                          {"est1.coverage.mean", 0x3fd40759ff56fffe},
                          {"est1.coverage.ciHalf", 0x3fbfb147e992bd56},
                          {"est1.pvn.mean", 0x3fcebde65fd601e8},
                          {"est1.pvn.ciHalf", 0x3fbee2958edd1b3d},
                      });
}

/** One configuration's pinned replay counts. */
struct PinnedCounts
{
    std::uint64_t branches;
    std::uint64_t mispredicts;
    std::uint64_t contextSwitches;
};

TEST(SamplingEngineTest, SkippedRegionsKeepRecordedContextSwitches)
{
    // A bounded window skips most regions. The 2300-branch switch
    // interval does not divide the 1000-branch regions, so switches
    // land inside skipped gaps, and it is longer than the 2-region
    // warming window, so whether a gap flushed shows in the state a
    // sampled region starts from. The trace's last, partial region
    // (60) is skipped, so the switch clock must still run to the
    // trace's end.
    DriverOptions driver;
    driver.contextSwitchInterval = 2300;
    SamplingOptions options;
    options.sampleRate = 0.2;
    options.regionBranches = 1000;
    options.strata = 4;
    options.subsamples = 5;
    options.warmupRegions = 2;
    options.seed = 7;
    constexpr std::uint64_t kBranches = 60500;
    std::vector<SweepConfiguration> configs = oneConfig();
    configs.push_back(twoEstimatorConfig().front());
    configs.back().makePredictor = [] {
        return std::make_unique<GsharePredictor>(65536, 16);
    };
    SamplingEngine engine(configs, driver, options);

    const SamplingBenchmarkResult result =
        engine.runTrace("jpeg", jpegSource(kBranches));
    ASSERT_EQ(result.regions, 61u);
    ASSERT_EQ(result.sampledRegions, 12u);
    ASSERT_NE(result.sampledRegionIds.back(), 60u);
    ASSERT_EQ(result.perConfig.size(), 2u);

    // The same plan replayed by hand, for its per-configuration counts.
    WorkloadGenerator planned(ibsProfile("jpeg"), kBranches);
    const SweepRecordingPlan plan = engine.recordingPlan("jpeg", planned);
    ASSERT_EQ(plan.regionSlots.size(), 61u);
    ASSERT_EQ(plan.regionSlots.back(), SweepRecordingPlan::kSkip);
    SweepEngine replay_engine(configs, driver);
    WorkloadGenerator workload(ibsProfile("jpeg"), kBranches);
    const SweepRunResult replay = replay_engine.run(workload, &plan);
    ASSERT_EQ(replay.perConfig.size(), 2u);

    // Recorded with the per-record replay loop, which stepped every
    // skipped record through the kernel (commit f3e3ebf): this test
    // body, ported to that commit with these tables zeroed, run as
    //   build/tests/sim_test --gtest_filter=SamplingEngineTest.SkippedRegionsKeepRecordedContextSwitches
    // A mismatch prints the current values in the estimate table's
    // format.
    const PinnedCounts counts[] = {
        {12000, 1019, 26},
        {12000, 833, 26},
    };
    for (std::size_t c = 0; c < replay.perConfig.size(); ++c) {
        SCOPED_TRACE(replay.perConfig[c].label);
        EXPECT_EQ(replay.perConfig[c].branches, counts[c].branches);
        EXPECT_EQ(replay.perConfig[c].mispredicts, counts[c].mispredicts);
        EXPECT_EQ(replay.perConfig[c].contextSwitches,
                  counts[c].contextSwitches);
        EXPECT_EQ(replay.perConfig[c].branches, result.recordedBranches);
    }
    std::vector<std::pair<std::string, double>> actual =
        namedEstimates(result.perConfig[0], "cfg0.");
    for (const auto &named : namedEstimates(result.perConfig[1], "cfg1."))
        actual.push_back(named);
    expectBitPatterns(actual,
                      {
                          {"cfg0.rate.mean", 0x3fb5d761f7ad1c60},
                          {"cfg0.rate.ciHalf", 0x3fa7cd6359a70bc5},
                          {"cfg0.est0.coverage.mean", 0x3febf354fc4b60b3},
                          {"cfg0.est0.coverage.ciHalf", 0x3fc4af9dba7b1255},
                          {"cfg0.est0.pvn.mean", 0x3fd884156a8e89a6},
                          {"cfg0.est0.pvn.ciHalf", 0x3fb673d5eb078401},
                          {"cfg1.rate.mean", 0x3fb211883dd9ce27},
                          {"cfg1.rate.ciHalf", 0x3fabf8231e21e88c},
                          {"cfg1.est0.coverage.mean", 0x3febfa19396fe456},
                          {"cfg1.est0.coverage.ciHalf", 0x3fc735d51915ee82},
                          {"cfg1.est0.pvn.mean", 0x3fd2aeb88ecacc52},
                          {"cfg1.est0.pvn.ciHalf", 0x3fc1f4a7645a93e3},
                          {"cfg1.est1.coverage.mean", 0x3fdff6acd07d9575},
                          {"cfg1.est1.coverage.ciHalf", 0x3fc15e5a5a415f2d},
                          {"cfg1.est1.pvn.mean", 0x3fc99734ae075ec3},
                          {"cfg1.est1.pvn.ciHalf", 0x3fc248ed15d54eef},
                      });
}

TEST(SamplingEngineTest, SelectionAndEstimatesAreDeterministic)
{
    SamplingOptions options;
    options.sampleRate = 0.2;
    options.regionBranches = 1000;
    options.seed = 1234;
    SamplingEngine a(oneConfig(), DriverOptions{}, options);
    SamplingEngine b(oneConfig(), DriverOptions{}, options);
    const SamplingBenchmarkResult ra =
        a.runTrace("jpeg", jpegSource(60000));
    const SamplingBenchmarkResult rb =
        b.runTrace("jpeg", jpegSource(60000));
    EXPECT_EQ(ra.sampledRegionIds, rb.sampledRegionIds);
    ASSERT_EQ(ra.perConfig.size(), rb.perConfig.size());
    EXPECT_EQ(ra.perConfig[0].rateSubsamples,
              rb.perConfig[0].rateSubsamples);
    EXPECT_DOUBLE_EQ(ra.perConfig[0].mispredictRate.ciHalf,
                     rb.perConfig[0].mispredictRate.ciHalf);
}

TEST(SamplingEngineTest, SeedChangesTheSelection)
{
    SamplingOptions options;
    options.sampleRate = 0.1;
    options.regionBranches = 1000;
    options.seed = 1;
    SamplingEngine a(oneConfig(), DriverOptions{}, options);
    options.seed = 2;
    SamplingEngine b(oneConfig(), DriverOptions{}, options);
    const SamplingBenchmarkResult ra =
        a.runTrace("jpeg", jpegSource(60000));
    const SamplingBenchmarkResult rb =
        b.runTrace("jpeg", jpegSource(60000));
    EXPECT_EQ(ra.sampledRegions, rb.sampledRegions);
    EXPECT_NE(ra.sampledRegionIds, rb.sampledRegionIds);
}

TEST(SamplingEngineTest, SampledSubsetRecordsFewerBranches)
{
    SamplingOptions options;
    options.sampleRate = 0.1;
    options.regionBranches = 1000;
    SamplingEngine engine(oneConfig(), DriverOptions{}, options);
    const SamplingBenchmarkResult result =
        engine.runTrace("jpeg", jpegSource(60000));
    EXPECT_EQ(result.regions, 60u);
    EXPECT_EQ(result.sampledRegions, 6u);
    EXPECT_EQ(result.recordedBranches, 6000u);
    EXPECT_NEAR(result.reductionFactor(), 10.0, 1e-9);
    // Sorted unique ids, all in range.
    for (std::size_t i = 1; i < result.sampledRegionIds.size(); ++i) {
        EXPECT_LT(result.sampledRegionIds[i - 1],
                  result.sampledRegionIds[i]);
    }
    for (const std::uint64_t id : result.sampledRegionIds)
        EXPECT_LT(id, result.regions);
}

TEST(SamplingEngineTest, BoundedWarmingKeepsRecordedBranches)
{
    SamplingOptions options;
    options.sampleRate = 0.1;
    options.regionBranches = 1000;
    options.warmupRegions = 2;
    SamplingEngine engine(oneConfig(), DriverOptions{}, options);
    const SamplingBenchmarkResult result =
        engine.runTrace("jpeg", jpegSource(60000));
    // Fast-forwarding changes which branches warm the predictor, not
    // which branches are recorded.
    EXPECT_EQ(result.recordedBranches, 6000u);
    EXPECT_EQ(result.sampledRegions, 6u);
    ASSERT_EQ(result.perConfig.size(), 1u);
    EXPECT_FALSE(result.perConfig[0].rateSubsamples.empty());
}

TEST(SamplingEngineTest, EmptyTraceYieldsEmptyResult)
{
    SamplingOptions options;
    SamplingEngine engine(oneConfig(), DriverOptions{}, options);
    const SamplingBenchmarkResult result = engine.runTrace(
        "empty", [] { return std::make_unique<EmptySource>(); });
    EXPECT_EQ(result.totalBranches, 0u);
    EXPECT_EQ(result.regions, 0u);
    EXPECT_EQ(result.sampledRegions, 0u);
    EXPECT_TRUE(result.perConfig.empty());
    EXPECT_DOUBLE_EQ(result.reductionFactor(), 0.0);
}

TEST(SamplingEngineTest, InvalidOptionsAreFatal)
{
    const auto build = [](SamplingOptions options) {
        SamplingEngine engine(oneConfig(), DriverOptions{}, options);
    };
    SamplingOptions bad;
    bad.sampleRate = 0.0;
    EXPECT_THROW(build(bad), std::runtime_error);
    bad = SamplingOptions{};
    bad.sampleRate = 1.5;
    EXPECT_THROW(build(bad), std::runtime_error);
    bad = SamplingOptions{};
    bad.regionBranches = 0;
    EXPECT_THROW(build(bad), std::runtime_error);
    bad = SamplingOptions{};
    bad.strata = 0;
    EXPECT_THROW(build(bad), std::runtime_error);
    bad = SamplingOptions{};
    bad.subsamples = 0;
    EXPECT_THROW(build(bad), std::runtime_error);
    EXPECT_THROW(SamplingEngine({}, DriverOptions{},
                                SamplingOptions{}),
                 std::runtime_error);
}

/** Options that sample a few 500-branch regions of short traces. */
SamplingOptions
smallSuiteOptions(unsigned threads)
{
    SamplingOptions options;
    options.sampleRate = 0.2;
    options.regionBranches = 500;
    options.sweep.threads = threads;
    return options;
}

TEST(SamplingEngineTest, SuiteHonoursTheDriverCancellationToken)
{
    SuiteRunner runner(
        BenchmarkSuite::ibsSubset({"jpeg", "real_gcc", "groff"}, 5000));
    CancellationToken cancel;
    cancel.cancel();
    DriverOptions driver;
    driver.cancel = &cancel;
    SamplingEngine engine(oneConfig(), driver, smallSuiteOptions(3));
    try {
        (void)engine.runSuite(runner);
        FAIL() << "a cancelled sampled suite returned";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kCancelled) << e.what();
    }
}

TEST(SamplingEngineTest, SuiteThrowsTheFailingBenchmarksCategory)
{
    // Benchmark 1's stream breaks in the pre-pass while its siblings
    // run concurrently; their teardown must not mask the cause.
    SuiteRunner runner(
        BenchmarkSuite::ibsSubset({"jpeg", "real_gcc", "groff"}, 5000));
    runner.setSourceWrapper([](std::size_t bench,
                               std::unique_ptr<TraceSource> inner)
                                -> std::unique_ptr<TraceSource> {
        if (bench != 1)
            return inner;
        FaultSpec spec;
        spec.failAfter = 500;
        return std::make_unique<FaultInjectingTraceSource>(
            std::move(inner), spec);
    });
    SamplingEngine engine(oneConfig(), DriverOptions{},
                          smallSuiteOptions(3));
    try {
        (void)engine.runSuite(runner);
        FAIL() << "a failing sampled suite returned";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kTrace) << e.what();
        EXPECT_NE(std::string(e.what()).find("injected fault"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SamplingEngineTest, SuiteClosesTheSchedulersSuiteRunEvent)
{
    const std::string log = ::testing::TempDir() +
                            "/confsim_sampled_suite_events.jsonl";
    {
        TelemetryOptions telemetry_options;
        telemetry_options.jsonlPath = log;
        Telemetry telemetry(telemetry_options);
        telemetry.setManifest(RunManifest::withBuildInfo());
        DriverOptions driver;
        driver.telemetry = &telemetry;
        SuiteRunner runner(
            BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"}, 5000));
        SamplingEngine engine(oneConfig(), driver, smallSuiteOptions(2));
        (void)engine.runSuite(runner);
        telemetry.finish();
    }
    std::vector<std::string> types;
    std::ifstream in(log);
    for (std::string line; std::getline(in, line);) {
        for (const char *type :
             {"suite_run_started", "suite_run_finished",
              "sampling_run_finished"}) {
            if (line.find(std::string("\"type\":\"") + type + "\"") !=
                std::string::npos)
                types.push_back(type);
        }
    }
    std::remove(log.c_str());
    EXPECT_EQ(types,
              (std::vector<std::string>{"suite_run_started",
                                        "suite_run_finished",
                                        "sampling_run_finished"}));
}

} // namespace
} // namespace confsim
