/** @file Unit tests for the suite runner. */

#include "sim/suite_runner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <thread>

#include "sim/sweep_engine.h"

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "confidence/one_level.h"
#include "predictor/gshare.h"
#include "fault/fault_injection.h"
#include "obs/telemetry.h"
#include "sim/experiment.h"
#include "trace/vector_trace_source.h"
#include "util/cancellation.h"
#include "util/error.h"

namespace confsim {
namespace {

PredictorFactory
smallPredictor()
{
    return [] { return std::make_unique<GsharePredictor>(4096, 12); };
}

EstimatorSetFactory
smallEstimators()
{
    return [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::PcXorBhr, 4096, CounterKind::Resetting, 16,
            0));
        return out;
    };
}

SuiteRunResult
runSmall(std::uint64_t branches, bool profile_static = true)
{
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 branches));
    DriverOptions options;
    options.profileStatic = profile_static;
    return runner.run(
        [] {
            return std::make_unique<GsharePredictor>(4096, 12);
        },
        [] {
            std::vector<std::unique_ptr<ConfidenceEstimator>> out;
            out.push_back(std::make_unique<OneLevelCounterConfidence>(
                IndexScheme::PcXorBhr, 4096, CounterKind::Resetting,
                16, 0));
            return out;
        },
        options);
}

TEST(SuiteRunnerTest, RunsEveryBenchmark)
{
    const auto result = runSmall(20000);
    ASSERT_EQ(result.perBenchmark.size(), 2u);
    EXPECT_EQ(result.perBenchmark[0].name, "jpeg");
    EXPECT_EQ(result.perBenchmark[1].name, "real_gcc");
    for (const auto &bench : result.perBenchmark) {
        EXPECT_EQ(bench.branches, 20000u);
        EXPECT_GT(bench.mispredicts, 0u);
        EXPECT_GT(bench.wallMs, 0.0) << bench.name;
    }
    EXPECT_GT(result.wallMs, 0.0);
}

TEST(SuiteRunnerTest, EstimatorNamesReported)
{
    const auto result = runSmall(5000);
    ASSERT_EQ(result.estimatorNames.size(), 1u);
    EXPECT_EQ(result.estimatorNames[0], "1lvl-PCxorBHR-reset16-4096");
}

TEST(SuiteRunnerTest, CompositeRateIsEqualWeightMean)
{
    const auto result = runSmall(20000);
    const double mean = (result.perBenchmark[0].mispredictRate +
                         result.perBenchmark[1].mispredictRate) /
                        2.0;
    EXPECT_NEAR(result.compositeMispredictRate, mean, 1e-12);
}

TEST(SuiteRunnerTest, CompositeStatsGiveEqualMassPerBenchmark)
{
    const auto result = runSmall(20000);
    ASSERT_EQ(result.compositeEstimatorStats.size(), 1u);
    const auto &composite = result.compositeEstimatorStats[0];
    // Two benchmarks, each scaled to 1e6 references.
    EXPECT_NEAR(composite.totalRefs(), 2e6, 1.0);
}

/** A trace without records. */
class EmptySource : public TraceSource
{
  public:
    bool next(BranchRecord &) override { return false; }
    void reset() override {}
};

/** Empty benchmark 0's trace (every benchmark's with @p all): it
 * completes without error but records zero branches. */
SourceWrapper
emptyTraces(bool all = false)
{
    return [all](std::size_t bench, std::unique_ptr<TraceSource> inner)
               -> std::unique_ptr<TraceSource> {
        if (bench == 0 || all)
            return std::make_unique<EmptySource>();
        return inner;
    };
}

TEST(SuiteRunnerTest, ZeroRecordBenchmarkExcludedFromComposites)
{
    SuiteRunner runner(
        BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"}, 5000));
    runner.setSourceWrapper(emptyTraces());
    const auto result = runner.run(smallPredictor(), smallEstimators());

    ASSERT_EQ(result.perBenchmark.size(), 2u);
    EXPECT_EQ(result.perBenchmark[0].branches, 0u);
    EXPECT_GT(result.perBenchmark[1].branches, 0u);

    // Nothing failed, but the composites cover only the recorded
    // benchmark — flagged via the degraded-composite marker.
    EXPECT_EQ(result.zeroRecordBenchmarks, 1u);
    EXPECT_TRUE(result.compositeDegraded);
    EXPECT_NEAR(result.compositeMispredictRate,
                result.perBenchmark[1].mispredictRate, 1e-12);
    ASSERT_EQ(result.compositeEstimatorStats.size(), 1u);
    // One benchmark scaled to the 1e6 common mass, not two.
    EXPECT_NEAR(result.compositeEstimatorStats[0].totalRefs(), 1e6,
                1.0);
}

TEST(SuiteRunnerTest, AllZeroRecordBenchmarksGiveZeroComposite)
{
    SuiteRunner runner(
        BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"}, 2000));
    runner.setSourceWrapper(emptyTraces(true));
    const auto result = runner.run(smallPredictor(), smallEstimators());

    for (const auto &bench : result.perBenchmark)
        EXPECT_EQ(bench.branches, 0u) << bench.name;
    EXPECT_EQ(result.zeroRecordBenchmarks, 2u);
    EXPECT_TRUE(result.compositeDegraded);
    EXPECT_EQ(result.compositeMispredictRate, 0.0);
    EXPECT_FALSE(std::isnan(result.compositeMispredictRate));
    EXPECT_TRUE(result.compositeEstimatorStats.empty());
}

TEST(SuiteRunnerTest, SweepZeroRecordBenchmarkExcludedFromComposites)
{
    SuiteRunner runner(
        BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"}, 5000));
    runner.setSourceWrapper(emptyTraces());
    std::vector<SweepConfiguration> configs;
    configs.push_back(
        {"a", smallPredictor(), smallEstimators()});
    configs.push_back(
        {"b", smallPredictor(), smallEstimators()});
    const auto sweep =
        runner.runSweep(configs, DriverOptions{}, SweepOptions{});

    ASSERT_EQ(sweep.perConfig.size(), 2u);
    for (const auto &config_result : sweep.perConfig) {
        ASSERT_EQ(config_result.perBenchmark.size(), 2u);
        EXPECT_EQ(config_result.perBenchmark[0].branches, 0u);
        EXPECT_EQ(config_result.zeroRecordBenchmarks, 1u);
        EXPECT_TRUE(config_result.compositeDegraded);
        EXPECT_NEAR(
            config_result.compositeMispredictRate,
            config_result.perBenchmark[1].mispredictRate, 1e-12);
        // The per-config wall share stays finite for every entry.
        for (const auto &bench : config_result.perBenchmark)
            EXPECT_TRUE(std::isfinite(bench.wallMs)) << bench.name;
    }
}

TEST(SuiteRunnerTest, StaticKeysDoNotCollideAcrossBenchmarks)
{
    const auto result = runSmall(20000);
    std::size_t per_bench_total = 0;
    for (const auto &bench : result.perBenchmark)
        per_bench_total += bench.staticStats.size();
    // The composite preserves every distinct (benchmark, pc) key.
    EXPECT_EQ(result.compositeStaticStats.size(), per_bench_total);
}

TEST(SuiteRunnerTest, StaticProfilingOffLeavesStatsEmpty)
{
    const auto result = runSmall(5000, false);
    EXPECT_EQ(result.compositeStaticStats.size(), 0u);
}

TEST(SuiteRunnerTest, JpegPredictsBetterThanGcc)
{
    // The Fig. 9 property at suite-runner level.
    const auto result = runSmall(100000);
    EXPECT_LT(result.perBenchmark[0].mispredictRate,
              result.perBenchmark[1].mispredictRate);
}

TEST(SuiteRunnerTest, NullPredictorFactoryIsFatal)
{
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg"}, 100));
    EXPECT_THROW(
        runner.run([] { return std::unique_ptr<BranchPredictor>{}; },
                   [] {
                       return std::vector<
                           std::unique_ptr<ConfidenceEstimator>>{};
                   }),
        std::runtime_error);
}

// ---------------------------------------------------------------------
// The failure path: fail fast, the watchdog and cancellation.

/** Wrap benchmark @p faulty_bench so its stream throws mid-run. */
SourceWrapper
failingWrapper(std::size_t faulty_bench)
{
    return [faulty_bench](std::size_t bench,
                          std::unique_ptr<TraceSource> inner)
               -> std::unique_ptr<TraceSource> {
        if (bench != faulty_bench)
            return inner;
        FaultSpec spec;
        spec.failAfter = 500;
        return std::make_unique<FaultInjectingTraceSource>(
            std::move(inner), spec);
    };
}

TEST(SuiteRunnerTest, FailFastThrowsOnInjectedFault)
{
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 5000));
    runner.setSourceWrapper(failingWrapper(1));
    EXPECT_THROW(runner.run(smallPredictor(), smallEstimators()),
                 std::runtime_error);
}

TEST(SuiteRunnerTest, WatchdogMarksHungBenchmarkFailed)
{
    // A 1 ms budget on a multi-million-branch benchmark must trip the
    // watchdog: the run unwinds instead of wedging, and throws the
    // timeout with its category.
    SuiteRunner runner(
        BenchmarkSuite::ibsSubset({"jpeg"}, 20'000'000));
    Telemetry telemetry{TelemetryOptions{}};
    DriverOptions options;
    options.wallClockLimitMs = 1;
    options.telemetry = &telemetry;
    try {
        (void)runner.run(smallPredictor(), smallEstimators(), options);
        FAIL() << "the hung benchmark finished";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kTimeout) << e.what();
        EXPECT_NE(std::string(e.what()).find("wall-clock"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(telemetry.registry().counter("suite.watchdog_timeouts"),
              1u);
}

TEST(SuiteRunnerTest, DriverCancelTokenStopsTheRun)
{
    // DriverOptions::cancel is the run's one cancel input: the
    // scheduler chains its teardown token to it, so a cancelled caller
    // token stops every pass.
    SuiteRunner runner(BenchmarkSuite::ibsSmall(50'000));
    CancellationToken token;
    token.cancel();
    DriverOptions options;
    options.cancel = &token;
    try {
        (void)runner.run(smallPredictor(), smallEstimators(), options);
        FAIL() << "a cancelled run completed";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kCancelled) << e.what();
    }
}

/** An estimator whose table allocation fails partway through a run. */
class ResourceFailingEstimator : public ConfidenceEstimator
{
  public:
    std::uint64_t
    bucketOf(const BranchContext &) const override
    {
        return 0;
    }
    std::uint64_t
    update(const BranchContext &, bool, bool) override
    {
        if (++updates_ == 1000)
            throw Error(ErrorCategory::kResource, "table allocation failed");
        return 0;
    }
    std::uint64_t numBuckets() const override { return 1; }
    std::uint64_t storageBits() const override { return 0; }
    std::string name() const override { return "failing"; }
    void reset() override {}

  private:
    std::uint64_t updates_ = 0;
};

TEST(SuiteRunnerTest, SweepConfigFailureFailsTheRunWithItsCategory)
{
    // One configuration's error fails the whole pass, and the run
    // throws it with the configuration's category.
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg"}, 5000));
    std::vector<SweepConfiguration> configs;
    configs.push_back({"healthy", smallPredictor(), smallEstimators()});
    configs.push_back(
        {"failing", smallPredictor(), [] {
             std::vector<std::unique_ptr<ConfidenceEstimator>> out;
             out.push_back(std::make_unique<ResourceFailingEstimator>());
             return out;
         }});

    try {
        (void)runner.runSweep(configs, DriverOptions{}, SweepOptions{});
        FAIL() << "the failing configuration's run returned";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kResource);
        EXPECT_NE(std::string(e.what()).find("table allocation failed"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SuiteRunnerTest, AutoScheduleOverlapsBenchmarksBeforeShards)
{
    // The worker budget W goes to whole-benchmark passes:
    // min(W, benchmarks) passes whatever the configuration count, and
    // run() follows the same rule as a default runSweep.
    const std::vector<SweepConfiguration> configs = {
        {"a", smallPredictor(), smallEstimators()},
        {"b", smallPredictor(), smallEstimators()},
        {"c", smallPredictor(), smallEstimators()}};
    // (sweep.bench_parallel, sweep.pool_workers) after @p run.
    const auto gauges = [](const auto &run) {
        Telemetry telemetry{TelemetryOptions{}};
        DriverOptions options;
        options.telemetry = &telemetry;
        run(options);
        const MetricsRegistry &registry = telemetry.registry();
        return std::make_pair(registry.gauge("sweep.bench_parallel"),
                              registry.gauge("sweep.pool_workers"));
    };
    const auto sweep = [&](const BenchmarkSuite &suite, unsigned threads) {
        return gauges([&](const DriverOptions &options) {
            SweepOptions knobs;
            knobs.threads = threads;
            (void)SuiteRunner(suite).runSweep(configs, options, knobs);
        });
    };
    const BenchmarkSuite nine = BenchmarkSuite::ibs(2000);
    ASSERT_EQ(nine.size(), 9u);
    EXPECT_EQ(sweep(nine, 3), std::make_pair(3.0, 3.0));
    EXPECT_EQ(sweep(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"}, 2000),
                    4),
              std::make_pair(2.0, 4.0));
    EXPECT_EQ(gauges([&](const DriverOptions &options) {
                  (void)SuiteRunner(nine).run(smallPredictor(),
                                              smallEstimators(), options);
              }),
              sweep(nine, 0));
}

TEST(SuiteRunnerTest, PlannedPassesRejectCheckpoints)
{
    // A planned pass's slot logs do not survive a resume, so runPasses
    // refuses a checkpointing policy before any plan hook runs.
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg"}, 2000));
    bool planned = false;
    SuiteRunner::PassHooks hooks;
    hooks.plan = [&planned](std::size_t, TraceSource &) {
        planned = true;
        SweepRecordingPlan plan;
        plan.regionBranches = 1000;
        return plan;
    };
    RunPolicy checkpointed;
    checkpointed.checkpoint.directory = ::testing::TempDir();
    try {
        (void)runner.runPasses({{"a", smallPredictor(), smallEstimators()}},
                               DriverOptions{}, SweepOptions{},
                               checkpointed, hooks);
        ADD_FAILURE() << "a planned pass accepted checkpointing";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kConfig) << e.what();
    }
    EXPECT_FALSE(planned);
}

TEST(SuiteRunnerTest, FactoriesInvokedExactlyOncePerBenchmark)
{
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 2000));
    auto predictor_calls = std::make_shared<std::atomic<int>>(0);
    auto estimator_calls = std::make_shared<std::atomic<int>>(0);
    const auto result = runner.run(
        [predictor_calls] {
            predictor_calls->fetch_add(1);
            return std::make_unique<GsharePredictor>(4096, 12);
        },
        [estimator_calls]()
            -> std::vector<std::unique_ptr<ConfidenceEstimator>> {
            estimator_calls->fetch_add(1);
            std::vector<std::unique_ptr<ConfidenceEstimator>> out;
            out.push_back(std::make_unique<OneLevelCounterConfidence>(
                IndexScheme::PcXorBhr, 4096, CounterKind::Resetting,
                16, 0));
            return out;
        });
    EXPECT_EQ(predictor_calls->load(), 2);
    EXPECT_EQ(estimator_calls->load(), 2);
    ASSERT_EQ(result.estimatorNames.size(), 1u);
    EXPECT_EQ(result.estimatorNames[0], "1lvl-PCxorBHR-reset16-4096");
}

/** Exact per-benchmark equality of two suite results. */
void
expectSameResults(const SuiteRunResult &actual,
                  const SuiteRunResult &expected)
{
    ASSERT_EQ(actual.perBenchmark.size(), expected.perBenchmark.size());
    EXPECT_EQ(actual.compositeMispredictRate,
              expected.compositeMispredictRate);
    for (std::size_t b = 0; b < expected.perBenchmark.size(); ++b) {
        const BenchmarkRunResult &got = actual.perBenchmark[b];
        const BenchmarkRunResult &want = expected.perBenchmark[b];
        SCOPED_TRACE(want.name);
        EXPECT_EQ(got.branches, want.branches);
        EXPECT_EQ(got.mispredicts, want.mispredicts);
        ASSERT_EQ(got.estimatorStats.size(), want.estimatorStats.size());
        for (std::size_t e = 0; e < want.estimatorStats.size(); ++e) {
            const BucketStats &g = got.estimatorStats[e];
            const BucketStats &w = want.estimatorStats[e];
            ASSERT_EQ(g.numBuckets(), w.numBuckets());
            for (std::uint64_t k = 0; k < w.numBuckets(); ++k) {
                EXPECT_EQ(g[k].refs, w[k].refs) << "bucket " << k;
                EXPECT_EQ(g[k].mispredicts, w[k].mispredicts);
            }
        }
    }
}

TEST(SuiteRunnerTest, CheckpointLabelNamesTheTrace)
{
    // The suite's length, or each profile's default when it is 0.
    EXPECT_EQ(checkpointLabel(BenchmarkSuite::ibsSmall(20'000), 1),
              "real_gcc.seed16.branches20000");
    EXPECT_EQ(checkpointLabel(BenchmarkSuite::ibs(0), 2),
              "jpeg.seed13.branches2000000");
    const BenchmarkSuite suite = BenchmarkSuite::ibs(0);
    for (std::size_t bench = 0; bench < suite.size(); ++bench) {
        EXPECT_EQ(checkpointLabel(suite, bench),
                  suite.profile(bench).name + ".seed" +
                      std::to_string(suite.profile(bench).seed) +
                      ".branches" +
                      std::to_string(suite.makeGenerator(bench)->length()));
    }
}

TEST(SuiteRunnerTest, SharedCheckpointDirectoryKeepsRunsApart)
{
    // Every run() labels its configuration `run`, so two runs over
    // different geometries that share a checkpoint directory write
    // done-markers under the same names. A resumed run must still
    // reproduce its own configuration, never the other run's results.
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        "suite_runner_shared_ckpt";
    std::filesystem::remove_all(dir);
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 5000));
    RunPolicy policy;
    policy.checkpoint.directory = dir.string();
    DriverOptions options;
    options.profileStatic = true;
    const PredictorFactory other_predictor = [] {
        return std::make_unique<GsharePredictor>(1024, 10);
    };
    const EstimatorSetFactory other_estimators = [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::Pc, 1024, CounterKind::Saturating, 7, 0));
        return out;
    };

    (void)runner.run(other_predictor, other_estimators, options, policy);
    const SuiteRunResult fresh =
        runner.run(smallPredictor(), smallEstimators(), options);
    policy.checkpoint.resume = true;
    const SuiteRunResult resumed =
        runner.run(smallPredictor(), smallEstimators(), options, policy);
    expectSameResults(resumed, fresh);

    // Its own markers, once written, are served back unchanged.
    const SuiteRunResult served =
        runner.run(smallPredictor(), smallEstimators(), options, policy);
    expectSameResults(served, fresh);
    std::filesystem::remove_all(dir);
}

TEST(SuiteRunnerTest, ResultsHoldPackedBucketStatsFreshAndResumed)
{
    // Every per-benchmark bank a suite result holds keeps only the
    // buckets it touched, whether its pass just ran or its done-marker
    // was restored; the composites stay dense doubles.
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        "suite_runner_packed_ckpt";
    std::filesystem::remove_all(dir);
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 5000));
    RunPolicy policy;
    policy.checkpoint.directory = dir.string();
    const auto expect_packed = [](const SuiteRunResult &result) {
        for (const BenchmarkRunResult &bench : result.perBenchmark) {
            ASSERT_FALSE(bench.estimatorStats.empty());
            for (const BucketStats &stats : bench.estimatorStats)
                EXPECT_TRUE(stats.packed()) << bench.name;
        }
        ASSERT_FALSE(result.compositeEstimatorStats.empty());
        for (const BucketStats &composite : result.compositeEstimatorStats)
            EXPECT_TRUE(composite.weighted());
    };

    const SuiteRunResult fresh =
        runner.run(smallPredictor(), smallEstimators(), {}, policy);
    expect_packed(fresh);

    Telemetry telemetry{TelemetryOptions{}};
    DriverOptions options;
    options.telemetry = &telemetry;
    policy.checkpoint.resume = true;
    const SuiteRunResult resumed =
        runner.run(smallPredictor(), smallEstimators(), options, policy);
    EXPECT_EQ(telemetry.registry().counter("ckpt.restored"), 2u);
    expect_packed(resumed);
    expectSameResults(resumed, fresh);
    std::filesystem::remove_all(dir);
}

/** A fresh checkpoint directory under the test temp dir. */
std::filesystem::path
freshCheckpointDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(SuiteRunnerTest, DoneMarkerOfAnotherTraceLengthIsNotRestored)
{
    // A store names its benchmark's trace: resuming at 10,000 branches
    // from a 20,000-branch run's done-marker simulates afresh.
    const std::filesystem::path dir =
        freshCheckpointDir("suite_runner_length_done");
    RunPolicy policy;
    policy.checkpoint.directory = dir.string();
    DriverOptions options;
    options.profileStatic = true;
    (void)SuiteRunner(BenchmarkSuite::ibsSubset({"jpeg"}, 20'000))
        .run(smallPredictor(), smallEstimators(), options, policy);

    const SuiteRunner shorter(BenchmarkSuite::ibsSubset({"jpeg"}, 10'000));
    const SuiteRunResult fresh =
        shorter.run(smallPredictor(), smallEstimators(), options);
    policy.checkpoint.resume = true;
    const SuiteRunResult resumed =
        shorter.run(smallPredictor(), smallEstimators(), options, policy);
    EXPECT_EQ(resumed.perBenchmark.at(0).branches, 10'000u);
    expectSameResults(resumed, fresh);
    std::filesystem::remove_all(dir);
}

TEST(SuiteRunnerTest, GenerationOfAnotherTraceLengthIsNotRestored)
{
    // Kill a 20,000-branch run after its newest generation passed
    // branch 10,000; a resume at 10,000 branches must not restore it.
    // Every run reads through the same decorator, so the generations'
    // source state would restore into the shorter run's source.
    const auto failingAfter = [](std::uint64_t records) -> SourceWrapper {
        return [records](std::size_t, std::unique_ptr<TraceSource> inner)
                   -> std::unique_ptr<TraceSource> {
            FaultSpec spec;
            spec.failAfter = records;
            return std::make_unique<FaultInjectingTraceSource>(
                std::move(inner), spec);
        };
    };
    const std::filesystem::path dir =
        freshCheckpointDir("suite_runner_length_generation");
    RunPolicy policy;
    policy.checkpoint.directory = dir.string();
    policy.checkpoint.everyBranches = 2'000;
    DriverOptions options;
    options.profileStatic = true;
    SuiteRunner killed(BenchmarkSuite::ibsSubset({"jpeg"}, 20'000));
    killed.setSourceWrapper(failingAfter(18'000));
    EXPECT_THROW(
        killed.run(smallPredictor(), smallEstimators(), options, policy),
        Error);
    std::uint64_t newest = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".ckpt")
            newest = std::max(newest,
                              readCheckpointFile(entry.path().string()).branches);
    }
    ASSERT_GT(newest, 10'000u);

    SuiteRunner shorter(BenchmarkSuite::ibsSubset({"jpeg"}, 10'000));
    shorter.setSourceWrapper(failingAfter(0));
    const SuiteRunResult fresh =
        shorter.run(smallPredictor(), smallEstimators(), options);
    policy.checkpoint.resume = true;
    const SuiteRunResult resumed =
        shorter.run(smallPredictor(), smallEstimators(), options, policy);
    EXPECT_EQ(resumed.perBenchmark.at(0).branches, 10'000u);
    expectSameResults(resumed, fresh);
    std::filesystem::remove_all(dir);
}

TEST(SuiteRunnerTest, PassThreadsAreTheRunsOnlyThreads)
{
    // Each pass reads and replays its benchmark on its own thread, so
    // a budget of 32 over three benchmarks of two configurations runs
    // three pass threads beside the caller and starts nothing else.
    const std::filesystem::path tasks = "/proc/self/task";
    if (!std::filesystem::exists(tasks))
        GTEST_SKIP() << "no " << tasks << " to count threads in";
    constexpr unsigned kBudget = 32;
    const auto threads_now = [&tasks] {
        return std::distance(std::filesystem::directory_iterator(tasks),
                             std::filesystem::directory_iterator{});
    };
    // The baseline: the caller, and any thread the runtime starts
    // beside the first one a program creates (a sanitizer's).
    std::thread([] {}).join();
    const std::ptrdiff_t before = threads_now();
    std::atomic<std::ptrdiff_t> most{0};
    SuiteRunner::PassHooks hooks;
    hooks.finish = [&](std::size_t, const SweepRunResult &) {
        const std::ptrdiff_t now = threads_now();
        std::ptrdiff_t seen = most.load();
        while (seen < now && !most.compare_exchange_weak(seen, now)) {
        }
    };
    Telemetry telemetry{TelemetryOptions{}};
    DriverOptions options;
    options.telemetry = &telemetry;
    SweepOptions sweep;
    sweep.threads = kBudget;
    (void)SuiteRunner(
        BenchmarkSuite::ibsSubset({"jpeg", "real_gcc", "groff"}, 2000))
        .runSweep({{"a", smallPredictor(), smallEstimators()},
                   {"b", smallPredictor(), smallEstimators()}},
                  options, sweep, {}, hooks);
    EXPECT_GT(most.load(), before);
    EXPECT_LE(most.load(), before + 3) << "the caller plus three passes";
    EXPECT_EQ(telemetry.registry().gauge("sweep.bench_parallel"), 3.0);
    EXPECT_EQ(telemetry.registry().gauge("sweep.pool_workers"), kBudget);
}

TEST(SweepEngineTest, NativeEstimatorOnForeignPredictorIsConfigError)
{
    // A shadow-free native estimator grades only its own family's
    // predictions: pairing TAGE provider confidence with gshare is a
    // configuration error, not a run that grades gshare with TAGE.
    SweepConfiguration config;
    config.label = "mismatched";
    config.makePredictor = largeGshareFactory();
    config.makeEstimators = [make = tageProviderConfig().make] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(make());
        return out;
    };
    SweepEngine engine({config});
    VectorTraceSource source(std::vector<BranchRecord>(16));
    try {
        (void)engine.run(source);
        ADD_FAILURE() << "the mismatched configuration ran";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kConfig) << e.what();
    }
}

} // namespace
} // namespace confsim
