/** @file Unit tests for the suite runner. */

#include "sim/suite_runner.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "sim/sweep_engine.h"

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "predictor/gshare.h"
#include "fault/fault_injection.h"
#include "obs/telemetry.h"
#include "sim/experiment.h"
#include "trace/vector_trace_source.h"
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
    }
}

TEST(SuiteRunnerTest, AttemptsIsOneOnFirstTrySuccess)
{
    const auto result = runSmall(5000);
    for (const auto &bench : result.perBenchmark) {
        EXPECT_TRUE(bench.error.empty());
        EXPECT_EQ(bench.attempts, 1u) << bench.name;
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

/** Truncates the wrapped source after a fixed number of records. */
class TruncatingSource : public TraceSource
{
  public:
    TruncatingSource(std::unique_ptr<TraceSource> inner,
                     std::uint64_t limit)
        : inner_(std::move(inner)), limit_(limit)
    {
    }

    bool
    next(BranchRecord &record) override
    {
        if (produced_ >= limit_ || !inner_->next(record))
            return false;
        ++produced_;
        return true;
    }

    void
    reset() override
    {
        inner_->reset();
        produced_ = 0;
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    std::uint64_t limit_ = 0;
    std::uint64_t produced_ = 0;
};

/** Truncate benchmark 0 below the warmup window: it completes without
 * error but records zero branches. */
SourceWrapper
truncateFirstBenchmark(std::uint64_t limit)
{
    return [limit](std::size_t bench,
                   std::unique_ptr<TraceSource> inner)
               -> std::unique_ptr<TraceSource> {
        if (bench == 0) {
            return std::make_unique<TruncatingSource>(std::move(inner),
                                                      limit);
        }
        return inner;
    };
}

TEST(SuiteRunnerTest, ZeroRecordBenchmarkExcludedFromComposites)
{
    SuiteRunner runner(
        BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"}, 5000));
    runner.setSourceWrapper(truncateFirstBenchmark(500));
    DriverOptions options;
    options.warmupBranches = 1000;
    const auto result =
        runner.run(smallPredictor(), smallEstimators(), options);

    ASSERT_EQ(result.perBenchmark.size(), 2u);
    EXPECT_TRUE(result.perBenchmark[0].error.empty());
    EXPECT_EQ(result.perBenchmark[0].branches, 0u);
    EXPECT_GT(result.perBenchmark[1].branches, 0u);

    // Nothing failed, but the composites cover only the recorded
    // benchmark — flagged via the degraded-composite marker.
    EXPECT_FALSE(result.degraded);
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
    DriverOptions options;
    options.warmupBranches = 10000; // warmup covers the whole trace
    const auto result =
        runner.run(smallPredictor(), smallEstimators(), options);

    for (const auto &bench : result.perBenchmark) {
        EXPECT_TRUE(bench.error.empty()) << bench.name;
        EXPECT_EQ(bench.branches, 0u) << bench.name;
    }
    EXPECT_FALSE(result.degraded);
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
    runner.setSourceWrapper(truncateFirstBenchmark(500));
    DriverOptions options;
    options.warmupBranches = 1000;
    std::vector<SweepConfiguration> configs;
    configs.push_back(
        {"a", smallPredictor(), smallEstimators()});
    configs.push_back(
        {"b", smallPredictor(), smallEstimators()});
    const auto sweep =
        runner.runSweep(configs, options, SweepOptions{});

    ASSERT_EQ(sweep.perConfig.size(), 2u);
    for (const auto &config_result : sweep.perConfig) {
        ASSERT_EQ(config_result.perBenchmark.size(), 2u);
        EXPECT_EQ(config_result.perBenchmark[0].branches, 0u);
        EXPECT_FALSE(config_result.degraded);
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
// RunPolicy: error isolation, retries, watchdog.

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

TEST(SuiteRunnerTest, ContinueOnErrorIsolatesTheFailure)
{
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 5000));
    runner.setSourceWrapper(failingWrapper(0));
    const auto result =
        runner.run(smallPredictor(), smallEstimators(), {},
                   RunPolicy::continueOnError());

    ASSERT_EQ(result.perBenchmark.size(), 2u);
    EXPECT_TRUE(result.perBenchmark[0].failed());
    EXPECT_NE(result.perBenchmark[0].error.find("injected fault"),
              std::string::npos);
    EXPECT_FALSE(result.perBenchmark[1].failed());
    EXPECT_TRUE(result.degraded);
    EXPECT_EQ(result.failedBenchmarks(), 1u);

    // Composites cover exactly the surviving benchmark.
    EXPECT_DOUBLE_EQ(result.compositeMispredictRate,
                     result.perBenchmark[1].mispredictRate);
    ASSERT_EQ(result.compositeEstimatorStats.size(), 1u);
    EXPECT_NEAR(result.compositeEstimatorStats[0].totalRefs(), 1e6,
                1.0);
    ASSERT_EQ(result.estimatorNames.size(), 1u);
    EXPECT_EQ(result.estimatorNames[0], "1lvl-PCxorBHR-reset16-4096");
}

TEST(SuiteRunnerTest, AllBenchmarksFailingGivesEmptyComposites)
{
    // When every benchmark fails under continue-on-error the composite
    // pass has zero survivors; it must report a clean degenerate
    // result (zero rate, empty composites), never NaN from a 0/0.
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 5000));
    runner.setSourceWrapper(
        [](std::size_t, std::unique_ptr<TraceSource> inner)
            -> std::unique_ptr<TraceSource> {
            FaultSpec spec;
            spec.failAfter = 500;
            return std::make_unique<FaultInjectingTraceSource>(
                std::move(inner), spec);
        });
    const auto result =
        runner.run(smallPredictor(), smallEstimators(), {},
                   RunPolicy::continueOnError());

    ASSERT_EQ(result.perBenchmark.size(), 2u);
    EXPECT_TRUE(result.perBenchmark[0].failed());
    EXPECT_TRUE(result.perBenchmark[1].failed());
    EXPECT_TRUE(result.degraded);
    EXPECT_EQ(result.failedBenchmarks(), 2u);
    EXPECT_FALSE(std::isnan(result.compositeMispredictRate));
    EXPECT_DOUBLE_EQ(result.compositeMispredictRate, 0.0);
    EXPECT_TRUE(result.estimatorNames.empty());
    EXPECT_TRUE(result.compositeEstimatorStats.empty());
    EXPECT_EQ(result.compositeStaticStats.size(), 0u);
}

TEST(SuiteRunnerTest, ContinueOnErrorWithoutFailuresIsNotDegraded)
{
    const auto fail_fast = runSmall(5000);
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 5000));
    DriverOptions options;
    options.profileStatic = true;
    const auto lenient =
        runner.run(smallPredictor(), smallEstimators(), options,
                   RunPolicy::continueOnError());

    EXPECT_FALSE(lenient.degraded);
    EXPECT_EQ(lenient.failedBenchmarks(), 0u);
    // Bit-identical to the default policy when nothing fails.
    ASSERT_EQ(lenient.perBenchmark.size(),
              fail_fast.perBenchmark.size());
    for (std::size_t i = 0; i < lenient.perBenchmark.size(); ++i) {
        EXPECT_EQ(lenient.perBenchmark[i].mispredicts,
                  fail_fast.perBenchmark[i].mispredicts);
        EXPECT_EQ(lenient.perBenchmark[i].branches,
                  fail_fast.perBenchmark[i].branches);
    }
    EXPECT_DOUBLE_EQ(lenient.compositeMispredictRate,
                     fail_fast.compositeMispredictRate);
}

TEST(SuiteRunnerTest, RetriesRecoverTransientFailures)
{
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg"}, 2000));
    auto first_attempts = std::make_shared<std::atomic<int>>(0);
    runner.setSourceWrapper(
        [first_attempts](std::size_t,
                         std::unique_ptr<TraceSource> inner)
            -> std::unique_ptr<TraceSource> {
            if (first_attempts->fetch_add(1) == 0) {
                FaultSpec spec;
                spec.failAfter = 100; // transient: first attempt only
                return std::make_unique<FaultInjectingTraceSource>(
                    std::move(inner), spec);
            }
            return inner;
        });

    RunPolicy policy = RunPolicy::continueOnError();
    policy.maxAttempts = 3;
    const auto result =
        runner.run(smallPredictor(), smallEstimators(), {}, policy);
    ASSERT_EQ(result.perBenchmark.size(), 1u);
    EXPECT_FALSE(result.perBenchmark[0].failed());
    EXPECT_EQ(result.perBenchmark[0].attempts, 2u);
    EXPECT_FALSE(result.degraded);
}

TEST(SuiteRunnerTest, PersistentFailureExhaustsAttempts)
{
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg"}, 2000));
    runner.setSourceWrapper(failingWrapper(0));
    RunPolicy policy = RunPolicy::continueOnError();
    policy.maxAttempts = 3;
    const auto result =
        runner.run(smallPredictor(), smallEstimators(), {}, policy);
    ASSERT_EQ(result.perBenchmark.size(), 1u);
    EXPECT_TRUE(result.perBenchmark[0].failed());
    EXPECT_EQ(result.perBenchmark[0].attempts, 3u);
}

TEST(SuiteRunnerTest, WatchdogMarksHungBenchmarkFailed)
{
    // A 1 ms budget on a multi-million-branch benchmark must trip the
    // watchdog; the benchmark is marked failed, not wedged, and the
    // timeout is not retried (attempts stays 1 despite maxAttempts).
    SuiteRunner runner(
        BenchmarkSuite::ibsSubset({"jpeg"}, 20'000'000));
    RunPolicy policy = RunPolicy::continueOnError();
    policy.watchdogMs = 1;
    policy.maxAttempts = 3;
    const auto result =
        runner.run(smallPredictor(), smallEstimators(), {}, policy);
    ASSERT_EQ(result.perBenchmark.size(), 1u);
    EXPECT_TRUE(result.perBenchmark[0].failed());
    EXPECT_NE(result.perBenchmark[0].error.find("wall-clock"),
              std::string::npos);
    EXPECT_EQ(result.perBenchmark[0].attempts, 1u);
    EXPECT_TRUE(result.degraded);
    EXPECT_EQ(result.compositeEstimatorStats.size(), 0u);
}

TEST(SuiteRunnerTest, SweepReportsAttemptsAfterRetry)
{
    // The first attempt's source fails; the retry succeeds. Every
    // configuration's result must report both attempts.
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg"}, 2000));
    auto first_attempts = std::make_shared<std::atomic<int>>(0);
    runner.setSourceWrapper(
        [first_attempts](std::size_t,
                         std::unique_ptr<TraceSource> inner)
            -> std::unique_ptr<TraceSource> {
            if (first_attempts->fetch_add(1) == 0) {
                FaultSpec spec;
                spec.failAfter = 100;
                return std::make_unique<FaultInjectingTraceSource>(
                    std::move(inner), spec);
            }
            return inner;
        });
    std::vector<SweepConfiguration> configs;
    configs.push_back({"a", smallPredictor(), smallEstimators()});
    configs.push_back({"b", smallPredictor(), smallEstimators()});

    RunPolicy policy = RunPolicy::continueOnError();
    policy.maxAttempts = 3;
    const auto sweep =
        runner.runSweep(configs, DriverOptions{}, SweepOptions{}, policy);
    ASSERT_EQ(sweep.perConfig.size(), 2u);
    for (const auto &config_result : sweep.perConfig) {
        ASSERT_EQ(config_result.perBenchmark.size(), 1u);
        EXPECT_FALSE(config_result.perBenchmark[0].failed());
        EXPECT_EQ(config_result.perBenchmark[0].attempts, 2u);
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

TEST(SuiteRunnerTest, SweepIsolatedConfigFailureKeepsItsCategory)
{
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg"}, 5000));
    std::vector<SweepConfiguration> configs;
    configs.push_back({"healthy", smallPredictor(), smallEstimators()});
    configs.push_back(
        {"failing", smallPredictor(), [] {
             std::vector<std::unique_ptr<ConfidenceEstimator>> out;
             out.push_back(std::make_unique<ResourceFailingEstimator>());
             return out;
         }});

    const auto sweep = runner.runSweep(configs, DriverOptions{},
                                       SweepOptions{},
                                       RunPolicy::continueOnError());
    ASSERT_EQ(sweep.perConfig.size(), 2u);
    EXPECT_FALSE(sweep.perConfig[0].perBenchmark[0].failed());
    const BenchmarkRunResult &failed = sweep.perConfig[1].perBenchmark[0];
    EXPECT_TRUE(failed.failed());
    EXPECT_NE(failed.error.find("table allocation failed"),
              std::string::npos);
    EXPECT_EQ(failed.errorCategory, ErrorCategory::kResource);
}

TEST(SuiteRunnerTest, SweepRejectsCallerSetPool)
{
    // runSweep always builds and owns its worker pool; a pool handed
    // in through SweepOptions is a configuration error, not used.
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg"}, 2000));
    SweepWorkerPool pool(2);
    SweepOptions sweep;
    sweep.pool = &pool;
    try {
        runner.runSweep({{"a", smallPredictor(), smallEstimators()}},
                        DriverOptions{}, sweep);
        FAIL() << "runSweep accepted a caller-set pool";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kConfig);
    }
    EXPECT_EQ(pool.occupancyStats().count(), 0u);
}

TEST(SuiteRunnerTest, AutoScheduleOverlapsBenchmarksBeforeShards)
{
    // The worker budget W goes to whole-benchmark passes first:
    // min(W, benchmarks) passes whatever the configuration count, and
    // run() follows the same rule as a default runSweep.
    if (std::getenv("CONFSIM_SEQUENTIAL") != nullptr)
        GTEST_SKIP() << "CONFSIM_SEQUENTIAL replaces the rule";
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

TEST(SuiteRunnerTest, PlannedPassesRejectIsolationAndCheckpoints)
{
    // A planned pass's slot logs survive neither an isolated
    // configuration failure nor a resume, so runPasses refuses those
    // policies before any plan hook runs.
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
    for (const RunPolicy &policy :
         {RunPolicy::continueOnError(), checkpointed}) {
        try {
            (void)runner.runPasses(
                {{"a", smallPredictor(), smallEstimators()}},
                DriverOptions{}, SweepOptions{}, policy, hooks);
            ADD_FAILURE() << "a planned pass accepted the policy";
        } catch (const Error &e) {
            EXPECT_EQ(e.category(), ErrorCategory::kConfig) << e.what();
        }
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
