/**
 * @file
 * Sampling determinism + accuracy differentials.
 *
 * The sampling engine inherits the sweep engine's bit-exactness
 * contract: given one seed, region selections AND estimates must be
 * bit-identical whatever the worker budget (how many benchmark passes
 * overlap) or batch size, and whether the replay jumps over
 * skipped regions by restoring source snapshots or reads through
 * them. And against the differential harness's exact ground truth,
 * the 95% CIs must do their job: contain the full-replay
 * misprediction rate, per benchmark and composite.
 */

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "predictor/gshare.h"
#include "sim/experiment.h"
#include "sim/sampling_engine.h"
#include "sim/suite_runner.h"
#include "workload/workload_generator.h"

namespace confsim {
namespace {

/**
 * Two gshare + CIR configurations and a small TAGE + provider one: a
 * predictor that memoizes its lookup, read by a bound estimator, under
 * the skip and warm-only plan modes.
 */
std::vector<SweepConfiguration>
sampledConfigs()
{
    std::vector<SweepConfiguration> configs;
    for (const char *label : {"large", "small"}) {
        SweepConfiguration config;
        config.label = label;
        const bool large = std::string(label) == "large";
        config.makePredictor = [large] {
            return std::make_unique<GsharePredictor>(
                large ? 65536 : 4096, large ? 16 : 12);
        };
        config.makeEstimators = [] {
            std::vector<std::unique_ptr<ConfidenceEstimator>> out;
            out.push_back(std::make_unique<OneLevelCirConfidence>(
                IndexScheme::PcXorBhr, 4096, 16,
                CirReduction::RawPattern, CtInit::Ones));
            return out;
        };
        configs.push_back(std::move(config));
    }
    SweepConfiguration tage;
    tage.label = "tage";
    tage.makePredictor = tageFactory();
    tage.makeEstimators = [make = tageProviderConfig().make] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(make());
        return out;
    };
    configs.push_back(std::move(tage));
    return configs;
}

SamplingOptions
baseOptions()
{
    SamplingOptions options;
    options.sampleRate = 0.1;
    options.regionBranches = 2000;
    options.strata = 4;
    options.subsamples = 5;
    options.seed = 0xFEED;
    return options;
}

/** Two benchmarks: at a budget of 4, two passes at once. */
BenchmarkSuite
twoBenchmarks()
{
    return BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"}, 100000);
}

/** Three benchmarks: at a budget of 3, three passes at once. */
BenchmarkSuite
threeBenchmarks()
{
    return BenchmarkSuite::ibsSubset({"jpeg", "real_gcc", "groff"},
                                     100000);
}

SamplingRunResult
runSampled(const SamplingOptions &options,
           const BenchmarkSuite &suite = twoBenchmarks())
{
    SuiteRunner runner(suite);
    SamplingEngine engine(sampledConfigs(), DriverOptions{}, options);
    return engine.runSuite(runner);
}

void
expectIdentical(const SamplingRunResult &a, const SamplingRunResult &b)
{
    ASSERT_EQ(a.perBenchmark.size(), b.perBenchmark.size());
    EXPECT_EQ(a.totalBranches, b.totalBranches);
    EXPECT_EQ(a.recordedBranches, b.recordedBranches);
    for (std::size_t i = 0; i < a.perBenchmark.size(); ++i) {
        const SamplingBenchmarkResult &ba = a.perBenchmark[i];
        const SamplingBenchmarkResult &bb = b.perBenchmark[i];
        EXPECT_EQ(ba.sampledRegionIds, bb.sampledRegionIds)
            << ba.name;
        ASSERT_EQ(ba.perConfig.size(), bb.perConfig.size());
        for (std::size_t c = 0; c < ba.perConfig.size(); ++c) {
            const SamplingConfigEstimate &ea = ba.perConfig[c];
            const SamplingConfigEstimate &eb = bb.perConfig[c];
            // Bit-identical, not approximately equal: the plan cursor
            // is a pure function of the per-config simulated count.
            EXPECT_EQ(ea.rateSubsamples, eb.rateSubsamples)
                << ba.name << "/" << ea.label;
            EXPECT_EQ(ea.coverageSubsamples, eb.coverageSubsamples);
            EXPECT_EQ(ea.pvnSubsamples, eb.pvnSubsamples);
            EXPECT_DOUBLE_EQ(ea.mispredictRate.mean,
                             eb.mispredictRate.mean);
            EXPECT_DOUBLE_EQ(ea.mispredictRate.ciHalf,
                             eb.mispredictRate.ciHalf);
        }
    }
    ASSERT_EQ(a.composite.size(), b.composite.size());
    for (std::size_t c = 0; c < a.composite.size(); ++c) {
        EXPECT_EQ(a.composite[c].rateSubsamples,
                  b.composite[c].rateSubsamples);
        EXPECT_DOUBLE_EQ(a.composite[c].mispredictRate.mean,
                         b.composite[c].mispredictRate.mean);
    }
}

TEST(SamplingDifferentialTest, ThreadCountNeverChangesEstimates)
{
    SamplingOptions one = baseOptions();
    one.sweep.threads = 1;
    SamplingOptions many = baseOptions();
    many.sweep.threads = 4;
    expectIdentical(runSampled(one), runSampled(many));
    SamplingOptions three = baseOptions();
    three.sweep.threads = 3;
    expectIdentical(runSampled(one, threeBenchmarks()),
                    runSampled(three, threeBenchmarks()));
}

TEST(SamplingDifferentialTest, BatchSizeNeverChangesEstimates)
{
    SamplingOptions small = baseOptions();
    small.sweep.batchSize = 512;
    SamplingOptions large = baseOptions();
    large.sweep.batchSize = 8192;
    expectIdentical(runSampled(small), runSampled(large));
}

TEST(SamplingDifferentialTest,
     ThreadCountNeverChangesBoundedWarmingEstimates)
{
    SamplingOptions one = baseOptions();
    one.warmupRegions = 2;
    one.sweep.threads = 1;
    SamplingOptions many = baseOptions();
    many.warmupRegions = 2;
    many.sweep.threads = 4;
    expectIdentical(runSampled(one), runSampled(many));
    SamplingOptions three = baseOptions();
    three.warmupRegions = 2;
    three.sweep.threads = 3;
    expectIdentical(runSampled(one, threeBenchmarks()),
                    runSampled(three, threeBenchmarks()));
}

/**
 * A source that cannot snapshot: checkpointable() stays false, so a
 * planned replay over it reads forward through every skipped gap.
 */
class ForwardOnlySource : public TraceSource
{
  public:
    explicit ForwardOnlySource(std::unique_ptr<TraceSource> inner)
        : inner_(std::move(inner))
    {}

    bool next(BranchRecord &record) override { return inner_->next(record); }
    void reset() override { inner_->reset(); }

  private:
    std::unique_ptr<TraceSource> inner_;
};

void
hideSnapshots(SuiteRunner &runner)
{
    runner.setSourceWrapper(
        [](std::size_t, std::unique_ptr<TraceSource> inner)
            -> std::unique_ptr<TraceSource> {
            return std::make_unique<ForwardOnlySource>(std::move(inner));
        });
}

/** A 2-region warming window; switches every 4500 branches, which
 *  neither divides the 2000-branch regions nor fits in the window. */
SamplingOptions
boundedOptions()
{
    SamplingOptions options = baseOptions();
    options.warmupRegions = 2;
    return options;
}

DriverOptions
switchingDriver()
{
    DriverOptions driver;
    driver.contextSwitchInterval = 4500;
    return driver;
}

/** Each benchmark's bounded-window plan and the replay run under it. */
struct PlannedPass
{
    SweepRecordingPlan plan;
    SweepRunResult replay;
};

/** The replays a bounded-window sampled suite over @p runner runs. */
std::vector<PlannedPass>
plannedPasses(const SuiteRunner &runner)
{
    const SamplingEngine engine(sampledConfigs(), switchingDriver(),
                                boundedOptions());
    std::vector<PlannedPass> passes(runner.suite().size());
    SuiteRunner::PassHooks hooks;
    hooks.plan = [&](std::size_t bench, TraceSource &source) {
        passes[bench].plan = engine.recordingPlan(
            runner.suite().profile(bench).name, source);
        return passes[bench].plan;
    };
    hooks.finish = [&](std::size_t bench, const SweepRunResult &pass) {
        passes[bench].replay = pass;
    };
    SweepOptions sweep;
    sweep.threads = 2;
    (void)runner.runPasses(sampledConfigs(), switchingDriver(), sweep, {},
                           hooks);
    return passes;
}

TEST(SamplingDifferentialTest, SeekingOverSkippedRegionsNeverChangesResults)
{
    SuiteRunner seeking(threeBenchmarks());
    SuiteRunner reading(threeBenchmarks());
    hideSnapshots(reading);

    SamplingEngine engine(sampledConfigs(), switchingDriver(),
                          boundedOptions());
    expectIdentical(engine.runSuite(seeking), engine.runSuite(reading));

    const std::vector<PlannedPass> seeks = plannedPasses(seeking);
    const std::vector<PlannedPass> reads = plannedPasses(reading);
    for (std::size_t b = 0; b < seeks.size(); ++b) {
        SCOPED_TRACE(seeking.suite().profile(b).name);
        EXPECT_FALSE(seeks[b].plan.snapshots.empty());
        EXPECT_TRUE(reads[b].plan.snapshots.empty());
        const SweepRunResult &seek = seeks[b].replay;
        const SweepRunResult &read = reads[b].replay;
        EXPECT_EQ(seek.records, read.records);
        EXPECT_EQ(seek.branches, read.branches);
        ASSERT_EQ(seek.perConfig.size(), read.perConfig.size());
        for (std::size_t c = 0; c < seek.perConfig.size(); ++c) {
            const SweepConfigResult &a = seek.perConfig[c];
            const SweepConfigResult &z = read.perConfig[c];
            SCOPED_TRACE(a.label);
            EXPECT_GT(a.contextSwitches, 0u);
            EXPECT_EQ(a.contextSwitches, z.contextSwitches);
            EXPECT_EQ(a.branches, z.branches);
            EXPECT_EQ(a.mispredicts, z.mispredicts);
            ASSERT_EQ(a.slotStats.size(), z.slotStats.size());
            for (std::size_t slot = 0; slot < a.slotStats.size(); ++slot) {
                EXPECT_EQ(a.slotStats[slot].branches,
                          z.slotStats[slot].branches);
                EXPECT_EQ(a.slotStats[slot].mispredicts,
                          z.slotStats[slot].mispredicts);
                EXPECT_EQ(a.slotStats[slot].estimatorLogs,
                          z.slotStats[slot].estimatorLogs)
                    << "slot " << slot;
            }
        }
    }
}

TEST(SamplingDifferentialTest, PlannedReplayBatchesOnlyWorkedRegions)
{
    SuiteRunner runner(threeBenchmarks());
    const std::vector<PlannedPass> passes = plannedPasses(runner);
    for (std::size_t b = 0; b < passes.size(); ++b) {
        const BenchmarkProfile &profile = runner.suite().profile(b);
        SCOPED_TRACE(profile.name);
        // Generated IBS traces hold conditionals only, so the worked
        // regions' records are their conditionals.
        const SweepRecordingPlan &plan = passes[b].plan;
        const std::uint64_t total = 100000;
        std::uint64_t worked = 0;
        for (std::size_t r = 0; r < plan.regionSlots.size(); ++r) {
            if (plan.regionSlots[r] != SweepRecordingPlan::kSkip) {
                worked += std::min(plan.regionBranches,
                                   total - r * plan.regionBranches);
            }
        }
        const SweepRunResult &planned = passes[b].replay;
        EXPECT_LT(worked, total / 2);
        EXPECT_EQ(planned.records, worked);
        EXPECT_EQ(planned.branches, worked);

        SweepEngine unplanned_engine(sampledConfigs(), switchingDriver(),
                                     SweepOptions{});
        WorkloadGenerator workload(profile, total);
        const SweepRunResult unplanned = unplanned_engine.run(workload);
        EXPECT_EQ(unplanned.records, total);
        EXPECT_LE(planned.batches * 2, unplanned.batches)
            << planned.batches << " planned batches against "
            << unplanned.batches;
    }
}

TEST(SamplingDifferentialTest, CiContainsExactGroundTruth)
{
    // The differential harness as oracle: replay the identical suite
    // exactly through the sweep engine, then require every sampled
    // 95% CI — per benchmark and composite — to contain it.
    SuiteRunner runner(
        BenchmarkSuite::ibsSubset({"jpeg", "real_gcc", "groff"},
                                  100000));
    const SweepSuiteResult exact =
        runner.runSweep(sampledConfigs(), DriverOptions{}, SweepOptions{});

    SamplingEngine engine(sampledConfigs(), DriverOptions{},
                          baseOptions());
    const SamplingRunResult sampled = engine.runSuite(runner);

    EXPECT_GE(sampled.reductionFactor(), 5.0);
    for (std::size_t c = 0; c < exact.perConfig.size(); ++c) {
        const SuiteRunResult &truth = exact.perConfig[c];
        for (std::size_t b = 0; b < sampled.perBenchmark.size();
             ++b) {
            const IntervalEstimate &est =
                sampled.perBenchmark[b].perConfig[c].mispredictRate;
            EXPECT_TRUE(est.contains(
                truth.perBenchmark[b].mispredictRate))
                << sampled.perBenchmark[b].name << "/"
                << truth.perBenchmark[b].name << " config " << c
                << ": exact " << truth.perBenchmark[b].mispredictRate
                << " outside [" << est.ciLow() << ", "
                << est.ciHigh() << "]";
        }
        const IntervalEstimate &composite =
            sampled.composite[c].mispredictRate;
        EXPECT_TRUE(
            composite.contains(truth.compositeMispredictRate))
            << "composite config " << c << ": exact "
            << truth.compositeMispredictRate << " outside ["
            << composite.ciLow() << ", " << composite.ciHigh()
            << "]";
    }
}

} // namespace
} // namespace confsim
