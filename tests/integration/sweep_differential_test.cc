/**
 * @file
 * Differential correctness harness for the sweep engine.
 *
 * The sweep engine's entire contract is bit-exactness: running N
 * configurations through one shared decode pass must produce EXACTLY
* what N independent sequential SimulationDriver runs produce — same
 * branch counts, same per-bucket reference/misprediction doubles, same
 * reduction curves, same serialized component bytes. These tests run
 * every (predictor, estimator) family in the shared registry
 * (family_registry.h) through both paths and compare without
 * tolerance — a family added to the registry can never silently skip
 * this wall. Batch size, the suite's worker budget and concurrent
 * passes are varied to prove they never leak into results, and sweep
 * checkpoints are round-tripped to prove resume is bit-exact too.
 */

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "ckpt/checkpoint_store.h"
#include "metrics/confidence_curve.h"
#include "family_registry.h"
#include "sim/driver.h"
#include "sim/suite_runner.h"
#include "sim/sweep_engine.h"
#include "workload/suite.h"

namespace confsim {
namespace {

constexpr std::uint64_t kBranches = 60'000;

using Family = DifferentialFamily;

/** Every (predictor, estimator) family in the shared registry. */
std::vector<Family>
allFamilies()
{
    return differentialFamilyRegistry();
}

/** Fresh deterministic source: benchmark 0 of the reduced suite. */
std::unique_ptr<TraceSource>
freshSource(std::uint64_t branches = kBranches)
{
    return BenchmarkSuite::ibsSmall(branches).makeGenerator(0);
}

/** The sequential reference: one driver run plus final state bytes. */
struct SequentialRun
{
    DriverResult result;
    std::vector<std::uint8_t> stateBytes;
};

/** Serialize predictor + estimator state with fixed component names. */
std::vector<std::uint8_t>
snapshotBytes(BranchPredictor &predictor,
              const std::vector<ConfidenceEstimator *> &estimators)
{
    Checkpoint ckpt;
    ckpt.label = "differential";
    ckpt.addComponent("predictor", predictor);
    for (std::size_t i = 0; i < estimators.size(); ++i) {
        ckpt.addComponent("estimator" + std::to_string(i),
                          *estimators[i]);
    }
    return ckpt.serialize();
}

SequentialRun
runSequential(const Family &family, DriverOptions options,
              std::uint64_t branches = kBranches)
{
    auto predictor = family.makePredictor();
    auto owned = family.makeEstimators();
    std::vector<ConfidenceEstimator *> raw;
    raw.reserve(owned.size());
    for (auto &estimator : owned)
        raw.push_back(estimator.get());
    SimulationDriver driver(*predictor, raw, options);
    auto source = freshSource(branches);
    SequentialRun run;
    run.result = driver.run(*source);
    run.stateBytes = snapshotBytes(*predictor, raw);
    return run;
}

/** Bit-exact comparison of one config's sweep result vs the driver. */
void
expectIdentical(const DriverResult &sequential,
                const SweepConfigResult &sweep,
                const std::string &context)
{
    SCOPED_TRACE(context);
    EXPECT_EQ(sequential.branches, sweep.branches);
    EXPECT_EQ(sequential.mispredicts, sweep.mispredicts);
    EXPECT_EQ(sequential.contextSwitches, sweep.contextSwitches);
    ASSERT_EQ(sequential.estimatorStats.size(),
              sweep.estimatorStats.size());
    for (std::size_t e = 0; e < sequential.estimatorStats.size();
         ++e) {
        const BucketStats &expected = sequential.estimatorStats[e];
        const BucketStats &actual = sweep.estimatorStats[e];
        ASSERT_EQ(expected.numBuckets(), actual.numBuckets());
        for (std::uint64_t b = 0; b < expected.numBuckets(); ++b) {
            // Exact double equality: both paths perform identical
            // +1.0 increments in identical order.
            EXPECT_EQ(expected[b].refs, actual[b].refs)
                << "bucket " << b;
            EXPECT_EQ(expected[b].mispredicts, actual[b].mispredicts)
                << "bucket " << b;
        }

        const ConfidenceCurve expected_curve =
            ConfidenceCurve::fromBucketStats(expected);
        const ConfidenceCurve actual_curve =
            ConfidenceCurve::fromBucketStats(actual);
        ASSERT_EQ(expected_curve.points().size(),
                  actual_curve.points().size());
        for (std::size_t p = 0; p < expected_curve.points().size();
             ++p) {
            EXPECT_EQ(expected_curve.points()[p].bucket,
                      actual_curve.points()[p].bucket);
            EXPECT_EQ(expected_curve.points()[p].refFraction,
                      actual_curve.points()[p].refFraction);
            EXPECT_EQ(expected_curve.points()[p].mispredFraction,
                      actual_curve.points()[p].mispredFraction);
        }
    }

    // Static profile (only populated when profiling was on).
    ASSERT_EQ(sequential.staticProfile.size(),
              sweep.staticProfile.size());
    for (const auto &[pc, entry] :
         sequential.staticProfile.entries()) {
        const auto it = sweep.staticProfile.entries().find(pc);
        ASSERT_NE(it, sweep.staticProfile.entries().end())
            << "pc " << pc;
        EXPECT_EQ(entry.executions, it->second.executions);
        EXPECT_EQ(entry.mispredictions, it->second.mispredictions);
        EXPECT_EQ(entry.takenCount, it->second.takenCount);
    }
}

/** Build a sweep configuration per family. */
std::vector<SweepConfiguration>
familyConfigs(const std::vector<Family> &families)
{
    std::vector<SweepConfiguration> configs;
    configs.reserve(families.size());
    for (const auto &family : families)
        configs.push_back({family.label, family.makePredictor,
                           family.makeEstimators});
    return configs;
}

TEST(SweepDifferential, AllFamiliesBitExactSingleThread)
{
    const std::vector<Family> families = allFamilies();
    DriverOptions options;
    options.profileStatic = true;

    SweepEngine engine(familyConfigs(families), options);
    auto source = freshSource();
    const SweepRunResult result = engine.run(*source);

    ASSERT_EQ(result.perConfig.size(), families.size());
    for (std::size_t c = 0; c < families.size(); ++c) {
        const SequentialRun reference =
            runSequential(families[c], options);
        expectIdentical(reference.result, result.perConfig[c],
                        families[c].label + " (1 thread)");
    }
}

TEST(SweepDifferential, AllFamiliesBitExactMultiThread)
{
    // Two engines replaying every family at once, each on its own
    // thread as two suite passes do: they share no state, so both
    // match the sequential runs exactly.
    const std::vector<Family> families = allFamilies();
    DriverOptions options;
    options.profileStatic = true;

    SweepOptions sweep;
    sweep.batchSize = 1000; // not a divisor of the trace length
    std::vector<SweepRunResult> results(2);
    {
        std::vector<std::jthread> passes;
        for (SweepRunResult &result : results) {
            passes.emplace_back([&] {
                SweepEngine engine(familyConfigs(families), options,
                                   sweep);
                auto source = freshSource();
                result = engine.run(*source);
            });
        }
    }

    for (std::size_t c = 0; c < families.size(); ++c) {
        const SequentialRun reference =
            runSequential(families[c], options);
        for (std::size_t pass = 0; pass < results.size(); ++pass) {
            ASSERT_EQ(results[pass].perConfig.size(), families.size());
            expectIdentical(reference.result, results[pass].perConfig[c],
                            families[c].label + " (pass " +
                                std::to_string(pass) + ")");
        }
    }
}

TEST(SweepDifferential, BatchSizeNeverChangesResults)
{
    const Family family = differentialFamilyNamed("counter_resetting");
    DriverOptions options;
    options.profileStatic = true;
    const SequentialRun reference = runSequential(family, options);

    for (const std::size_t batch_size :
         {std::size_t{1}, std::size_t{7}, std::size_t{101},
          std::size_t{4096}}) {
        SweepOptions sweep;
        sweep.batchSize = batch_size;
        SweepEngine engine(familyConfigs({family, family}), options,
                           sweep);
        auto source = freshSource();
        const SweepRunResult result = engine.run(*source);
        ASSERT_EQ(result.perConfig.size(), 2u);
        for (std::size_t c = 0; c < 2; ++c) {
            expectIdentical(reference.result, result.perConfig[c],
                            "batch size " +
                                std::to_string(batch_size) +
                                " config " + std::to_string(c));
        }
    }
}

TEST(SweepDifferential, ContextSwitchIntervalsBitExact)
{
    const Family family = differentialFamilyNamed("counter_saturating");
    for (const std::uint64_t interval :
         {std::uint64_t{0}, std::uint64_t{1000}, std::uint64_t{777},
          std::uint64_t{500}, std::uint64_t{700}, std::uint64_t{1}}) {
        DriverOptions options;
        options.profileStatic = true;
        options.contextSwitchInterval = interval;

        const SequentialRun reference =
            runSequential(family, options, 20'000);

        SweepOptions sweep;
        sweep.batchSize = 333;
        SweepEngine engine(familyConfigs({family, family}), options,
                           sweep);
        auto source = freshSource(20'000);
        const SweepRunResult result = engine.run(*source);
        for (std::size_t c = 0; c < 2; ++c) {
            expectIdentical(reference.result, result.perConfig[c],
                            "interval=" + std::to_string(interval) +
                                " config " + std::to_string(c));
        }
    }
}

TEST(SweepDifferential, FinalComponentBytesMatchSequential)
{
    // Serialize the final predictor/estimator state reached through
    // each path with identical component names: the checkpoint bytes
    // must be identical, which subsumes every counter, CIR, and table
    // entry the estimator owns.
    const std::vector<Family> families = allFamilies();
    DriverOptions options;

    // Drive the sweep manually so the final states stay accessible:
    // one config per engine, capturing through a wrapper factory.
    for (const auto &family : families) {
        const SequentialRun reference = runSequential(family, options);

        BranchPredictor *sweep_predictor = nullptr;
        std::vector<ConfidenceEstimator *> sweep_estimators;
        SweepConfiguration config;
        config.label = family.label;
        config.makePredictor = [&family, &sweep_predictor] {
            auto predictor = family.makePredictor();
            sweep_predictor = predictor.get();
            return predictor;
        };
        config.makeEstimators = [&family, &sweep_estimators] {
            auto owned = family.makeEstimators();
            sweep_estimators.clear();
            for (auto &estimator : owned)
                sweep_estimators.push_back(estimator.get());
            return owned;
        };

        SweepEngine engine({config}, options);
        auto source = freshSource();
        engine.run(*source);

        ASSERT_NE(sweep_predictor, nullptr);
        EXPECT_EQ(reference.stateBytes,
                  snapshotBytes(*sweep_predictor, sweep_estimators))
            << family.label;
    }
}

TEST(SweepDifferential, CheckpointResumeIsBitExact)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        "sweep_resume_differential";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    const std::vector<Family> families = {
        differentialFamilyNamed("one_level_raw_pc"),
        differentialFamilyNamed("counter_resetting"),
        differentialFamilyNamed("tage_provider"),
        differentialFamilyNamed("perceptron_margin")};
    DriverOptions options;
    options.profileStatic = true;

    // Uninterrupted reference sweep.
    SweepEngine reference_engine(familyConfigs(families), options);
    auto reference_source = freshSource();
    const SweepRunResult reference =
        reference_engine.run(*reference_source);

    // Checkpointed sweep: write generations mid-run...
    CheckpointStore store(dir.string(), "sweep-test", 2);
    SweepEngine first_engine(familyConfigs(families), options);
    first_engine.checkpointEvery(20'000, &store);
    auto first_source = freshSource();
    const SweepRunResult first = first_engine.run(*first_source);
    ASSERT_GT(first.checkpointsWritten, 0u);

    // ...then resume a fresh engine from the newest valid generation
    // and compare against the uninterrupted run.
    const auto ckpt = store.loadLatestValid();
    ASSERT_TRUE(ckpt.has_value());
    SweepEngine resumed_engine(familyConfigs(families), options);
    auto resumed_source = freshSource();
    const SweepRunResult resumed =
        resumed_engine.resume(*resumed_source, *ckpt);

    ASSERT_EQ(reference.perConfig.size(), resumed.perConfig.size());
    for (std::size_t c = 0; c < reference.perConfig.size(); ++c) {
        const SweepConfigResult &expected = reference.perConfig[c];
        const SweepConfigResult &actual = resumed.perConfig[c];
        SCOPED_TRACE(families[c].label);
        EXPECT_EQ(expected.branches, actual.branches);
        EXPECT_EQ(expected.mispredicts, actual.mispredicts);
        ASSERT_EQ(expected.estimatorStats.size(),
                  actual.estimatorStats.size());
        for (std::size_t e = 0; e < expected.estimatorStats.size();
             ++e) {
            const BucketStats &eb = expected.estimatorStats[e];
            const BucketStats &ab = actual.estimatorStats[e];
            ASSERT_EQ(eb.numBuckets(), ab.numBuckets());
            for (std::uint64_t b = 0; b < eb.numBuckets(); ++b) {
                EXPECT_EQ(eb[b].refs, ab[b].refs);
                EXPECT_EQ(eb[b].mispredicts, ab[b].mispredicts);
            }
        }
    }
}

/** Exact comparison of two SweepSuiteResults (ignores wall times). */
void
expectSuiteResultsIdentical(const SweepSuiteResult &expected,
                            const SweepSuiteResult &actual)
{
    ASSERT_EQ(expected.perConfig.size(), actual.perConfig.size());
    ASSERT_EQ(expected.labels, actual.labels);
    for (std::size_t c = 0; c < expected.perConfig.size(); ++c) {
        SCOPED_TRACE("config " + expected.labels[c]);
        const SuiteRunResult &ec = expected.perConfig[c];
        const SuiteRunResult &ac = actual.perConfig[c];
        ASSERT_EQ(ec.perBenchmark.size(), ac.perBenchmark.size());
        for (std::size_t b = 0; b < ec.perBenchmark.size(); ++b) {
            const BenchmarkRunResult &eb = ec.perBenchmark[b];
            const BenchmarkRunResult &ab = ac.perBenchmark[b];
            EXPECT_EQ(eb.name, ab.name);
            EXPECT_EQ(eb.branches, ab.branches);
            EXPECT_EQ(eb.mispredicts, ab.mispredicts);
            EXPECT_EQ(eb.mispredictRate, ab.mispredictRate);
            EXPECT_EQ(eb.staticStats.totalRefs(),
                      ab.staticStats.totalRefs());
            EXPECT_EQ(eb.staticStats.totalMispredicts(),
                      ab.staticStats.totalMispredicts());
            ASSERT_EQ(eb.estimatorStats.size(),
                      ab.estimatorStats.size());
            for (std::size_t e = 0; e < eb.estimatorStats.size();
                 ++e) {
                const BucketStats &es = eb.estimatorStats[e];
                const BucketStats &as = ab.estimatorStats[e];
                ASSERT_EQ(es.numBuckets(), as.numBuckets());
                for (std::uint64_t bucket = 0;
                     bucket < es.numBuckets(); ++bucket) {
                    EXPECT_EQ(es[bucket].refs, as[bucket].refs);
                    EXPECT_EQ(es[bucket].mispredicts,
                              as[bucket].mispredicts);
                }
            }
        }
        EXPECT_EQ(ec.compositeMispredictRate,
                  ac.compositeMispredictRate);
        EXPECT_EQ(ec.compositeDegraded, ac.compositeDegraded);
        ASSERT_EQ(ec.compositeEstimatorStats.size(),
                  ac.compositeEstimatorStats.size());
        for (std::size_t e = 0;
             e < ec.compositeEstimatorStats.size(); ++e) {
            const BucketStats &es = ec.compositeEstimatorStats[e];
            const BucketStats &as = ac.compositeEstimatorStats[e];
            ASSERT_EQ(es.numBuckets(), as.numBuckets());
            for (std::uint64_t bucket = 0; bucket < es.numBuckets();
                 ++bucket) {
                EXPECT_EQ(es[bucket].refs, as[bucket].refs);
                EXPECT_EQ(es[bucket].mispredicts,
                          as[bucket].mispredicts);
            }
        }
        EXPECT_EQ(ec.compositeStaticStats.totalRefs(),
                  ac.compositeStaticStats.totalRefs());
    }
}

TEST(SweepDifferential, WorkerBudgetScheduleNeverChangesResults)
{
    // Every worker budget W over the three-benchmark suite against one
    // pass at a time: W = 2 runs two passes at once, W = 3 and up all
    // three, and W = 8 leaves five of its workers unused. Identical
    // outputs, identical suite ordering, identical composites.
    const std::vector<Family> families = {
        differentialFamilyNamed("counter_resetting"),
        differentialFamilyNamed("tage_provider")};
    DriverOptions options;
    options.profileStatic = true;
    SuiteRunner runner(BenchmarkSuite::ibsSmall(20'000));
    ASSERT_EQ(runner.suite().size(), 3u);

    SweepOptions sequential;
    sequential.threads = 1;
    const SweepSuiteResult reference = runner.runSweep(
        familyConfigs(families), options, sequential, RunPolicy{});

    for (const unsigned budget : {2u, 3u, 4u, 8u}) {
        SweepOptions scheduled;
        scheduled.threads = budget;
        const SweepSuiteResult result = runner.runSweep(
            familyConfigs(families), options, scheduled, RunPolicy{});
        SCOPED_TRACE("worker budget " + std::to_string(budget));
        expectSuiteResultsIdentical(reference, result);
    }
}

TEST(SweepDifferential, SweepWallTimeIsSharedEquallyAcrossConfigs)
{
    // The pass is shared: each config's per-benchmark wallMs must be
    // an equal 1/numConfigs share, so summing over configs recovers
    // the pass cost instead of multiplying it.
    const std::vector<Family> families = {
        differentialFamilyNamed("one_level_raw_pc"),
        differentialFamilyNamed("counter_saturating"),
        differentialFamilyNamed("self_counter")};
    SuiteRunner runner(BenchmarkSuite::ibsSmall(10'000));
    const SweepSuiteResult swept = runner.runSweep(
        familyConfigs(families), DriverOptions{}, SweepOptions{},
        RunPolicy{});
    ASSERT_EQ(swept.perConfig.size(), families.size());
    const std::size_t benches = swept.perConfig[0].perBenchmark.size();
    ASSERT_GT(benches, 0u);
    for (std::size_t b = 0; b < benches; ++b) {
        const double share =
            swept.perConfig[0].perBenchmark[b].wallMs;
        EXPECT_GE(share, 0.0);
        for (std::size_t c = 1; c < families.size(); ++c) {
            EXPECT_EQ(share,
                      swept.perConfig[c].perBenchmark[b].wallMs)
                << "benchmark " << b << " config " << c;
        }
    }
}

TEST(SweepDifferential, SuiteRunnerSweepMatchesSequentialRun)
{
    // The full SuiteRunner integration: per-benchmark results AND the
    // Section 1.2 composites must match the sequential path exactly,
    // for every attached configuration.
    const std::vector<Family> families = {
        differentialFamilyNamed("counter_saturating"),
        differentialFamilyNamed("perceptron_margin")};
    DriverOptions options;
    options.profileStatic = true;

    SuiteRunner runner(BenchmarkSuite::ibsSmall(20'000));

    SweepOptions sweep;
    sweep.threads = 2;
    const SweepSuiteResult swept = runner.runSweep(
        familyConfigs(families), options, sweep, RunPolicy{});

    ASSERT_EQ(swept.perConfig.size(), families.size());
    for (std::size_t c = 0; c < families.size(); ++c) {
        SCOPED_TRACE(families[c].label);
        const SuiteRunResult expected =
            runner.run(families[c].makePredictor,
                       families[c].makeEstimators, options, RunPolicy{});
        const SuiteRunResult &actual = swept.perConfig[c];

        ASSERT_EQ(expected.perBenchmark.size(),
                  actual.perBenchmark.size());
        for (std::size_t b = 0; b < expected.perBenchmark.size();
             ++b) {
            const BenchmarkRunResult &eb = expected.perBenchmark[b];
            const BenchmarkRunResult &ab = actual.perBenchmark[b];
            EXPECT_EQ(eb.name, ab.name);
            EXPECT_EQ(eb.branches, ab.branches);
            EXPECT_EQ(eb.mispredicts, ab.mispredicts);
            EXPECT_EQ(eb.mispredictRate, ab.mispredictRate);
            EXPECT_EQ(eb.staticStats.totalRefs(),
                      ab.staticStats.totalRefs());
            EXPECT_EQ(eb.staticStats.totalMispredicts(),
                      ab.staticStats.totalMispredicts());
        }

        ASSERT_EQ(expected.compositeEstimatorStats.size(),
                  actual.compositeEstimatorStats.size());
        for (std::size_t e = 0;
             e < expected.compositeEstimatorStats.size(); ++e) {
            const BucketStats &eb =
                expected.compositeEstimatorStats[e];
            const BucketStats &ab =
                actual.compositeEstimatorStats[e];
            ASSERT_EQ(eb.numBuckets(), ab.numBuckets());
            for (std::uint64_t b = 0; b < eb.numBuckets(); ++b) {
                EXPECT_EQ(eb[b].refs, ab[b].refs);
                EXPECT_EQ(eb[b].mispredicts, ab[b].mispredicts);
            }
        }
        EXPECT_EQ(expected.compositeMispredictRate,
                  actual.compositeMispredictRate);
        EXPECT_EQ(expected.compositeStaticStats.totalRefs(),
                  actual.compositeStaticStats.totalRefs());
    }
}

} // namespace
} // namespace confsim
