/**
 * @file
 * Chaos-hardening suite for the sweep pipeline.
 *
 * Every test here runs a sweep under an injected FaultPlan
 * (fault/fault_plan.h) and checks the three invariants the robustness
 * design promises:
 *
 *  1. A fault fails fast: a configuration's fault fails its whole pass
 *     (and a suite run) with the injected error, while a checkpoint
 *     write fault costs freshness only and leaves results bit-exact
 *     against independent sequential SimulationDriver runs.
 *  2. Fault accounting is exact: a rule fires at most once, at the
 *     scope/key/occurrence it named, and nothing else is injected.
 *  3. Checkpoints stay crash-safe: a failed pass or an injected write
 *     failure loses freshness, never resumability — every generation
 *     on disk resumes bit-exactly.
 *
 * The seeded schedule test runs 20 randomized fault plans over the
 * sweep engine; the deterministic tests pin each fault site,
 * cancellation path, and the suite deadline budget individually.
 * Benchmarks are scheduled serially (a worker budget of 1 runs one
 * pass at a time) wherever a plan must fire in a known scope — the
 * one-shot rule semantics documented in fault_plan.h.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "ckpt/checkpoint_store.h"
#include "confidence/one_level.h"
#include "confidence/self_counter.h"
#include "fault/fault_plan.h"
#include "obs/telemetry.h"
#include "predictor/gshare.h"
#include "sim/driver.h"
#include "sim/run_policy.h"
#include "sim/suite_runner.h"
#include "sim/sweep_engine.h"
#include "util/cancellation.h"
#include "util/error.h"
#include "workload/suite.h"

namespace confsim {
namespace {

constexpr std::uint64_t kBranches = 20'000;

PredictorFactory
testPredictor()
{
    return [] { return std::make_unique<GsharePredictor>(4096, 12); };
}

/** One estimator family: a label plus a single-estimator factory. */
struct Family
{
    std::string label;
    EstimatorSetFactory make;
};

/** Four cheap, structurally distinct families for chaos runs. */
std::vector<Family>
chaosFamilies()
{
    auto one = [](std::unique_ptr<ConfidenceEstimator> estimator) {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::move(estimator));
        return out;
    };
    std::vector<Family> families;
    families.push_back(
        {"one_level_raw_pc", [one] {
             return one(std::make_unique<OneLevelCirConfidence>(
                 IndexScheme::Pc, 1024, 8, CirReduction::RawPattern,
                 CtInit::Ones));
         }});
    families.push_back(
        {"counter_saturating", [one] {
             return one(std::make_unique<OneLevelCounterConfidence>(
                 IndexScheme::PcXorBhr, 1024,
                 CounterKind::Saturating, 16, 0));
         }});
    families.push_back(
        {"counter_resetting", [one] {
             return one(std::make_unique<OneLevelCounterConfidence>(
                 IndexScheme::PcXorBhr, 1024, CounterKind::Resetting,
                 16, 0));
         }});
    families.push_back(
        {"self_counter", [one] {
             return one(std::make_unique<SelfCounterConfidence>(
                 IndexScheme::Pc, 1024, 3));
         }});
    return families;
}

std::vector<SweepConfiguration>
familyConfigs(const std::vector<Family> &families)
{
    std::vector<SweepConfiguration> configs;
    configs.reserve(families.size());
    for (const auto &family : families)
        configs.push_back(
            {family.label, testPredictor(), family.make});
    return configs;
}

/** Fresh deterministic source: benchmark 0 of the reduced suite. */
std::unique_ptr<TraceSource>
freshSource(std::uint64_t branches = kBranches)
{
    return BenchmarkSuite::ibsSmall(branches).makeGenerator(0);
}

/** Independent sequential reference for one family. */
DriverResult
runSequential(const Family &family, DriverOptions options = {},
              std::uint64_t branches = kBranches)
{
    auto predictor = testPredictor()();
    auto owned = family.make();
    std::vector<ConfidenceEstimator *> raw;
    raw.reserve(owned.size());
    for (auto &estimator : owned)
        raw.push_back(estimator.get());
    SimulationDriver driver(*predictor, raw, options);
    auto source = freshSource(branches);
    return driver.run(*source);
}

/** Bit-exact comparison of one surviving config vs its reference. */
void
expectConfigMatches(const DriverResult &sequential,
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
            EXPECT_EQ(expected[b].refs, actual[b].refs)
                << "bucket " << b;
            EXPECT_EQ(expected[b].mispredicts, actual[b].mispredicts)
                << "bucket " << b;
        }
    }
}

/** A scratch checkpoint directory, wiped before use. */
std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Deterministic per-seed random stream (splitmix64). */
std::uint64_t
nextRand(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

TEST(ChaosSweep, ShardFaultWithoutIsolationFailsRun)
{
    const std::vector<Family> families = chaosFamilies();
    ScopedFaultPlan scoped("shard:cfg=0,batch=1:crash");
    SweepEngine engine(familyConfigs(families), DriverOptions{});
    auto source = freshSource();
    try {
        engine.run(*source);
        FAIL() << "expected the injected crash to fail the pass";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kInternal);
        EXPECT_NE(std::string(e.what()).find("simulated crash"),
                  std::string::npos);
    }
}

TEST(ChaosSweep, CheckpointWriteFaultDegradesFreshnessNotResults)
{
    const std::filesystem::path dir =
        scratchDir("chaos_ckpt_enospc");
    const std::vector<Family> families = {chaosFamilies()[0],
                                          chaosFamilies()[2]};
    Telemetry telemetry{TelemetryOptions{}};
    DriverOptions options;
    options.telemetry = &telemetry;

    CheckpointStore store(dir.string(), "chaos", 8);
    ScopedFaultPlan scoped("ckpt:write=2:enospc");
    SweepEngine engine(familyConfigs(families), options);
    engine.checkpointEvery(4'000, &store);
    auto source = freshSource();
    const SweepRunResult result = engine.run(*source);

    // The second write attempt hit ENOSPC; the sweep shrugged it off.
    EXPECT_EQ(FaultInjector::instance().injectedCount(), 1u);
    EXPECT_EQ(telemetry.registry().counter("ckpt.write_failed"), 1u);
    ASSERT_GT(result.checkpointsWritten, 0u);
    // Successful writes and on-disk generations agree exactly — the
    // failed attempt published nothing.
    EXPECT_EQ(result.checkpointsWritten, store.generations().size());

    // Results are unaffected by the lost checkpoint.
    for (std::size_t c = 0; c < families.size(); ++c) {
        expectConfigMatches(runSequential(families[c], DriverOptions{}),
                            result.perConfig[c], families[c].label);
    }

    // Every surviving generation resumes bit-exactly.
    for (const std::uint64_t gen : store.generations()) {
        const auto ckpt = store.load(gen);
        ASSERT_TRUE(ckpt.has_value()) << "generation " << gen;
        SweepEngine resumed_engine(familyConfigs(families));
        auto resumed_source = freshSource();
        const SweepRunResult resumed =
            resumed_engine.resume(*resumed_source, *ckpt);
        for (std::size_t c = 0; c < families.size(); ++c) {
            expectConfigMatches(
                runSequential(families[c], DriverOptions{}),
                resumed.perConfig[c],
                families[c].label + " resumed from generation " +
                    std::to_string(gen));
        }
    }
}

TEST(ChaosSweep, DecodeFaultFailsPassButCheckpointsResume)
{
    const std::filesystem::path dir =
        scratchDir("chaos_decode_resume");
    const std::vector<Family> families = {chaosFamilies()[1],
                                          chaosFamilies()[3]};
    SweepOptions sweep;
    sweep.batchSize = 512;

    CheckpointStore store(dir.string(), "chaos", 4);
    {
        ScopedFaultPlan scoped("decode:batch=8:throw");
        SweepEngine engine(familyConfigs(families), DriverOptions{},
                           sweep);
        engine.checkpointEvery(200, &store);
        auto source = freshSource();
        try {
            engine.run(*source);
            FAIL() << "expected the injected decode fault to fail the "
                      "pass";
        } catch (const Error &e) {
            EXPECT_EQ(e.category(), ErrorCategory::kTrace);
            EXPECT_NE(std::string(e.what()).find("injected fault"),
                      std::string::npos);
        }
        EXPECT_EQ(FaultInjector::instance().injectedCount(), 1u);
    }

    // The crash-interrupted store still resumes bit-exactly.
    ASSERT_FALSE(store.generations().empty());
    const auto ckpt = store.loadLatestValid();
    ASSERT_TRUE(ckpt.has_value());
    SweepEngine resumed_engine(familyConfigs(families),
                               DriverOptions{}, sweep);
    auto resumed_source = freshSource();
    const SweepRunResult resumed =
        resumed_engine.resume(*resumed_source, *ckpt);
    for (std::size_t c = 0; c < families.size(); ++c) {
        expectConfigMatches(runSequential(families[c], DriverOptions{}),
                            resumed.perConfig[c], families[c].label);
    }
}

/** What unwinds a parked hang in expectHangUnwinds(). */
enum class HangTrigger
{
    kWatchdog,       //!< the 300 ms wall-clock watchdog
    kCancelledToken, //!< a token cancelled ~100 ms into the run
};

/**
 * Park config 0's second batch with an injected hang, unwind it with
 * @p trigger, and expect Error{@p expected} well inside the 30 s cap
 * ReplayGuard::park() puts on a hang nothing unwinds.
 */
void
expectHangUnwinds(HangTrigger trigger, ErrorCategory expected)
{
    const std::vector<Family> families = {chaosFamilies()[0],
                                          chaosFamilies()[1]};
    CancellationToken token;
    DriverOptions options;
    if (trigger == HangTrigger::kWatchdog)
        options.wallClockLimitMs = 300;
    else
        options.cancel = &token;
    ScopedFaultPlan scoped("shard:cfg=0,batch=2:hang");
    SweepEngine engine(familyConfigs(families), options);
    auto source = freshSource();
    const auto start = std::chrono::steady_clock::now();
    std::jthread canceller;
    if (trigger == HangTrigger::kCancelledToken) {
        canceller = std::jthread([&token] {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            token.cancel();
        });
    }
    try {
        engine.run(*source);
        ADD_FAILURE() << "expected the injected hang to unwind the pass";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), expected) << e.what();
    }
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    // The hang fired and parked; the trigger, not the cap, ended it.
    EXPECT_EQ(FaultInjector::instance().injectedCount(), 1u);
    EXPECT_GE(elapsed.count(), 100);
    EXPECT_LT(elapsed.count(), 10'000);
}

TEST(ChaosSweep, HangUnwindsViaWatchdog)
{
    expectHangUnwinds(HangTrigger::kWatchdog, ErrorCategory::kTimeout);
}

TEST(ChaosSweep, HangUnwindsViaCancelledToken)
{
    // The token is cancelled while the shard is parked, not before
    // the run starts (ExternalCancellationUnwindsSweep covers that).
    expectHangUnwinds(HangTrigger::kCancelledToken,
                      ErrorCategory::kCancelled);
}

TEST(ChaosSweep, ExternalCancellationUnwindsSweep)
{
    const std::vector<Family> families = {chaosFamilies()[0],
                                          chaosFamilies()[2]};
    CancellationToken token;
    token.cancel();
    DriverOptions options;
    options.cancel = &token;

    SweepEngine engine(familyConfigs(families), options);
    auto source = freshSource();
    try {
        engine.run(*source);
        FAIL() << "expected cancellation to unwind the pass";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kCancelled);
    }
}

TEST(ChaosSweep, SeededChaosSchedulesSurvivorsBitExact)
{
    const std::vector<Family> families = chaosFamilies();
    // References computed once; every resumed generation must hit them.
    std::vector<DriverResult> references;
    references.reserve(families.size());
    for (const auto &family : families)
        references.push_back(runSequential(family));

    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::uint64_t rng = seed * 0x9e3779b97f4a7c15ULL + 1;

        // Randomized schedule: 1-2 shard faults on distinct configs
        // within the first twelve batches (every config replays at
        // least 20, so the first always fires — some seeds checkpoint
        // before the fault lands, some fail first), plus — on even
        // seeds — an ENOSPC on the first checkpoint write.
        const std::size_t first_cfg = nextRand(rng) % families.size();
        const std::size_t num_shard = 1 + (nextRand(rng) % 2);
        const std::size_t second_cfg =
            (first_cfg + 1 + (nextRand(rng) % (families.size() - 1))) %
            families.size();
        std::vector<std::size_t> shard_cfgs = {first_cfg};
        if (num_shard == 2)
            shard_cfgs.push_back(second_cfg);
        std::string spec;
        for (const std::size_t cfg : shard_cfgs) {
            if (!spec.empty())
                spec += ';';
            spec += "shard:cfg=" + std::to_string(cfg) +
                    ",batch=" + std::to_string(1 + nextRand(rng) % 12) +
                    ((nextRand(rng) % 2) == 0 ? ":throw" : ":crash");
        }
        const bool with_ckpt_fault = seed % 2 == 0;
        if (with_ckpt_fault)
            spec += ";ckpt:write=1:enospc";

        SweepOptions sweep;
        sweep.batchSize =
            std::vector<std::size_t>{256, 512, 1000}[nextRand(rng) %
                                                     3];

        const std::filesystem::path dir = scratchDir(
            "chaos_seed_" + std::to_string(seed));
        // Room for every generation a pass can write, so the
        // generations-on-disk == successful-writes assertion below
        // never trips over pruning.
        CheckpointStore store(dir.string(), "chaos", 16);
        std::uint64_t written = 0;
        store.setEventHook([&written](const CheckpointStoreEvent &event) {
            written += event.kind == CheckpointStoreEvent::Kind::Written;
        });

        std::vector<FaultHit> hits;
        {
            ScopedFaultPlan scoped(spec);
            SweepEngine engine(familyConfigs(families),
                               DriverOptions{}, sweep);
            engine.checkpointEvery(2'000, &store);
            auto source = freshSource();
            try {
                (void)engine.run(*source);
                ADD_FAILURE() << "the faulted pass completed";
            } catch (const Error &e) {
                EXPECT_NE(std::string(e.what()).find("injected fault"),
                          std::string::npos)
                    << e.what();
            }
            hits = FaultInjector::instance().hits();
        }

        // Exact accounting: the pass fails at the first shard fault,
        // so a second rule fires only if its batch comes no later;
        // every shard hit lands on a targeted config, and the
        // checkpoint rule fires iff a write was attempted.
        std::size_t shard_hits = 0;
        bool ckpt_hit = false;
        for (const FaultHit &hit : hits) {
            if (hit.site == FaultSite::kShardReplay) {
                ++shard_hits;
                EXPECT_TRUE(hit.key == first_cfg ||
                            hit.key == second_cfg)
                    << "unexpected shard key " << hit.key;
            } else {
                ASSERT_EQ(hit.site, FaultSite::kCheckpointWrite);
                ckpt_hit = true;
            }
        }
        EXPECT_GE(shard_hits, 1u);
        EXPECT_LE(shard_hits, shard_cfgs.size());
        if (!with_ckpt_fault) {
            EXPECT_FALSE(ckpt_hit);
        }
        if (with_ckpt_fault && !ckpt_hit) {
            // The pass failed before the first write became due — then
            // no write may have happened.
            EXPECT_EQ(written, 0u);
        }
        // Published generations are exactly the successful writes.
        EXPECT_EQ(written, store.generations().size());

        // Every published generation snapshots a pass that had not
        // failed yet: resuming it (fault plan cleared) completes all
        // configurations bit-exactly.
        for (const std::uint64_t gen : store.generations()) {
            const auto ckpt = store.load(gen);
            ASSERT_TRUE(ckpt.has_value()) << "generation " << gen;
            SweepEngine resumed_engine(familyConfigs(families),
                                       DriverOptions{}, sweep);
            auto resumed_source = freshSource();
            const SweepRunResult resumed =
                resumed_engine.resume(*resumed_source, *ckpt);
            for (std::size_t c = 0; c < families.size(); ++c) {
                expectConfigMatches(references[c],
                                    resumed.perConfig[c],
                                    families[c].label +
                                        " resumed from generation " +
                                        std::to_string(gen));
            }
        }
    }
}

/** Serial, deterministic sweep knobs for suite-level chaos tests. */
SweepOptions
serialSweep()
{
    SweepOptions sweep;
    sweep.threads = 1;
    return sweep;
}

TEST(ChaosSuite, FailFastSurfacesInjectedFault)
{
    const std::vector<Family> families = {chaosFamilies()[1]};
    SuiteRunner runner(BenchmarkSuite::ibsSmall(8'000));

    ScopedFaultPlan scoped("shard:cfg=0,batch=1:crash");
    try {
        runner.runSweep(familyConfigs(families), DriverOptions{},
                        serialSweep());
        FAIL() << "expected fail-fast to throw on the injected crash";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kInternal);
        const std::string what = e.what();
        EXPECT_NE(what.find("failed"), std::string::npos);
        EXPECT_NE(what.find("injected fault"), std::string::npos);
    }
}

TEST(ChaosSuite, DeadlineCancelsRemainingBenchmarks)
{
    const std::vector<Family> families = {chaosFamilies()[0]};
    SuiteRunner runner(BenchmarkSuite::ibsSmall(50'000'000));
    Telemetry telemetry{TelemetryOptions{}};
    DriverOptions options;
    options.telemetry = &telemetry;
    RunPolicy policy;
    policy.deadlineMs = 30;

    const auto start = std::chrono::steady_clock::now();
    try {
        (void)runner.runSweep(familyConfigs(families), options,
                              serialSweep(), policy);
        FAIL() << "expected the deadline to fail the run";
    } catch (const Error &e) {
        // The budget beats every benchmark: whichever was in flight
        // hits its clipped watchdog (kTimeout), the rest never start
        // (kCancelled), and the run throws the root cause.
        EXPECT_TRUE(e.category() == ErrorCategory::kTimeout ||
                    e.category() == ErrorCategory::kCancelled)
            << e.what();
    }
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    EXPECT_LT(elapsed.count(), 30'000);
    // Every benchmark reported, and none finished.
    EXPECT_EQ(telemetry.registry().counter("suite.benchmarks"), 3u);
    EXPECT_EQ(telemetry.registry().counter("suite.failures"), 3u);
}

TEST(ChaosSuite, PreCancelledTokenMarksEverythingCancelled)
{
    const std::vector<Family> families = {chaosFamilies()[2]};
    SuiteRunner runner(BenchmarkSuite::ibsSmall(8'000));
    CancellationToken token;
    token.cancel();
    Telemetry telemetry{TelemetryOptions{}};
    DriverOptions options;
    options.cancel = &token;
    options.telemetry = &telemetry;

    // The run throws kCancelled (the fallback culprit when every
    // failure is a cancellation), and nothing simulates.
    try {
        (void)runner.runSweep(familyConfigs(families), options,
                              serialSweep());
        FAIL() << "expected the pre-cancelled run to throw";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kCancelled);
    }
    EXPECT_EQ(telemetry.registry().counter("suite.failures"), 3u);
    EXPECT_EQ(telemetry.registry().counter("sweep.runs"), 0u);
}

} // namespace
} // namespace confsim
