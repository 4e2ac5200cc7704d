#include "sim/suite_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "ckpt/checkpoint_store.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "sim/sweep_engine.h"
#include "fault/fault_injection.h"
#include "trace/trace_io.h"
#include "util/cancellation.h"
#include "util/error.h"
#include "util/status.h"

namespace confsim {

SuiteRunner::SuiteRunner(BenchmarkSuite suite)
    : suite_(std::move(suite))
{}

std::string
checkpointLabel(const BenchmarkSuite &suite, std::size_t bench)
{
    const BenchmarkProfile &profile = suite.profile(bench);
    const std::uint64_t branches = suite.branchesPerBenchmark() != 0
                                       ? suite.branchesPerBenchmark()
                                       : profile.defaultLength;
    return profile.name + ".seed" + std::to_string(profile.seed) +
           ".branches" + std::to_string(branches);
}

namespace {

/** Milliseconds elapsed since @p start. */
double
elapsedMsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Shared cancellation/deadline state for one suite run. The token is
 * chained to the caller's DriverOptions::cancel (never mutated by us),
 * so cancel() here — fail-fast teardown — propagates to every
 * benchmark's driver/sweep poll site without touching the caller's
 * object.
 */
struct SuiteContext
{
    CancellationToken token;
    std::chrono::steady_clock::time_point start;
    std::uint64_t deadlineMs = 0;

    SuiteContext(const CancellationToken *cancel, std::uint64_t deadline_ms)
        : token(cancel),
          start(std::chrono::steady_clock::now()),
          deadlineMs(deadline_ms)
    {}

    bool hasDeadline() const { return deadlineMs != 0; }

    /** Remaining suite budget in ms; 0 when exhausted. Only meaningful
     *  when hasDeadline(). */
    std::uint64_t
    remainingMs() const
    {
        const double used = elapsedMsSince(start);
        if (used >= static_cast<double>(deadlineMs))
            return 0;
        return deadlineMs - static_cast<std::uint64_t>(used);
    }

    /** Clip one pass's per-benchmark watchdog to the remaining suite
     *  budget, so deadline expiry surfaces as a cooperative kTimeout
     *  inside the record loop rather than needing a reaper thread. */
    std::uint64_t
    clipWatchdogMs(std::uint64_t watchdog_ms) const
    {
        if (!hasDeadline())
            return watchdog_ms;
        const std::uint64_t remaining = remainingMs();
        if (watchdog_ms == 0)
            return remaining;
        return std::min(watchdog_ms, remaining);
    }
};

/**
 * Forward fault-injection and corrupt-chunk-skip notifications from a
 * benchmark's trace source into the telemetry event stream. Only the
 * outermost decorator is inspected; call sites that build deeper
 * stacks can install hooks on inner layers themselves.
 */
void
wireSourceTelemetry(TraceSource &source, Telemetry *telemetry,
                    const std::string &benchmark)
{
    if (telemetry == nullptr)
        return;
    if (auto *faults =
            dynamic_cast<FaultInjectingTraceSource *>(&source)) {
        faults->setEventHook([telemetry, benchmark](
                                 const char *kind,
                                 std::uint64_t delivered) {
            telemetry->emit(TelemetryEvent(
                events::kFaultInjected,
                {field("benchmark", benchmark), field("kind", kind),
                 field("record", delivered)}));
            telemetry->registry().increment(std::string("faults.") +
                                            kind);
        });
    }
    if (auto *reader = dynamic_cast<TraceFileReader *>(&source)) {
        reader->setCorruptionHook(
            [telemetry, benchmark](const std::string &what,
                                   std::uint64_t chunk,
                                   std::uint64_t dropped) {
                telemetry->emit(TelemetryEvent(
                    events::kCorruptChunkSkipped,
                    {field("benchmark", benchmark),
                     field("what", what), field("chunk", chunk),
                     field("dropped_records", dropped)}));
                telemetry->registry().increment(
                    "trace.corrupt_chunks_skipped");
            });
    }
}

/**
 * Forward checkpoint-store activity (generation writes, corrupt files
 * skipped during recovery) into the telemetry event stream.
 */
void
wireStoreTelemetry(CheckpointStore &store, Telemetry *telemetry,
                   const std::string &benchmark)
{
    if (telemetry == nullptr)
        return;
    store.setEventHook([telemetry, benchmark](
                           const CheckpointStoreEvent &event) {
        if (event.kind == CheckpointStoreEvent::Kind::Written) {
            telemetry->emit(TelemetryEvent(
                events::kCheckpointWritten,
                {field("benchmark", benchmark),
                 field("generation", event.generation),
                 field("at_branch", event.atBranch),
                 field("bytes", event.bytes),
                 field("path", event.path)}));
            telemetry->registry().increment("ckpt.written");
        } else {
            telemetry->emit(TelemetryEvent(
                events::kCheckpointCorrupt,
                {field("benchmark", benchmark),
                 field("generation", event.generation),
                 field("error", event.detail)}));
            telemetry->registry().increment("ckpt.corrupt");
        }
    });
}

/** Emit the checkpoint_restored event (generation 0 = done-marker). */
void
emitRestored(Telemetry *telemetry, const std::string &benchmark,
             std::uint64_t generation, std::uint64_t at_branch)
{
    if (telemetry == nullptr)
        return;
    telemetry->emit(TelemetryEvent(
        events::kCheckpointRestored,
        {field("benchmark", benchmark),
         field("generation", generation),
         field("at_branch", at_branch)}));
    telemetry->registry().increment("ckpt.restored");
}

/** Done-marker component holding configuration @p config's result. */
std::string
doneComponentName(std::size_t config)
{
    return "cfg" + std::to_string(config) + ":result";
}

/** Version of a `cfg<i>:result` payload (2 added the fingerprint). */
constexpr std::uint32_t kDoneVersion = 2;

/** The attempt count a version-2 payload carries. Every benchmark runs
 *  once; loading skips the field, so version-2 markers that recorded
 *  more attempts still resume. */
constexpr std::uint64_t kDoneAttempts = 1;

/** configFingerprint() of @p config over freshly built components. */
std::uint32_t
fingerprintOf(const SweepConfiguration &config, const DriverOptions &options)
{
    const std::unique_ptr<BranchPredictor> predictor =
        config.makePredictor();
    if (predictor == nullptr) {
        fatal(ErrorCategory::kConfig, "sweep configuration '" +
                                          config.label +
                                          "' produced a null predictor");
    }
    const auto owned = config.makeEstimators();
    std::vector<ConfidenceEstimator *> estimators;
    estimators.reserve(owned.size());
    for (const auto &estimator : owned)
        estimators.push_back(estimator.get());
    return configFingerprint(*predictor, estimators, options);
}

/**
 * Pack a finished benchmark's per-configuration results into a
 * checkpoint for the store's done-marker, so a resumed suite run reuses
 * them without re-simulating. Everything the compositing pass reads is
 * included; each configuration's label and configFingerprint() guard
 * against resuming under a different configuration list, or under a
 * different configuration with the same label.
 */
Checkpoint
serializeDoneMarker(const std::vector<SweepConfiguration> &configs,
                    const std::vector<std::uint32_t> &fingerprints,
                    const std::vector<BenchmarkRunResult> &results)
{
    Checkpoint ckpt;
    ckpt.label = results.front().name;
    ckpt.branches = results.front().branches;
    for (std::size_t c = 0; c < results.size(); ++c) {
        const BenchmarkRunResult &result = results[c];
        StateWriter out;
        out.putString(configs[c].label);
        out.putU32(fingerprints[c]);
        out.putString(result.name);
        out.putU64(result.branches);
        out.putU64(result.mispredicts);
        out.putF64(result.mispredictRate);
        out.putU64(kDoneAttempts);
        out.putU64(result.estimatorNames.size());
        for (const auto &name : result.estimatorNames)
            out.putString(name);
        out.putU64(result.estimatorStats.size());
        for (const auto &stats : result.estimatorStats) {
            out.putU64(stats.numBuckets());
            stats.saveState(out);
        }
        result.staticStats.saveState(out);
        ckpt.add(doneComponentName(c), kDoneVersion, out.take());
    }
    return ckpt;
}

/** Unpack a serializeDoneMarker() checkpoint; fatal() on any mismatch. */
std::vector<BenchmarkRunResult>
deserializeDoneMarker(const Checkpoint &ckpt,
                      const std::vector<SweepConfiguration> &configs,
                      const std::vector<std::uint32_t> &fingerprints)
{
    if (ckpt.components().size() != configs.size()) {
        fatal(ErrorCategory::kCheckpoint,
              "done-marker holds " +
                  std::to_string(ckpt.components().size()) +
                  " component(s), expected " +
                  std::to_string(configs.size()));
    }
    std::vector<BenchmarkRunResult> results(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const std::string name = doneComponentName(c);
        const CheckpointComponent *entry = ckpt.find(name);
        if (entry == nullptr) {
            fatal(ErrorCategory::kCheckpoint,
                  "done-marker has no " + name + " component");
        }
        if (entry->version != kDoneVersion) {
            fatal(ErrorCategory::kCheckpoint,
                  name + " is version " + std::to_string(entry->version) +
                      ", expected " + std::to_string(kDoneVersion));
        }
        StateReader in(entry->payload);
        const std::string label = in.getString();
        if (label != configs[c].label) {
            fatal(ErrorCategory::kCheckpoint,
                  name + " is configuration '" + label + "', expected '" +
                      configs[c].label + "'");
        }
        if (in.getU32() != fingerprints[c]) {
            fatal(ErrorCategory::kCheckpoint,
                  name + " ('" + label +
                      "') was written by a different configuration");
        }
        BenchmarkRunResult &result = results[c];
        result.name = in.getString();
        result.branches = in.getU64();
        result.mispredicts = in.getU64();
        result.mispredictRate = in.getF64();
        (void)in.getU64(); // attempts
        const std::uint64_t names = in.getU64();
        result.estimatorNames.reserve(names);
        for (std::uint64_t i = 0; i < names; ++i)
            result.estimatorNames.push_back(in.getString());
        const std::uint64_t stats_count = in.getU64();
        result.estimatorStats.reserve(stats_count);
        for (std::uint64_t i = 0; i < stats_count; ++i) {
            BucketStats stats(in.getU64());
            stats.loadState(in);
            stats.pack();
            result.estimatorStats.push_back(std::move(stats));
        }
        result.staticStats.loadState(in);
        if (!in.atEnd()) {
            fatal(ErrorCategory::kCheckpoint,
                  name + " has unconsumed bytes");
        }
    }
    return results;
}

/**
 * Turn one finished sweep pass over benchmark @p bench into its
 * per-configuration results. Per-PC static entries are re-keyed as
 * (bench << 48) | pc so distinct benchmarks never alias in the
 * composite.
 */
std::vector<BenchmarkRunResult>
benchmarkResults(SweepRunResult &pass, std::size_t bench,
                 const std::string &bench_name, bool profile_static)
{
    const std::uint64_t tag = static_cast<std::uint64_t>(bench) << 48;
    std::vector<BenchmarkRunResult> results(pass.perConfig.size());
    for (std::size_t c = 0; c < pass.perConfig.size(); ++c) {
        SweepConfigResult &config_result = pass.perConfig[c];
        BenchmarkRunResult &bench_result = results[c];
        bench_result.name = bench_name;
        bench_result.branches = config_result.branches;
        bench_result.mispredicts = config_result.mispredicts;
        bench_result.mispredictRate = config_result.mispredictRate();
        bench_result.estimatorStats =
            std::move(config_result.estimatorStats);
        bench_result.estimatorNames =
            std::move(config_result.estimatorNames);
        bench_result.branchProfile = std::move(config_result.branchProfile);
        if (profile_static) {
            for (const auto &[pc, entry] :
                 config_result.staticProfile.entries()) {
                bench_result.staticStats.recordAggregate(
                    tag | pc, static_cast<double>(entry.executions),
                    static_cast<double>(entry.mispredictions));
            }
        }
    }
    return results;
}

/**
 * Record a finished pass in its benchmark's store: a done-marker
 * carrying every configuration's result, so a resumed run skips the
 * benchmark. Mid-run generations are dead weight from here on.
 */
void
completeStore(CheckpointStore &store,
              const std::vector<SweepConfiguration> &configs,
              const std::vector<std::uint32_t> &fingerprints,
              const std::vector<BenchmarkRunResult> &results)
{
    store.writeCompleted(serializeDoneMarker(configs, fingerprints, results));
    store.removeGenerations();
}

/**
 * Fill a suite result's composites (Section 1.2 equal-weight) from its
 * per-benchmark entries: the per-estimator equal-weight curves, the
 * re-weighted static profile and the composite misprediction rate.
 */
void
computeComposites(SuiteRunResult &result, bool profile_static)
{
    // A benchmark that ran but recorded nothing (an empty trace) has
    // no rate or bucket mass to contribute; folding it in would
    // average a meaningless 0.0 into the composite rate and trip
    // EqualWeightComposite's zero-refs check. Exclude it from every
    // composite and mark the result degraded-composite instead.
    const auto recorded = [](const BenchmarkRunResult &b) {
        return b.branches != 0;
    };

    double rate_sum = 0.0;
    std::size_t counted = 0;
    for (const auto &bench_result : result.perBenchmark) {
        if (recorded(bench_result)) {
            rate_sum += bench_result.mispredictRate;
            ++counted;
        } else {
            ++result.zeroRecordBenchmarks;
        }
    }
    result.compositeDegraded = result.zeroRecordBenchmarks != 0;

    // Composites are equal-weight over the recorded subset.
    const auto first_ok = std::find_if(result.perBenchmark.begin(),
                                       result.perBenchmark.end(), recorded);
    if (first_ok == result.perBenchmark.end())
        return;

    result.estimatorNames = first_ok->estimatorNames;
    // Empty after a planned pass, whose records went to slot logs.
    const std::size_t num_estimators = first_ok->estimatorStats.size();
    for (std::size_t e = 0; e < num_estimators; ++e) {
        EqualWeightComposite composite(
            first_ok->estimatorStats[e].numBuckets());
        for (const auto &bench_result : result.perBenchmark) {
            if (recorded(bench_result))
                composite.add(bench_result.estimatorStats[e]);
        }
        result.compositeEstimatorStats.push_back(
            std::move(composite).result());
    }

    if (profile_static) {
        constexpr double kCommonMass = 1e6;
        for (const auto &bench_result : result.perBenchmark) {
            if (!recorded(bench_result))
                continue;
            const double refs = bench_result.staticStats.totalRefs();
            if (refs > 0.0) {
                result.compositeStaticStats.addWeighted(
                    bench_result.staticStats, kCommonMass / refs);
            }
        }
    }

    result.compositeMispredictRate =
        counted == 0 ? 0.0
                     : rate_sum / static_cast<double>(counted);
}

} // namespace

SuiteRunResult
SuiteRunner::run(const PredictorFactory &make_predictor,
                 const EstimatorSetFactory &make_estimators,
                 DriverOptions options, RunPolicy policy) const
{
    SweepSuiteResult swept =
        runSweep({{"run", make_predictor, make_estimators}},
                 std::move(options), SweepOptions{}, std::move(policy));
    return std::move(swept.perConfig.front());
}

std::vector<SuiteRunner::PassOutcome>
SuiteRunner::runPasses(const std::vector<SweepConfiguration> &configs,
                       DriverOptions options, SweepOptions sweep,
                       RunPolicy policy, const PassHooks &hooks) const
{
    if (configs.empty()) {
        fatal(ErrorCategory::kConfig,
              "runSweep needs at least one configuration");
    }
    if (hooks.plan && policy.checkpoint.enabled()) {
        fatal(ErrorCategory::kConfig,
              "planned passes run without checkpoints");
    }
    SuiteContext ctx(options.cancel, policy.deadlineMs);
    Telemetry *const telemetry = options.telemetry;

    // The one schedule rule: min(W, benchmarks) passes at once, each
    // reading and replaying its benchmark's trace on its own thread.
    const unsigned workers =
        sweep.threads != 0
            ? sweep.threads
            : std::max(1u, std::thread::hardware_concurrency());
    const unsigned passes = static_cast<unsigned>(
        std::clamp<std::size_t>(suite_.size(), 1, workers));

    if (telemetry != nullptr) {
        telemetry->emit(TelemetryEvent(
            events::kSuiteRunStarted,
            {field("benchmarks",
                   static_cast<std::uint64_t>(suite_.size())),
             field("configs", static_cast<std::uint64_t>(configs.size())),
             field("watchdog_ms", options.wallClockLimitMs),
             field("parallel", passes > 1)}));
    }

    // Every benchmark produces an outcome, or a failure: why its pass
    // failed ("" = it did not), with the category. Checkpoint/resume
    // and the watchdog are per benchmark, so outcomes are independent
    // and may be computed concurrently; runSweep merges them in suite
    // order.
    struct Failure
    {
        std::string error;
        ErrorCategory category = ErrorCategory::kInternal;
    };
    std::vector<PassOutcome> outcomes(suite_.size());
    std::vector<Failure> failures(suite_.size());

    // One sweep pass over @p bench, resumed from the newest generation
    // that restores under this configuration list.
    const auto run_pass = [&](std::size_t bench,
                              const std::string &bench_name,
                              const DriverOptions &run_options,
                              CheckpointStore *store) {
        const auto build_source = [&] {
            std::unique_ptr<TraceSource> source =
                suite_.makeGenerator(bench);
            if (sourceWrapper_) {
                source = sourceWrapper_(bench, std::move(source));
                if (!source) {
                    fatal(ErrorCategory::kConfig,
                          "source wrapper returned null for "
                          "benchmark '" +
                              bench_name + "'");
                }
            }
            wireSourceTelemetry(*source, telemetry, bench_name);
            return source;
        };

        SweepEngine engine(configs, run_options, sweep);
        if (hooks.plan) {
            const SweepRecordingPlan plan = hooks.plan(bench, *build_source());
            return engine.run(*build_source(), &plan);
        }
        if (store != nullptr)
            engine.checkpointEvery(policy.checkpoint.everyBranches, store);
        std::unique_ptr<TraceSource> source = build_source();
        if (store != nullptr && policy.checkpoint.resume) {
            // Newest valid generation wins; a generation that decodes
            // but does not restore under this configuration (kCheckpoint)
            // falls back one generation (the engine rebuilds its states
            // on every run, so only the source needs refreshing here).
            // A failure after the restore fails the pass like any other.
            for (const std::uint64_t gen : store->generations()) {
                std::optional<Checkpoint> ckpt = store->load(gen);
                if (!ckpt.has_value())
                    continue;
                try {
                    SweepRunResult pass = engine.resume(*source, *ckpt);
                    emitRestored(telemetry, bench_name, gen,
                                 ckpt->branches);
                    return pass;
                } catch (const Error &e) {
                    if (e.category() != ErrorCategory::kCheckpoint)
                        throw;
                    if (telemetry != nullptr) {
                        telemetry->emit(TelemetryEvent(
                            events::kCheckpointCorrupt,
                            {field("benchmark", bench_name),
                             field("generation", gen),
                             field("error", e.what())}));
                        telemetry->registry().increment("ckpt.corrupt");
                    }
                    source = build_source();
                }
            }
        }
        return engine.run(*source);
    };

    // The benchmark's results: restored from its done-marker, or
    // simulated once. Any error propagates to run_bench.
    const auto simulate = [&](std::size_t bench,
                              const std::string &bench_name,
                              PassOutcome &outcome) {
        DriverOptions run_options = options;
        run_options.telemetryLabel = bench_name;
        run_options.cancel = &ctx.token;

        std::unique_ptr<CheckpointStore> store;
        std::vector<std::uint32_t> fingerprints;
        if (policy.checkpoint.enabled()) {
            for (const auto &config : configs)
                fingerprints.push_back(fingerprintOf(config, options));
            store = std::make_unique<CheckpointStore>(
                policy.checkpoint.directory, checkpointLabel(suite_, bench));
            wireStoreTelemetry(*store, telemetry, bench_name);
            store->setSpanTracer(options.spans);
            if (policy.checkpoint.resume) {
                if (auto done = store->loadCompleted()) {
                    try {
                        outcome.perConfig = deserializeDoneMarker(
                            *done, configs, fingerprints);
                        emitRestored(telemetry, bench_name, 0,
                                     done->branches);
                        return;
                    } catch (const std::exception &e) {
                        // The done-marker verified its CRC but does not
                        // decode under this configuration list (another
                        // configuration's marker, or an older layout);
                        // re-simulate.
                        if (telemetry != nullptr) {
                            telemetry->emit(TelemetryEvent(
                                events::kCheckpointCorrupt,
                                {field("benchmark", bench_name),
                                 field("generation", std::uint64_t{0}),
                                 field("error", e.what())}));
                            telemetry->registry().increment(
                                "ckpt.corrupt");
                        }
                    }
                }
            }
        }

        // Cancelled (fail-fast teardown, external token) or
        // deadline-starved benchmarks stop before simulating.
        if (ctx.token.cancelled())
            throw Error(ErrorCategory::kCancelled, "sweep pass cancelled");
        if (ctx.hasDeadline() && ctx.remainingMs() == 0) {
            throw Error(ErrorCategory::kCancelled,
                        "suite deadline of " +
                            std::to_string(ctx.deadlineMs) +
                            " ms exhausted");
        }
        run_options.wallClockLimitMs =
            ctx.clipWatchdogMs(options.wallClockLimitMs);
        SweepRunResult pass =
            run_pass(bench, bench_name, run_options, store.get());
        if (hooks.finish)
            hooks.finish(bench, pass);
        outcome.perConfig = benchmarkResults(pass, bench, bench_name,
                                             options.profileStatic);
        if (store != nullptr)
            completeStore(*store, configs, fingerprints, outcome.perConfig);
    };

    // Run one benchmark and report it. A failure becomes the
    // benchmark's Failure and, unless it is a cancellation, cancels
    // the run token so sibling passes (and queued ones) unwind instead
    // of simulating doomed work. benchmark_finished is emitted as each
    // benchmark completes, so progress sinks (stderr heartbeat) see
    // results live during parallel runs; for multi-config sweeps its
    // counts are the first configuration's.
    const auto run_bench = [&](std::size_t bench) {
        const std::string bench_name = suite_.profile(bench).name;
        const std::string span_name = "bench:" + bench_name;
        ScopedSpan bench_span(options.spans, span_name.c_str());
        const auto start = std::chrono::steady_clock::now();
        if (telemetry != nullptr) {
            telemetry->emit(TelemetryEvent(
                events::kBenchmarkStarted,
                {field("benchmark", bench_name)}));
        }
        PassOutcome &outcome = outcomes[bench];
        Failure &failure = failures[bench];
        try {
            simulate(bench, bench_name, outcome);
        } catch (const std::exception &e) {
            failure.error = e.what();
            failure.category = categoryOf(e);
        } catch (...) {
            failure.error = "unknown exception";
        }
        outcome.wallMs = elapsedMsSince(start);
        const bool failed = !failure.error.empty();
        if (failed && failure.category != ErrorCategory::kCancelled)
            ctx.token.cancel();
        if (telemetry == nullptr)
            return;
        MetricsRegistry &registry = telemetry->registry();
        if (failed && failure.category == ErrorCategory::kTimeout) {
            telemetry->emit(TelemetryEvent(
                events::kWatchdogTimeout,
                {field("benchmark", bench_name),
                 field("error", failure.error)}));
            registry.increment("suite.watchdog_timeouts");
        }
        std::uint64_t branches = 0;
        std::uint64_t mispredicts = 0;
        double mispredict_rate = 0.0;
        if (!failed) {
            const BenchmarkRunResult &first = outcome.perConfig.front();
            branches = first.branches;
            mispredicts = first.mispredicts;
            mispredict_rate = first.mispredictRate;
        }
        telemetry->emit(TelemetryEvent(
            events::kBenchmarkFinished,
            {field("benchmark", bench_name),
             field("wall_ms", outcome.wallMs),
             field("branches", branches),
             field("mispredicts", mispredicts),
             field("mispredict_rate", mispredict_rate),
             field("error", failure.error),
             field("error_category",
                   failed ? toString(failure.category) : "")}));
        registry.increment("suite.benchmarks");
        registry.observe("suite.bench_wall_ms", outcome.wallMs);
        if (failed)
            registry.increment("suite.failures");
    };

    // `passes` pass threads (just the calling thread for one pass)
    // pull benchmark indices in suite order.
    std::atomic<std::size_t> next{0};
    const auto pump = [&] {
        for (;;) {
            const std::size_t bench =
                next.fetch_add(1, std::memory_order_relaxed);
            if (bench >= suite_.size())
                return;
            run_bench(bench);
        }
    };
    if (passes == 1) {
        pump();
    } else {
        std::vector<std::thread> pass_threads;
        pass_threads.reserve(passes);
        for (unsigned p = 0; p < passes; ++p)
            pass_threads.emplace_back(pump);
        for (auto &thread : pass_threads)
            thread.join();
    }

    if (telemetry != nullptr) {
        MetricsRegistry &registry = telemetry->registry();
        registry.setGauge("sweep.pool_workers",
                          static_cast<double>(workers));
        registry.setGauge("sweep.bench_parallel",
                          static_cast<double>(passes));
    }

    // Surface the root cause: the first non-cancelled failure in suite
    // order (cancelled entries are teardown collateral; when every
    // failure is a cancellation — external cancel or suite deadline —
    // the first of those is the cause).
    const auto first_failure = [&](bool skip_cancelled) {
        return std::find_if(
            failures.begin(), failures.end(), [&](const Failure &f) {
                return !f.error.empty() &&
                       !(skip_cancelled &&
                         f.category == ErrorCategory::kCancelled);
            });
    };
    auto culprit = first_failure(true);
    if (culprit == failures.end())
        culprit = first_failure(false);
    if (culprit == failures.end())
        return outcomes;

    if (telemetry != nullptr) {
        const auto failed_benchmarks = std::count_if(
            failures.begin(), failures.end(),
            [](const Failure &f) { return !f.error.empty(); });
        telemetry->emit(TelemetryEvent(
            events::kSuiteRunFinished,
            {field("wall_ms", elapsedMsSince(ctx.start)),
             field("failed_benchmarks",
                   static_cast<std::uint64_t>(failed_benchmarks)),
             field("error", culprit->error)}));
        // Flush now: if the caller doesn't catch the fatal() exception,
        // std::terminate skips unwinding and buffered sink tails
        // (including the event above) would be lost.
        telemetry->finish();
    }
    const std::size_t culprit_bench =
        static_cast<std::size_t>(culprit - failures.begin());
    fatal(culprit->category, "benchmark '" +
                                 suite_.profile(culprit_bench).name +
                                 "' failed: " + culprit->error);
}

SweepSuiteResult
SuiteRunner::runSweep(const std::vector<SweepConfiguration> &configs,
                      DriverOptions options, SweepOptions sweep,
                      RunPolicy policy, const PassHooks &hooks) const
{
    const auto sweep_start = std::chrono::steady_clock::now();
    std::vector<PassOutcome> outcomes = runPasses(
        configs, options, std::move(sweep), std::move(policy), hooks);
    Telemetry *const telemetry = options.telemetry;

    SweepSuiteResult result;
    result.labels.reserve(configs.size());
    for (const auto &config : configs)
        result.labels.push_back(config.label);
    result.perConfig.resize(configs.size());

    // Merge outcomes in suite order — identical output ordering at
    // any schedule. The benchmark's wall time is shared equally across
    // configurations, so summing over configurations recovers (not
    // multiplies) the real cost; the un-divided time is observed once
    // per benchmark as suite.bench_wall_ms (see docs/performance.md).
    for (std::size_t bench = 0; bench < suite_.size(); ++bench) {
        PassOutcome &outcome = outcomes[bench];
        const double wall_share =
            outcome.wallMs / static_cast<double>(configs.size());
        const std::uint64_t tag = static_cast<std::uint64_t>(bench)
                                  << 48;
        for (std::size_t c = 0; c < configs.size(); ++c) {
            BenchmarkRunResult &bench_result = outcome.perConfig[c];
            bench_result.wallMs = wall_share;
            if (options.profileBranches) {
                result.perConfig[c].branchProfile.mergeFrom(
                    bench_result.branchProfile, tag);
            }
            result.perConfig[c].perBenchmark.push_back(
                std::move(bench_result));
        }
    }

    for (SuiteRunResult &config_result : result.perConfig) {
        computeComposites(config_result, options.profileStatic);
        config_result.wallMs = elapsedMsSince(sweep_start);
    }
    result.wallMs = elapsedMsSince(sweep_start);
    if (telemetry != nullptr) {
        // Suite-level counts are the first configuration's.
        const SuiteRunResult &first = result.perConfig.front();
        telemetry->emit(TelemetryEvent(
            events::kSuiteRunFinished,
            {field("wall_ms", result.wallMs),
             field("composite_mispredict_rate",
                   first.compositeMispredictRate),
             field("failed_benchmarks", std::uint64_t{0}),
             field("zero_record_benchmarks",
                   static_cast<std::uint64_t>(first.zeroRecordBenchmarks))}));
        telemetry->registry().observe("suite.wall_ms", result.wallMs);
    }
    return result;
}

} // namespace confsim
