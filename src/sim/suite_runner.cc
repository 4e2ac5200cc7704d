#include "sim/suite_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
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
 * chained to the policy's external token (never mutated by us), so
 * cancel() here — fail-fast teardown — propagates to every benchmark's
 * driver/sweep poll site without touching the caller's object.
 */
struct SuiteContext
{
    CancellationToken token;
    std::chrono::steady_clock::time_point start;
    std::uint64_t deadlineMs = 0;

    explicit SuiteContext(const RunPolicy &policy)
        : token(policy.cancel),
          start(std::chrono::steady_clock::now()),
          deadlineMs(policy.deadlineMs)
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

    /** Clip one attempt's per-benchmark watchdog to the remaining suite
     *  budget, so deadline expiry surfaces as a cooperative
     *  WatchdogTimeout inside the record loop rather than needing a
     *  reaper thread. */
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
 * Deterministic backoff before retry attempt @p attempt + 1 of the
 * benchmark named @p name: retryBackoffMs * 2^(attempt-1), jittered
 * into [0.75x, 1.25x] with a seed derived from the name and attempt so
 * concurrent retries decorrelate without making runs irreproducible.
 */
std::uint64_t
backoffDelayMs(std::uint64_t base, unsigned attempt,
               const std::string &name)
{
    if (base == 0)
        return 0;
    const unsigned shift = std::min(attempt - 1, 16u);
    const std::uint64_t exponential = base << shift;
    const std::uint64_t seed =
        std::hash<std::string>{}(name) ^
        (0x9e3779b97f4a7c15ULL * (attempt + 1));
    const std::uint64_t span = exponential / 2;
    const std::uint64_t low = exponential - exponential / 4;
    return low + (span == 0 ? 0 : seed % (span + 1));
}

/**
 * Sleep the category-aware retry backoff, capped by the remaining
 * suite budget and interruptible by cancellation. @return false when
 * the caller should stop retrying (cancelled, or budget exhausted).
 */
bool
sleepBeforeRetry(const RunPolicy &policy, const SuiteContext &ctx,
                 unsigned attempt, const std::string &name,
                 SpanTracer *spans)
{
    std::uint64_t delay =
        backoffDelayMs(policy.retryBackoffMs, attempt, name);
    if (ctx.hasDeadline()) {
        const std::uint64_t remaining = ctx.remainingMs();
        if (remaining == 0)
            return false;
        delay = std::min(delay, remaining);
    }
    if (delay == 0)
        return !ctx.token.cancelled();
    ScopedSpan span(spans, "retry.backoff");
    return interruptibleSleepMs(&ctx.token, delay);
}

/** How a run spends its worker budget. */
struct PassSchedule
{
    unsigned workers = 1; //!< the budget W
    unsigned passes = 1;  //!< benchmark passes in flight
    bool shard = false;   //!< passes shard over one shared W-worker pool
};

/**
 * The one schedule rule. W is SweepOptions::threads (0 = one per
 * hardware thread; CONFSIM_SEQUENTIAL forces 1) and, unlike a lone
 * engine's thread count, is not capped at the configuration count.
 * min(W, benchmarks) passes run at once, so whole benchmarks overlap
 * first. Passes that fill the budget replay inline on their benchmark
 * threads; fewer passes than W shard a multi-configuration sweep over
 * one shared W-worker pool, min(W, configs) shards each.
 */
PassSchedule
resolveSchedule(unsigned threads, std::size_t benchmarks,
                std::size_t configs)
{
    PassSchedule schedule;
    if (std::getenv("CONFSIM_SEQUENTIAL") != nullptr)
        return schedule;
    schedule.workers =
        threads != 0 ? threads
                     : std::max(1u, std::thread::hardware_concurrency());
    schedule.passes = static_cast<unsigned>(
        std::clamp<std::size_t>(benchmarks, 1, schedule.workers));
    schedule.shard = schedule.passes < schedule.workers && configs >= 2;
    return schedule;
}

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
        out.putU64(result.attempts);
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
        result.attempts = static_cast<unsigned>(in.getU64());
        const std::uint64_t names = in.getU64();
        result.estimatorNames.reserve(names);
        for (std::uint64_t i = 0; i < names; ++i)
            result.estimatorNames.push_back(in.getString());
        const std::uint64_t stats_count = in.getU64();
        result.estimatorStats.reserve(stats_count);
        for (std::uint64_t i = 0; i < stats_count; ++i) {
            BucketStats stats(in.getU64());
            stats.loadState(in);
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
        if (config_result.failed()) {
            // Isolated per-config failure: only this configuration's
            // composite degrades; the other configurations' results
            // from the same pass are bit-exact.
            bench_result.error = config_result.error;
            bench_result.errorCategory = config_result.errorCategory;
            continue;
        }
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
 * Record a finished pass in its benchmark's store. A fully healthy
 * pass leaves a done-marker carrying every configuration's result, so
 * a resumed run skips the benchmark; a pass with an isolated
 * configuration failure re-simulates on resume. Mid-run generations
 * are dead weight either way.
 */
void
completeStore(CheckpointStore &store,
              const std::vector<SweepConfiguration> &configs,
              const std::vector<std::uint32_t> &fingerprints,
              std::vector<BenchmarkRunResult> &results, unsigned attempts)
{
    const bool healthy =
        std::none_of(results.begin(), results.end(),
                     [](const BenchmarkRunResult &r) { return r.failed(); });
    if (healthy) {
        for (auto &result : results)
            result.attempts = attempts;
        store.writeCompleted(
            serializeDoneMarker(configs, fingerprints, results));
    }
    store.removeGenerations();
}

/**
 * Fill a suite result's composites (Section 1.2 equal-weight) from its
 * per-benchmark entries: the per-estimator equal-weight curves, the
 * re-weighted static profile, the composite misprediction rate, and
 * the degraded flag. Shared by the sequential and sweep paths so both
 * composite identically. @return the survivor count.
 */
std::size_t
computeComposites(SuiteRunResult &result, bool profile_static,
                  std::size_t suite_size)
{
    // A benchmark that ran but recorded nothing (e.g. the warmup
    // window covers the whole trace) has no rate or bucket mass to
    // contribute; folding it in would average a meaningless 0.0 into
    // the composite rate and trip EqualWeightComposite's zero-refs
    // check. Exclude it from every composite and mark the result
    // degraded-composite instead.
    const auto zero_record = [](const BenchmarkRunResult &b) {
        return !b.failed() && b.branches == 0;
    };

    double rate_sum = 0.0;
    std::size_t survivors = 0;
    std::size_t counted = 0;
    for (const auto &bench_result : result.perBenchmark) {
        if (!bench_result.failed()) {
            ++survivors;
            if (!zero_record(bench_result)) {
                rate_sum += bench_result.mispredictRate;
                ++counted;
            } else {
                ++result.zeroRecordBenchmarks;
            }
        }
    }
    result.degraded = survivors != suite_size;
    result.compositeDegraded =
        result.degraded || counted != suite_size;

    // Composites are equal-weight over the surviving recorded subset.
    const BenchmarkRunResult *first_ok = nullptr;
    for (const auto &bench_result : result.perBenchmark) {
        if (!bench_result.failed() && !zero_record(bench_result)) {
            first_ok = &bench_result;
            break;
        }
    }
    if (first_ok == nullptr)
        return survivors;

    result.estimatorNames = first_ok->estimatorNames;
    // Empty after a planned pass, whose records went to slot logs.
    const std::size_t num_estimators = first_ok->estimatorStats.size();
    for (std::size_t e = 0; e < num_estimators; ++e) {
        EqualWeightComposite composite(
            first_ok->estimatorStats[e].numBuckets());
        for (const auto &bench_result : result.perBenchmark) {
            if (!bench_result.failed() && !zero_record(bench_result))
                composite.add(bench_result.estimatorStats[e]);
        }
        result.compositeEstimatorStats.push_back(composite.result());
    }

    if (profile_static) {
        constexpr double kCommonMass = 1e6;
        for (const auto &bench_result : result.perBenchmark) {
            if (bench_result.failed() || zero_record(bench_result))
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
    return survivors;
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
    if (sweep.pool != nullptr) {
        fatal(ErrorCategory::kConfig,
              "runSweep builds its own worker pool; leave "
              "SweepOptions::pool unset");
    }
    const bool fail_fast = policy.errorMode == ErrorMode::kFailFast;
    if (hooks.plan && (!fail_fast || policy.checkpoint.enabled())) {
        fatal(ErrorCategory::kConfig,
              "planned passes run fail-fast and without checkpoints");
    }
    if (policy.watchdogMs != 0)
        options.wallClockLimitMs = policy.watchdogMs;
    const unsigned max_attempts = std::max(1u, policy.maxAttempts);
    SuiteContext ctx(policy);
    Telemetry *const telemetry = options.telemetry;

    // An inline pass replays on its benchmark thread: no pool task, no
    // per-batch barrier.
    const PassSchedule schedule =
        resolveSchedule(sweep.threads, suite_.size(), configs.size());
    std::unique_ptr<SweepWorkerPool> pool;
    SweepOptions engine_sweep = sweep;
    // Continue-on-error isolates failures at configuration granularity
    // too: one configuration's fault freezes only that configuration
    // while the rest of the pass stays bit-exact (sweep_engine.h).
    engine_sweep.isolateConfigFailures = !fail_fast;
    if (schedule.shard) {
        pool = std::make_unique<SweepWorkerPool>(schedule.workers);
        engine_sweep.pool = pool.get();
    } else {
        engine_sweep.threads = 1;
    }

    if (telemetry != nullptr) {
        telemetry->emit(TelemetryEvent(
            events::kSuiteRunStarted,
            {field("benchmarks",
                   static_cast<std::uint64_t>(suite_.size())),
             field("configs", static_cast<std::uint64_t>(configs.size())),
             field("error_mode",
                   fail_fast ? "fail_fast" : "continue_on_error"),
             field("max_attempts",
                   static_cast<std::uint64_t>(max_attempts)),
             field("watchdog_ms", options.wallClockLimitMs),
             field("parallel", schedule.passes > 1)}));
    }

    // Every benchmark produces an outcome — per-configuration results,
    // or an error. Error isolation, retries, watchdog handling, and
    // checkpoint/resume are all per-benchmark, so outcomes are
    // independent and may be computed concurrently; runSweep merges
    // them in suite order.
    std::vector<PassOutcome> outcomes(suite_.size());

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

        SweepOptions pass_sweep = engine_sweep;
        SweepRecordingPlan plan;
        if (hooks.plan) {
            plan = hooks.plan(bench, *build_source());
            pass_sweep.recordingPlan = &plan;
        }
        SweepEngine engine(configs, run_options, pass_sweep);
        if (store != nullptr)
            engine.checkpointEvery(policy.checkpoint.everyBranches, store);
        std::unique_ptr<TraceSource> source = build_source();
        if (store != nullptr && policy.checkpoint.resume) {
            // Newest valid generation wins; a generation that decodes
            // but does not restore under this configuration falls back
            // one generation (the engine rebuilds its states on every
            // run, so only the source needs refreshing here).
            for (const std::uint64_t gen : store->generations()) {
                std::optional<Checkpoint> ckpt = store->load(gen);
                if (!ckpt.has_value())
                    continue;
                try {
                    SweepRunResult pass = engine.resume(*source, *ckpt);
                    emitRestored(telemetry, bench_name, gen,
                                 ckpt->branches);
                    return pass;
                } catch (const WatchdogTimeout &) {
                    throw;
                } catch (const std::exception &e) {
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

    // The benchmark's attempts under the policy: exceptions become the
    // outcome's error, transient failures get bounded retries with
    // exponential backoff, and terminal categories — watchdog
    // timeouts, cancellation, configuration errors — fail immediately.
    const auto run_attempts = [&](std::size_t bench,
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
                policy.checkpoint.directory, bench_name,
                policy.checkpoint.keepGenerations);
            wireStoreTelemetry(*store, telemetry, bench_name);
            store->setSpanTracer(options.spans);
            if (policy.checkpoint.resume) {
                if (auto done = store->loadCompleted()) {
                    try {
                        outcome.perConfig = deserializeDoneMarker(
                            *done, configs, fingerprints);
                        outcome.attempts = outcome.perConfig[0].attempts;
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

        for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
            outcome.attempts = attempt;
            // Cancelled (fail-fast teardown, external token) or
            // deadline-starved benchmarks stop before simulating.
            if (ctx.token.cancelled()) {
                outcome.error = "sweep pass cancelled";
                outcome.category = ErrorCategory::kCancelled;
                outcome.cancelled = true;
                break;
            }
            if (ctx.hasDeadline() && ctx.remainingMs() == 0) {
                outcome.error = "suite deadline of " +
                                std::to_string(ctx.deadlineMs) +
                                " ms exhausted";
                outcome.category = ErrorCategory::kCancelled;
                outcome.cancelled = true;
                break;
            }
            run_options.wallClockLimitMs =
                ctx.clipWatchdogMs(options.wallClockLimitMs);
            outcome.error.clear();
            outcome.category = ErrorCategory::kInternal;
            outcome.cancelled = false;
            bool retryable = false;
            try {
                SweepRunResult pass =
                    run_pass(bench, bench_name, run_options, store.get());
                if (hooks.finish)
                    hooks.finish(bench, pass);
                outcome.perConfig = benchmarkResults(
                    pass, bench, bench_name, options.profileStatic);
                if (store != nullptr)
                    completeStore(*store, configs, fingerprints,
                                  outcome.perConfig, attempt);
                break;
            } catch (const WatchdogTimeout &e) {
                outcome.error = e.what();
                outcome.category = ErrorCategory::kTimeout;
                if (telemetry != nullptr) {
                    telemetry->emit(TelemetryEvent(
                        events::kWatchdogTimeout,
                        {field("benchmark", bench_name),
                         field("attempt",
                               static_cast<std::uint64_t>(attempt)),
                         field("error", outcome.error)}));
                    telemetry->registry().increment(
                        "suite.watchdog_timeouts");
                }
                break; // terminal: re-running a blown budget loses too
            } catch (const std::exception &e) {
                outcome.error = e.what();
                outcome.category = categoryOf(e);
                outcome.cancelled =
                    outcome.category == ErrorCategory::kCancelled;
                retryable = isRetryable(e);
            } catch (...) {
                outcome.error = "unknown exception";
                retryable = true;
            }
            if (!retryable)
                break;
            if (attempt < max_attempts) {
                if (telemetry != nullptr) {
                    telemetry->emit(TelemetryEvent(
                        events::kBenchmarkRetry,
                        {field("benchmark", bench_name),
                         field("attempt",
                               static_cast<std::uint64_t>(attempt)),
                         field("error", outcome.error)}));
                    telemetry->registry().increment("suite.retries");
                }
                if (!sleepBeforeRetry(policy, ctx, attempt, bench_name,
                                      options.spans))
                    break; // cancelled (or budget gone) mid-backoff
            }
        }
    };

    // Run one benchmark and report it. benchmark_finished is emitted as
    // each benchmark completes, so progress sinks (stderr heartbeat)
    // see results live during parallel runs; for multi-config sweeps
    // its counts are the first configuration's.
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
        run_attempts(bench, bench_name, outcome);
        outcome.wallMs = elapsedMsSince(start);
        if (telemetry == nullptr)
            return;
        BenchmarkRunResult summary;
        summary.error = outcome.error;
        summary.errorCategory = outcome.category;
        if (outcome.error.empty()) {
            const BenchmarkRunResult &first = outcome.perConfig.front();
            summary.branches = first.branches;
            summary.mispredicts = first.mispredicts;
            summary.mispredictRate = first.mispredictRate;
            summary.error = first.error;
            summary.errorCategory = first.errorCategory;
        }
        telemetry->emit(TelemetryEvent(
            events::kBenchmarkFinished,
            {field("benchmark", bench_name),
             field("wall_ms", outcome.wallMs),
             field("attempts",
                   static_cast<std::uint64_t>(outcome.attempts)),
             field("branches", summary.branches),
             field("mispredicts", summary.mispredicts),
             field("mispredict_rate", summary.mispredictRate),
             field("error", summary.error),
             field("error_category",
                   summary.failed() ? toString(summary.errorCategory)
                                    : "")}));
        MetricsRegistry &registry = telemetry->registry();
        registry.increment("suite.benchmarks");
        registry.observe("suite.bench_wall_ms", outcome.wallMs);
        if (summary.failed())
            registry.increment("suite.failures");
    };

    // Benchmark pipelining: schedule.passes scheduler threads (just
    // the calling thread for one pass) pull benchmark indices; the
    // replay work itself runs inline on them or on the shared pool.
    // Exceptions escaping a benchmark (e.g. a fatal store failure)
    // become that benchmark's error.
    std::atomic<std::size_t> next{0};
    const auto pump = [&] {
        for (;;) {
            const std::size_t bench =
                next.fetch_add(1, std::memory_order_relaxed);
            if (bench >= suite_.size())
                return;
            try {
                run_bench(bench);
            } catch (const std::exception &e) {
                outcomes[bench].error = e.what();
                outcomes[bench].category = categoryOf(e);
                outcomes[bench].cancelled =
                    outcomes[bench].category == ErrorCategory::kCancelled;
            } catch (...) {
                outcomes[bench].error = "unknown exception";
            }
            // Fail-fast teardown: the first real failure cancels the
            // run token so sibling passes (and queued ones) unwind
            // instead of simulating doomed work.
            if (fail_fast && !outcomes[bench].error.empty() &&
                !outcomes[bench].cancelled)
                ctx.token.cancel();
        }
    };
    if (schedule.passes == 1) {
        pump();
    } else {
        std::vector<std::thread> schedulers;
        schedulers.reserve(schedule.passes);
        for (unsigned s = 0; s < schedule.passes; ++s)
            schedulers.emplace_back(pump);
        for (auto &thread : schedulers)
            thread.join();
    }

    if (telemetry != nullptr) {
        MetricsRegistry &registry = telemetry->registry();
        registry.setGauge("sweep.pool_workers",
                          static_cast<double>(schedule.workers));
        registry.setGauge("sweep.bench_parallel",
                          static_cast<double>(schedule.passes));
        if (pool != nullptr) {
            registry.mergeStats("sweep.pool_occupancy",
                                pool->occupancyStats());
        }
    }

    // Fail-fast surfaces the root cause: the first non-cancelled
    // failure in suite order (cancelled entries are teardown
    // collateral; when every failure is a cancellation — external
    // cancel or suite deadline — the first of those is the cause).
    if (fail_fast) {
        const PassOutcome *culprit = nullptr;
        std::size_t culprit_bench = 0;
        for (std::size_t bench = 0;
             bench < suite_.size() && culprit == nullptr; ++bench) {
            if (!outcomes[bench].error.empty() &&
                !outcomes[bench].cancelled) {
                culprit = &outcomes[bench];
                culprit_bench = bench;
            }
        }
        for (std::size_t bench = 0;
             bench < suite_.size() && culprit == nullptr; ++bench) {
            if (!outcomes[bench].error.empty()) {
                culprit = &outcomes[bench];
                culprit_bench = bench;
            }
        }
        if (culprit != nullptr) {
            if (telemetry != nullptr) {
                std::uint64_t failures = 0;
                for (const auto &outcome : outcomes)
                    failures += outcome.error.empty() ? 0 : 1;
                telemetry->emit(TelemetryEvent(
                    events::kSuiteRunFinished,
                    {field("wall_ms", elapsedMsSince(ctx.start)),
                     field("degraded", true),
                     field("failed_benchmarks", failures),
                     field("survivors", std::uint64_t{0}),
                     field("error", culprit->error)}));
                // Flush now: if the caller doesn't catch the fatal()
                // exception, std::terminate skips unwinding and
                // buffered sink tails (including the event above)
                // would be lost.
                telemetry->finish();
            }
            fatal(culprit->category,
                  "benchmark '" + suite_.profile(culprit_bench).name +
                      "' failed: " + culprit->error);
        }
    }

    return outcomes;
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
        if (!outcome.error.empty()) {
            // Every configuration consumed the same pass, so the
            // benchmark is failed for all of them.
            outcome.perConfig.assign(configs.size(), BenchmarkRunResult{});
            for (auto &failed : outcome.perConfig) {
                failed.name = suite_.profile(bench).name;
                failed.error = outcome.error;
                failed.errorCategory = outcome.category;
                failed.cancelled = outcome.cancelled;
            }
        }
        const std::uint64_t tag = static_cast<std::uint64_t>(bench)
                                  << 48;
        for (std::size_t c = 0; c < configs.size(); ++c) {
            BenchmarkRunResult &bench_result = outcome.perConfig[c];
            bench_result.attempts = outcome.attempts;
            bench_result.wallMs = wall_share;
            if (options.profileBranches && !bench_result.failed()) {
                result.perConfig[c].branchProfile.mergeFrom(
                    bench_result.branchProfile, tag);
            }
            result.perConfig[c].perBenchmark.push_back(
                std::move(bench_result));
        }
    }

    std::size_t survivors = 0;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const std::size_t config_survivors = computeComposites(
            result.perConfig[c], options.profileStatic, suite_.size());
        if (c == 0)
            survivors = config_survivors;
        result.perConfig[c].wallMs = elapsedMsSince(sweep_start);
    }
    result.wallMs = elapsedMsSince(sweep_start);
    if (telemetry != nullptr) {
        // Suite-level counts are the first configuration's; per-config
        // degradation is visible in each sweep_config_* event.
        const SuiteRunResult &first = result.perConfig.front();
        telemetry->emit(TelemetryEvent(
            events::kSuiteRunFinished,
            {field("wall_ms", result.wallMs),
             field("composite_mispredict_rate",
                   first.compositeMispredictRate),
             field("degraded", result.degraded()),
             field("failed_benchmarks",
                   static_cast<std::uint64_t>(first.failedBenchmarks())),
             field("zero_record_benchmarks",
                   static_cast<std::uint64_t>(first.zeroRecordBenchmarks)),
             field("survivors", static_cast<std::uint64_t>(survivors))}));
        telemetry->registry().observe("suite.wall_ms", result.wallMs);
    }
    return result;
}

} // namespace confsim
