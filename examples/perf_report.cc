/**
 * @file
 * Performance-trajectory reporter: times the simulation stack —
 * predictor-only SimulationDriver runs (the replay kernel on the
 * calling thread), then each paper estimator riding the predictor,
 * then the full six-estimator configuration, then the sweep contest
 * and the sampled pass — and writes a dated, schema-versioned
 * artifact:
 *
 *   BENCH_<YYYY-MM-DD>.json
 *     { "schema": "confsim-bench-v1", "date": ..., build provenance,
 *       "sweep_speedup_10cfg": <single-pass sweep vs per-config
 *       replay at 10 configurations>,
 *       "sweep_pipeline_speedup": <decode-ahead pipelined sweep vs
 *       the synchronous-refill sweep on the same pass>,
 *       "results": [ { "name", "branches", "wall_ms",
 *                      "ns_per_branch" }, ... ] }
 *
 * CI runs this (with --fast) on every push and uploads the artifact,
 * so ns/branch regressions leave a dated trail that can be diffed
 * across commits. With --telemetry the run also writes a JSONL stream:
 * the run manifest, the span summary (with --trace-out), and the final
 * metrics snapshot.
 *
 *   ./build/examples/perf_report --fast --out-dir reports
 */

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "sim/experiment.h"
#include "trace/trace_stats.h"
#include "util/atomic_file.h"
#include "util/cli.h"
#include "util/signal_cancellation.h"
#include "util/status.h"
#include "workload/workload_generator.h"

using namespace confsim;

namespace {

/** One timed configuration. */
struct TimedCase
{
    std::string name;
    std::uint64_t branches = 0;
    double wallMs = 0.0;
    double nsPerBranch = 0.0;
};

/** @return today's local date as YYYY-MM-DD. */
std::string
todayIso()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    localtime_r(&now, &tm);
    char buf[16];
    std::strftime(buf, sizeof buf, "%Y-%m-%d", &tm);
    return buf;
}

/** Run one (predictor, estimator set) configuration and time it. */
TimedCase
timeCase(const std::string &name, const BenchmarkProfile &profile,
         std::uint64_t branches,
         const std::vector<EstimatorConfig> &configs,
         const CancellationToken *cancel)
{
    WorkloadGenerator workload(profile, branches);
    const auto predictor = largeGshareFactory()();
    std::vector<std::unique_ptr<ConfidenceEstimator>> estimators;
    std::vector<ConfidenceEstimator *> raw;
    for (const auto &config : configs) {
        estimators.push_back(config.make());
        raw.push_back(estimators.back().get());
    }
    DriverOptions options;
    options.cancel = cancel;
    SimulationDriver driver(*predictor, raw, options);
    const DriverResult result = driver.run(workload);

    TimedCase timed;
    timed.name = name;
    timed.branches = result.branches;
    timed.wallMs = result.wallMs;
    timed.nsPerBranch =
        result.branches == 0
            ? 0.0
            : result.wallMs * 1e6 / static_cast<double>(result.branches);
    return timed;
}

/** The 10-configuration matrix used for the sweep-vs-replay contest. */
std::vector<SweepConfiguration>
sweepMatrix()
{
    const std::vector<EstimatorConfig> configs = {
        oneLevelIdealConfig(IndexScheme::Pc),
        oneLevelIdealConfig(IndexScheme::Bhr),
        oneLevelIdealConfig(IndexScheme::PcXorBhr),
        oneLevelOnesCountConfig(IndexScheme::PcXorBhr),
        oneLevelCounterConfig(IndexScheme::PcXorBhr,
                              CounterKind::Saturating),
        oneLevelCounterConfig(IndexScheme::PcXorBhr,
                              CounterKind::Resetting),
        oneLevelCounterConfig(IndexScheme::PcXorBhr,
                              CounterKind::HalfReset),
        twoLevelConfig(IndexScheme::PcXorBhr, SecondLevelIndex::Cir),
    };
    std::vector<SweepConfiguration> matrix;
    for (const auto &config : configs) {
        SweepConfiguration entry;
        entry.label = config.label;
        entry.makePredictor = largeGshareFactory();
        entry.makeEstimators = [make = config.make] {
            std::vector<std::unique_ptr<ConfidenceEstimator>> set;
            set.push_back(make());
            return set;
        };
        matrix.push_back(std::move(entry));
    }
    // The native-confidence families carry their own (heavier)
    // predictors, so the contest also tracks TAGE/perceptron
    // ns-per-branch over time.
    const std::vector<std::pair<PredictorFactory, EstimatorConfig>>
        native = {
            {tageFactory(), tageProviderConfig()},
            {perceptronFactory(), perceptronMarginConfig()},
        };
    for (const auto &[factory, config] : native) {
        SweepConfiguration entry;
        entry.label = config.label;
        entry.makePredictor = factory;
        entry.makeEstimators = [make = config.make] {
            std::vector<std::unique_ptr<ConfidenceEstimator>> set;
            set.push_back(make());
            return set;
        };
        matrix.push_back(std::move(entry));
    }
    return matrix;
}

/** The three-way sweep contest rows. */
struct SweepContest
{
    TimedCase replay;    //!< one sequential driver run per config
    TimedCase singlePass; //!< sweep, synchronous refill (decodeAhead 1)
    TimedCase pipelined; //!< sweep with the decode-ahead ring

    /** Pipeline-occupancy summary of the pipelined pass. */
    double shardBusyFrac = 0.0;
    double barrierWaitMs = 0.0;
    double decodeStallMs = 0.0;
};

/**
 * Time the same 10 configurations three ways: decoding the trace once
 * per configuration (the pre-sweep workflow), one broadcast pass with
 * synchronous refill between batches, and one broadcast pass with the
 * decode-ahead ring. replay/single_pass is the headline
 * "sweep_speedup_10cfg"; single_pass/pipelined is
 * "sweep_pipeline_speedup".
 */
SweepContest
timeSweepContest(const BenchmarkProfile &profile,
                 std::uint64_t branches, SpanTracer *spans,
                 const CancellationToken *cancel)
{
    const std::vector<SweepConfiguration> matrix = sweepMatrix();
    SweepContest contest;

    TimedCase &replay = contest.replay;
    replay.name = "sweep/replay_10cfg";
    for (const auto &config : matrix) {
        WorkloadGenerator workload(profile, branches);
        const auto predictor = config.makePredictor();
        auto estimators = config.makeEstimators();
        std::vector<ConfidenceEstimator *> raw;
        for (const auto &estimator : estimators)
            raw.push_back(estimator.get());
        DriverOptions replay_options;
        replay_options.cancel = cancel;
        SimulationDriver driver(*predictor, raw, replay_options);
        const DriverResult result = driver.run(workload);
        replay.branches = result.branches;
        replay.wallMs += result.wallMs;
    }

    const auto time_sweep = [&](const char *name,
                                std::size_t decode_ahead,
                                SpanTracer *pass_spans,
                                SweepContest *occupancy) {
        TimedCase timed;
        timed.name = name;
        WorkloadGenerator workload(profile, branches);
        DriverOptions driver_options;
        driver_options.spans = pass_spans;
        driver_options.cancel = cancel;
        SweepOptions sweep;
        sweep.decodeAhead = decode_ahead;
        SweepEngine engine(matrix, driver_options, sweep);
        const SweepRunResult result = engine.run(workload);
        timed.branches = result.branches;
        timed.wallMs = result.wallMs;
        if (occupancy != nullptr) {
            occupancy->shardBusyFrac = result.shardBusyFrac;
            occupancy->barrierWaitMs = result.barrierWaitMs;
            occupancy->decodeStallMs = result.decodeStallMs;
        }
        return timed;
    };
    contest.singlePass =
        time_sweep("sweep/single_pass_10cfg", 1, nullptr, nullptr);
    // Only the pipelined pass is traced: it is the pass whose
    // producer/shard/barrier interleaving the trace is meant to show.
    contest.pipelined =
        time_sweep("sweep/pipelined_10cfg",
                   SweepOptions::kDefaultDecodeAhead, spans, &contest);

    // ns per branch UPDATE (branches x configs), so the rows are
    // directly comparable per unit of simulation work.
    const double updates =
        static_cast<double>(replay.branches) *
        static_cast<double>(matrix.size());
    if (updates > 0) {
        replay.nsPerBranch = replay.wallMs * 1e6 / updates;
        contest.singlePass.nsPerBranch =
            contest.singlePass.wallMs * 1e6 / updates;
        contest.pipelined.nsPerBranch =
            contest.pipelined.wallMs * 1e6 / updates;
    }
    return contest;
}

/**
 * Time the same 10 configurations replaying a stratified 10% sample
 * with a bounded functional-warming window (sim/sampling_engine.h):
 * non-sampled, non-warming regions fast-forward, so this is the
 * genuine wall-clock lever for long traces. pipelined/sampled is
 * "sampling_speedup".
 */
TimedCase
timeSampledPass(const BenchmarkProfile &profile,
                std::uint64_t branches, const CancellationToken *cancel)
{
    DriverOptions driver_options;
    driver_options.cancel = cancel;
    SamplingOptions sampling;
    sampling.sampleRate = 0.1;
    sampling.regionBranches = std::max<std::uint64_t>(
        1000, branches / 100);
    sampling.warmupRegions = 2;
    SamplingEngine engine(sweepMatrix(), driver_options, sampling);
    const SamplingBenchmarkResult result = engine.runTrace(
        profile.name, [&] {
            return std::make_unique<WorkloadGenerator>(profile,
                                                       branches);
        });

    TimedCase timed;
    timed.name = "sampling/sampled_10cfg";
    timed.branches = result.recordedBranches;
    timed.wallMs = result.prePassMs + result.replayMs;
    const double updates = static_cast<double>(
                               result.recordedBranches) *
                           static_cast<double>(sweepMatrix().size());
    if (updates > 0)
        timed.nsPerBranch = timed.wallMs * 1e6 / updates;
    return timed;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("perf-trajectory report (BENCH_<date>.json)");
    cli.addOption("out-dir", ".",
                  "directory for the BENCH_<date>.json artifact");
    cli.addOption("branches", "2000000",
                  "branches per timed configuration");
    cli.addOption("benchmark", "groff", "IBS workload used for timing");
    cli.addFlag("fast", "short traces (CI smoke run)");
    cli.addOption("telemetry", "",
                  "write JSONL telemetry (manifest + events) here");
    cli.addOption("trace-out", "",
                  "write a Chrome/Perfetto trace-event JSON of the "
                  "pipelined sweep pass here");
    if (!cli.parse(argc, argv))
        return 0;

    std::uint64_t branches = cli.getUnsigned("branches");
    if (cli.getFlag("fast"))
        branches = std::min<std::uint64_t>(branches, 200'000);
    const BenchmarkProfile profile =
        ibsProfile(cli.getString("benchmark"));

    TelemetryOptions telemetry_options;
    telemetry_options.jsonlPath = cli.getString("telemetry");
    const auto telemetry = Telemetry::fromOptions(telemetry_options);

    // Provenance shared by the JSON artifact and the telemetry stream.
    RunManifest manifest = RunManifest::withBuildInfo();
    manifest.tool = "perf_report";
    manifest.suite = "single";
    {
        ManifestBenchmark bench;
        bench.name = profile.name;
        bench.seed = profile.seed;
        bench.branches = branches;
        WorkloadGenerator workload(profile, branches);
        bench.traceChecksum = streamChecksum(workload, 4096);
        manifest.benchmarks.push_back(bench);
    }
    manifest.predictor = largeGshareFactory()()->name();
    if (telemetry)
        telemetry->setManifest(manifest);

    // Ctrl-C / SIGTERM cancel the timing runs cooperatively: the
    // driver unwinds with Error{kCancelled}, telemetry is flushed,
    // and the process exits 128+signo with no partial BENCH artifact
    // (the AtomicFileWriter below never opens).
    CancellationToken root;
    installSignalCancellation(root);

    const std::vector<
        std::pair<std::string, std::vector<EstimatorConfig>>>
        cases = {
            {"driver/predictor_only", {}},
            {"estimator/pc_ideal",
             {oneLevelIdealConfig(IndexScheme::Pc)}},
            {"estimator/pcxorbhr_ideal",
             {oneLevelIdealConfig(IndexScheme::PcXorBhr)}},
            {"estimator/ones_count",
             {oneLevelOnesCountConfig(IndexScheme::PcXorBhr)}},
            {"estimator/saturating",
             {oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                    CounterKind::Saturating)}},
            {"estimator/resetting",
             {oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                    CounterKind::Resetting)}},
            {"estimator/two_level",
             {twoLevelConfig(IndexScheme::PcXorBhr,
                             SecondLevelIndex::Cir)}},
        };

    std::vector<TimedCase> results;
    SpanTracerOptions span_options;
    span_options.path = cli.getString("trace-out");
    const auto spans = SpanTracer::fromOptions(span_options);
    SweepContest contest;
    TimedCase sampled;
    try {
        for (const auto &[name, configs] : cases) {
            results.push_back(
                timeCase(name, profile, branches, configs, &root));
            std::printf("%-26s %8.2f ns/branch  (%.1f ms)\n",
                        results.back().name.c_str(),
                        results.back().nsPerBranch,
                        results.back().wallMs);
        }

        // Sweep contest: 10 configurations — per-config replay, one
        // decoded pass (synchronous refill), one pipelined pass.
        contest = timeSweepContest(profile, branches, spans.get(),
                                   &root);
        sampled = timeSampledPass(profile, branches, &root);
    } catch (const Error &e) {
        if (e.category() != ErrorCategory::kCancelled)
            throw;
        if (telemetry)
            telemetry->finish();
        std::fprintf(stderr, "perf_report: %s\n", e.what());
        return exitCodeForSignal(lastCancellationSignal());
    }
    if (spans)
        publishSpanSummary(spans->finish(), telemetry.get());
    const double sweep_speedup =
        contest.singlePass.wallMs > 0.0
            ? contest.replay.wallMs / contest.singlePass.wallMs
            : 0.0;
    const double pipeline_speedup =
        contest.pipelined.wallMs > 0.0
            ? contest.singlePass.wallMs / contest.pipelined.wallMs
            : 0.0;
    const double sampling_speedup =
        sampled.wallMs > 0.0 ? contest.pipelined.wallMs / sampled.wallMs
                             : 0.0;
    for (const TimedCase &row :
         {contest.replay, contest.singlePass, contest.pipelined,
          sampled}) {
        results.push_back(row);
        std::printf("%-26s %8.2f ns/update  (%.1f ms)\n",
                    row.name.c_str(), row.nsPerBranch, row.wallMs);
    }
    std::printf("sweep speedup at 10 configurations: %.2fx\n",
                sweep_speedup);
    std::printf("decode-ahead pipelining speedup: %.2fx\n",
                pipeline_speedup);
    std::printf("10%% stratified sampling speedup: %.2fx\n",
                sampling_speedup);

    const std::string date = todayIso();
    const std::string out_dir = cli.getString("out-dir");
    std::filesystem::create_directories(out_dir);
    const std::string path = out_dir + "/BENCH_" + date + ".json";
    // Crash-safe: build the report in a .tmp sibling and rename it
    // into place, so an interrupted run cannot leave a truncated JSON
    // artifact for the trajectory tooling to choke on.
    AtomicFileWriter writer(path);
    std::ostream &out = writer.stream();
    out << "{" << jsonString("schema") << ":"
        << jsonString("confsim-bench-v1") << ","
        << jsonString("date") << ":" << jsonString(date) << ","
        << jsonString("build_type") << ":"
        << jsonString(manifest.buildType) << ","
        << jsonString("compiler") << ":"
        << jsonString(manifest.compiler) << ","
        << jsonString("cxx_standard") << ":"
        << jsonString(manifest.cxxStandard) << ","
        << jsonString("benchmark") << ":" << jsonString(profile.name)
        << "," << jsonString("branches") << ":" << branches << ","
        << jsonString("sweep_speedup_10cfg") << ":"
        << jsonNumber(sweep_speedup) << ","
        // Pipelined (decode-ahead) engine vs the synchronous-refill
        // engine on the same 10-config pass; ~1.0 on single-core
        // hosts, > 1 wherever decode can hide behind replay.
        << jsonString("sweep_pipeline_speedup") << ":"
        << jsonNumber(pipeline_speedup) << ","
        // Stratified 10% sampled replay (bounded warming window) vs
        // the pipelined exact pass on the same 10 configurations: the
        // orders-of-magnitude lever for long traces.
        << jsonString("sampling_speedup") << ":"
        << jsonNumber(sampling_speedup) << ","
        // Pipeline-occupancy summary of the pipelined pass: how busy
        // the replay shards were (1.0 = fully hidden decode), how long
        // replay waited at checkpoint barriers, and how much decode
        // latency the ring failed to hide.
        << jsonString("sweep_shard_busy_frac") << ":"
        << jsonNumber(contest.shardBusyFrac) << ","
        << jsonString("sweep_barrier_wait_ms") << ":"
        << jsonNumber(contest.barrierWaitMs) << ","
        << jsonString("sweep_decode_stall_ms") << ":"
        << jsonNumber(contest.decodeStallMs) << ","
        // Sweep speedup scales with cores (config sharding) on top of
        // the decode-once saving, so the trajectory tooling needs the
        // host's parallelism to compare artifacts across machines.
        << jsonString("hardware_concurrency") << ":"
        << std::thread::hardware_concurrency() << ","
        << jsonString("results") << ":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const TimedCase &timed = results[i];
        if (i != 0)
            out << ",";
        out << "{" << jsonString("name") << ":"
            << jsonString(timed.name) << "," << jsonString("branches")
            << ":" << timed.branches << "," << jsonString("wall_ms")
            << ":" << jsonNumber(timed.wallMs) << ","
            << jsonString("ns_per_branch") << ":"
            << jsonNumber(timed.nsPerBranch) << "}";
    }
    out << "]}\n";
    writer.commit();
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
