#include "sim/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "fault/fault_plan.h"
#include "trace/trace_stats.h"
#include "util/ascii_plot.h"
#include "util/csv.h"
#include "util/status.h"
#include "util/string_utils.h"

namespace confsim {

namespace {

/**
 * Arm the process-wide FaultInjector with @p spec and wire its
 * observer into telemetry: every injected fault increments the
 * fault.injected.<site> counter and appends a fault_injected event.
 * Sink-flush hits only count — they fire inside Telemetry::finish with
 * its (non-recursive) mutex held, so emitting an event from the
 * observer would self-deadlock. A stderr line keeps CI logs readable
 * even when telemetry is off.
 */
void
installFaultPlan(const std::string &spec,
                 std::shared_ptr<Telemetry> telemetry)
{
    FaultInjector::instance().install(FaultPlan::parse(spec));
    FaultInjector::instance().setObserver([telemetry](
                                              const FaultHit &hit) {
        std::fprintf(
            stderr,
            "[confsim] fault injected: %s %s (scope '%s', "
            "occurrence %llu)\n",
            toString(hit.site), toString(hit.action),
            hit.scope.c_str(),
            static_cast<unsigned long long>(hit.occurrence));
        if (telemetry == nullptr)
            return;
        telemetry->registry().increment(
            std::string("fault.injected.") + toString(hit.site));
        if (hit.site == FaultSite::kSinkFlush)
            return;
        telemetry->emit(TelemetryEvent(
            events::kFaultInjected,
            {field("benchmark", hit.scope),
             field("kind", std::string("plan.") + toString(hit.site)),
             field("action", toString(hit.action)),
             field("config", hit.key),
             field("occurrence", hit.occurrence)}));
    });
}

} // namespace

bool
ExperimentEnv::fromCli(int argc, const char *const *argv,
                       const std::string &description,
                       ExperimentEnv &env)
{
    CliParser cli(description);
    cli.addOption("branches", "2000000",
                  "conditional branches per benchmark");
    cli.addOption("csv-dir", ".", "directory for CSV output");
    cli.addFlag("fast", "reduced suite and short traces (smoke run)");
    cli.addOption("checkpoint-dir", "",
                  "write/restore run checkpoints in this directory");
    cli.addOption("checkpoint-every", "250000",
                  "branches between mid-run checkpoints (0 = only "
                  "completion markers)");
    cli.addFlag("resume",
                "resume prior progress from --checkpoint-dir");
    cli.addOption("sweep-threads", "0",
                  "suite worker budget: min(N, benchmarks) passes run "
                  "at once (0 = hardware concurrency)");
    cli.addOption("sample-rate", "0.1",
                  "sampled-replay region fraction in (0, 1]");
    cli.addOption("region-branches", "10000",
                  "conditional branches per sampling region");
    cli.addOption("strata", "4",
                  "quantile strata for sampled replay");
    cli.addOption("subsamples", "5",
                  "repeated-subsampling groups (error-bar "
                  "resolution)");
    cli.addOption("sample-seed", "24301",
                  "region-selection seed for sampled replay");
    cli.addOption("warmup-regions", "",
                  "functional-warming window in regions before each "
                  "sample (unset = warm every non-sampled region)");
    cli.addOption("fault-plan", "",
                  "deterministic fault schedule, e.g. "
                  "'ckpt:write=1:enospc;shard:cfg=2:throw' (env "
                  "CONFSIM_FAULT_PLAN when unset; see "
                  "fault/fault_plan.h)");
    cli.addOption("deadline-ms", "0",
                  "suite wall-clock budget; in-flight work is "
                  "cancelled cooperatively on expiry (0 = unlimited)");
    cli.addOption("telemetry", "",
                  "write JSONL telemetry (manifest + events) here");
    cli.addOption("telemetry-csv", "",
                  "write long-format CSV telemetry here");
    cli.addFlag("progress", "stderr heartbeat while the suite runs");
    cli.addOption("heartbeat", "1",
                  "heartbeat period, in finished benchmarks");
    if (!cli.parse(argc, argv))
        return false;
    env.branchesPerBenchmark = cli.getUnsigned("branches");
    env.csvDir = cli.getString("csv-dir");
    if (cli.getFlag("fast")) {
        env.fullSuite = false;
        env.branchesPerBenchmark =
            std::min<std::uint64_t>(env.branchesPerBenchmark, 200'000);
    }
    env.tool = description;
    env.checkpointDir = cli.getString("checkpoint-dir");
    env.checkpointEvery = cli.getUnsigned("checkpoint-every");
    env.resume = cli.getFlag("resume");
    if (env.resume && env.checkpointDir.empty())
        fatal(ErrorCategory::kConfig,
              "--resume requires --checkpoint-dir");
    env.sweepThreads =
        static_cast<unsigned>(cli.getUnsigned("sweep-threads"));
    env.sampleRate = cli.getDouble("sample-rate");
    env.regionBranches = cli.getUnsigned("region-branches");
    env.strata = static_cast<std::uint32_t>(cli.getUnsigned("strata"));
    env.subsamples =
        static_cast<std::uint32_t>(cli.getUnsigned("subsamples"));
    env.sampleSeed = cli.getUnsigned("sample-seed");
    if (!cli.getString("warmup-regions").empty())
        env.warmupRegions = cli.getUnsigned("warmup-regions");
    env.deadlineMs = cli.getUnsigned("deadline-ms");
    env.faultPlan = cli.getString("fault-plan");
    if (env.faultPlan.empty()) {
        if (const char *plan = std::getenv("CONFSIM_FAULT_PLAN"))
            env.faultPlan = plan;
    }
    env.telemetry.jsonlPath = cli.getString("telemetry");
    env.telemetry.csvPath = cli.getString("telemetry-csv");
    env.telemetry.progress = cli.getFlag("progress");
    env.telemetry.heartbeatEveryBenchmarks =
        static_cast<unsigned>(cli.getUnsigned("heartbeat"));
    env.telemetryContext = Telemetry::fromOptions(env.telemetry);
    if (!env.faultPlan.empty())
        installFaultPlan(env.faultPlan, env.telemetryContext);
    return true;
}

int
runHarness(int argc, const char *const *argv,
           const std::string &description,
           const std::function<int(const ExperimentEnv &)> &body)
{
    try {
        ExperimentEnv env;
        if (!ExperimentEnv::fromCli(argc, argv, description, env))
            return 0;
        return body(env);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n",
                     std::filesystem::path(argv[0]).filename().c_str(),
                     e.what());
        return 1;
    }
}

BenchmarkSuite
ExperimentEnv::makeSuite() const
{
    return fullSuite ? BenchmarkSuite::ibs(branchesPerBenchmark)
                     : BenchmarkSuite::ibsSmall(branchesPerBenchmark);
}

PredictorFactory
largeGshareFactory()
{
    return [] {
        return std::make_unique<GsharePredictor>(
            paper::kLargePredictorEntries, paper::kLargeHistoryBits);
    };
}

PredictorFactory
smallGshareFactory()
{
    return [] {
        return std::make_unique<GsharePredictor>(
            paper::kSmallPredictorEntries, paper::kSmallHistoryBits);
    };
}

PredictorFactory
tageFactory()
{
    return [] { return std::make_unique<TagePredictor>(); };
}

PredictorFactory
perceptronFactory()
{
    return [] { return std::make_unique<PerceptronPredictor>(); };
}

EstimatorConfig
oneLevelIdealConfig(IndexScheme scheme, std::size_t entries,
                    unsigned cir_bits, CtInit init)
{
    EstimatorConfig config;
    config.label = toString(scheme);
    config.make = [=] {
        return std::make_unique<OneLevelCirConfidence>(
            scheme, entries, cir_bits, CirReduction::RawPattern, init);
    };
    return config;
}

EstimatorConfig
oneLevelOnesCountConfig(IndexScheme scheme, std::size_t entries,
                        unsigned cir_bits)
{
    EstimatorConfig config;
    config.label = std::string(toString(scheme)) + ".1Cnt";
    config.make = [=] {
        return std::make_unique<OneLevelCirConfidence>(
            scheme, entries, cir_bits, CirReduction::OnesCount,
            CtInit::Ones);
    };
    return config;
}

EstimatorConfig
oneLevelCounterConfig(IndexScheme scheme, CounterKind kind,
                      std::size_t entries, std::uint32_t max_value)
{
    EstimatorConfig config;
    config.label = std::string(toString(scheme)) + "." +
                   (kind == CounterKind::Saturating ? "Sat" : "Reset");
    config.make = [=] {
        return std::make_unique<OneLevelCounterConfidence>(
            scheme, entries, kind, max_value, 0);
    };
    return config;
}

EstimatorConfig
twoLevelConfig(IndexScheme first_scheme, SecondLevelIndex second_index,
               std::size_t first_entries, unsigned first_cir_bits,
               unsigned second_cir_bits)
{
    EstimatorConfig config;
    config.label = std::string(toString(first_scheme)) + "-" +
                   toString(second_index);
    config.make = [=] {
        return std::make_unique<TwoLevelConfidence>(
            first_scheme, first_entries, first_cir_bits, second_index,
            second_cir_bits);
    };
    return config;
}

EstimatorConfig
tageProviderConfig()
{
    EstimatorConfig out;
    out.label = "TAGE.Prov";
    out.make = [] { return std::make_unique<TageProviderConfidence>(); };
    return out;
}

EstimatorConfig
perceptronMarginConfig(unsigned num_levels)
{
    EstimatorConfig out;
    out.label = "Perc.Margin";
    out.make = [num_levels] {
        return std::make_unique<PerceptronMarginConfidence>(num_levels);
    };
    return out;
}

namespace {

/**
 * The paper's driver knobs for one suite experiment over @p suite,
 * with telemetry wired in and the reproducibility manifest set: suite
 * identity with per-benchmark stream checksums, the first
 * configuration's predictor/estimator names (from throwaway instances;
 * the sweep_* events carry the rest), driver knobs, build provenance.
 */
DriverOptions
experimentOptions(const ExperimentEnv &env, const BenchmarkSuite &suite,
                  const std::vector<SweepExperimentConfig> &configs,
                  bool env_suite = true)
{
    if (configs.empty()) {
        fatal(ErrorCategory::kConfig,
              "a suite experiment needs at least one configuration");
    }
    DriverOptions options;
    options.bhrBits = paper::kLargeHistoryBits;
    options.gcirBits = paper::kCirBits;
    Telemetry *const telemetry = env.telemetryContext.get();
    if (telemetry == nullptr)
        return options;
    options.telemetry = telemetry;

    RunManifest manifest = RunManifest::withBuildInfo();
    manifest.tool = env.tool;
    manifest.suite = !env_suite      ? "ibs-subset"
                     : env.fullSuite ? "ibs-full"
                                     : "ibs-small";
    const auto predictor = configs.front().makePredictor();
    manifest.predictor = predictor->name();
    manifest.predictorStorageBits = predictor->storageBits();
    for (const auto &config : configs.front().estimators)
        manifest.estimators.push_back(config.make()->name());
    manifest.bhrBits = options.bhrBits;
    manifest.gcirBits = options.gcirBits;
    manifest.warmupBranches = options.warmupBranches;
    manifest.contextSwitchInterval = options.contextSwitchInterval;
    constexpr std::uint64_t kChecksumRecords = 4096;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        ManifestBenchmark bench;
        bench.name = suite.profile(i).name;
        bench.seed = suite.profile(i).seed;
        bench.branches = suite.branchesPerBenchmark();
        const auto source = suite.makeGenerator(i);
        bench.traceChecksum = streamChecksum(*source, kChecksumRecords);
        manifest.benchmarks.push_back(std::move(bench));
    }
    telemetry->setManifest(std::move(manifest));
    return options;
}

/** One sweep configuration per experiment configuration; its
 *  estimator factory builds fresh instances on every call. */
std::vector<SweepConfiguration>
sweepConfigurations(const std::vector<SweepExperimentConfig> &configs)
{
    std::vector<SweepConfiguration> sweep;
    sweep.reserve(configs.size());
    for (const auto &config : configs) {
        EstimatorSetFactory make_estimators = [set = config.estimators] {
            std::vector<std::unique_ptr<ConfidenceEstimator>> out;
            out.reserve(set.size());
            for (const auto &estimator : set)
                out.push_back(estimator.make());
            return out;
        };
        sweep.push_back({config.label, config.makePredictor,
                         std::move(make_estimators)});
    }
    return sweep;
}

/**
 * Refuse, instead of dropping, the flags a @p run cannot honour: it
 * runs fail-fast without checkpoints or a deadline, as every planned
 * pass does (SuiteRunner::runPasses).
 */
void
refuseCheckpointAndDeadline(const ExperimentEnv &env, const char *run)
{
    const std::pair<bool, const char *> unsupported[] = {
        {!env.checkpointDir.empty(), "--checkpoint-dir"},
        {env.resume, "--resume"},
        {env.deadlineMs != 0, "--deadline-ms"}};
    for (const auto &[set, flag] : unsupported) {
        if (set) {
            fatal(ErrorCategory::kConfig,
                  std::string(flag) + " does not apply to " + run);
        }
    }
}

} // namespace

SweepSuiteResult
runSuiteExperiment(const ExperimentEnv &env,
                   const std::vector<SweepExperimentConfig> &configs,
                   const SuiteRunner::PassHooks &hooks,
                   std::optional<BenchmarkSuite> suite)
{
    const bool planned = static_cast<bool>(hooks.plan);
    if (planned)
        refuseCheckpointAndDeadline(env, "a planned run");
    const bool env_suite = !suite.has_value();
    const SuiteRunner runner(env_suite ? env.makeSuite() : std::move(*suite));
    DriverOptions options =
        experimentOptions(env, runner.suite(), configs, env_suite);
    options.profileStatic = !planned;
    SweepOptions sweep;
    sweep.threads = env.sweepThreads;
    RunPolicy policy;
    policy.checkpoint.directory = env.checkpointDir;
    policy.checkpoint.everyBranches = env.checkpointEvery;
    policy.checkpoint.resume = env.resume;
    policy.deadlineMs = env.deadlineMs;
    return runner.runSweep(sweepConfigurations(configs), options, sweep,
                           policy, hooks);
}

SamplingRunResult
runSampledSuiteExperiment(const ExperimentEnv &env,
                          const std::vector<SweepExperimentConfig> &configs)
{
    refuseCheckpointAndDeadline(env, "a sampled run");
    const SuiteRunner runner(env.makeSuite());
    SamplingOptions sampling;
    sampling.sampleRate = env.sampleRate;
    sampling.regionBranches = env.regionBranches;
    sampling.strata = env.strata;
    sampling.subsamples = env.subsamples;
    sampling.seed = env.sampleSeed;
    sampling.warmupRegions = env.warmupRegions;
    sampling.sweep.threads = env.sweepThreads;

    SamplingEngine engine(sweepConfigurations(configs),
                          experimentOptions(env, runner.suite(), configs),
                          sampling);
    return engine.runSuite(runner);
}

NamedCurve
compositeCurve(const SuiteRunResult &result, std::size_t index,
               const std::string &name)
{
    return NamedCurve{
        name, ConfidenceCurve::fromBucketStats(
                  result.compositeEstimatorStats.at(index))};
}

NamedCurve
staticCompositeCurve(const SuiteRunResult &result)
{
    return NamedCurve{"static", ConfidenceCurve::fromSparseStats(
                                    result.compositeStaticStats)};
}

void
printCoverageSummary(const std::vector<NamedCurve> &curves)
{
    const double kPoints[] = {0.05, 0.10, 0.20, 0.30, 0.50};
    std::printf("%-28s", "method");
    for (double p : kPoints)
        std::printf("  @%2.0f%%", p * 100.0);
    std::printf("    AUC\n");
    for (const auto &named : curves) {
        std::printf("%-28s", named.name.c_str());
        for (double p : kPoints) {
            std::printf("  %5.1f",
                        100.0 * named.curve.mispredCoverageAt(p));
        }
        std::printf("  %.4f\n", named.curve.areaUnderCurve());
    }
    std::printf("\n(cells: %% of all mispredictions captured by a "
                "low-confidence set holding that %% of dynamic "
                "branches)\n");
}

std::string
plotCurves(const std::string &title,
           const std::vector<NamedCurve> &curves)
{
    PlotOptions options;
    options.title = title;
    options.xLabel = "% of Dynamic Branches";
    options.yLabel = "% of Mispredictions (cumulative)";
    AsciiPlot plot(options);
    for (const auto &named : curves) {
        PlotSeries series;
        series.name = named.name;
        series.points.push_back({0.0, 0.0});
        for (const auto &point : named.curve.thinnedPoints(0.0025)) {
            series.points.push_back({100.0 * point.refFraction,
                                     100.0 * point.mispredFraction});
        }
        series.points.push_back({100.0, 100.0});
        plot.addSeries(series);
    }
    return plot.render();
}

void
writeCurvesCsv(const std::string &path,
               const std::vector<NamedCurve> &curves)
{
    CsvWriter csv(path);
    csv.writeRow({"series", "bucket", "bucket_rate", "ref_pct",
                  "mispred_pct"});
    for (const auto &named : curves) {
        for (const auto &point : named.curve.thinnedPoints(0.0025)) {
            csv.writeRow({named.name, std::to_string(point.bucket),
                          formatFixed(point.bucketRate, 6),
                          formatFixed(100.0 * point.refFraction, 4),
                          formatFixed(100.0 * point.mispredFraction,
                                      4)});
        }
    }
    std::printf("wrote %s\n", path.c_str());
}

void
printMispredictionRates(const SuiteRunResult &result)
{
    std::printf("%-12s %12s %12s %10s\n", "benchmark", "branches",
                "mispredicts", "rate");
    for (const auto &bench : result.perBenchmark) {
        std::printf("%-12s %12llu %12llu %9.2f%%\n",
                    bench.name.c_str(),
                    static_cast<unsigned long long>(bench.branches),
                    static_cast<unsigned long long>(bench.mispredicts),
                    100.0 * bench.mispredictRate);
    }
    std::printf("%-12s %12s %12s %9.2f%%  (equal-weight)\n\n",
                "composite", "-", "-",
                100.0 * result.compositeMispredictRate);
}

} // namespace confsim
