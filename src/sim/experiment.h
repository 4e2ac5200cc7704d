/**
 * @file
 * Shared experiment plumbing for the figure/table bench harnesses.
 *
 * Centralizes the paper's canonical configurations (predictors, table
 * geometries, trace lengths) plus the report helpers every bench binary
 * uses: composite curve extraction, coverage summaries at reference
 * operating points, ASCII figure plotting, and CSV emission. Keeping
 * these here means each bench/figNN binary is a short declarative list
 * of configurations — and that all figures share identical methodology.
 */

#ifndef CONFSIM_SIM_EXPERIMENT_H
#define CONFSIM_SIM_EXPERIMENT_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "confidence/one_level.h"
#include "confidence/perceptron_margin.h"
#include "confidence/tage_confidence.h"
#include "confidence/two_level.h"
#include "metrics/confidence_curve.h"
#include "obs/telemetry.h"
#include "predictor/gshare.h"
#include "predictor/perceptron.h"
#include "predictor/tage.h"
#include "sim/sampling_engine.h"
#include "sim/suite_runner.h"
#include "sim/sweep_engine.h"
#include "util/cli.h"

namespace confsim {

/** Paper-canonical geometry constants. */
namespace paper {

constexpr std::size_t kLargePredictorEntries = std::size_t{1} << 16;
constexpr unsigned kLargeHistoryBits = 16;
constexpr std::size_t kSmallPredictorEntries = std::size_t{1} << 12;
constexpr unsigned kSmallHistoryBits = 12;
constexpr std::size_t kLargeCtEntries = std::size_t{1} << 16;
constexpr unsigned kCirBits = 16;
constexpr std::uint32_t kCounterMax = 16;

} // namespace paper

/** Runtime environment for a bench binary, parsed from its CLI. */
struct ExperimentEnv
{
    std::uint64_t branchesPerBenchmark = 2'000'000;
    std::string csvDir = ".";
    bool fullSuite = true;

    /** Checkpoint directory ("" = checkpointing off). */
    std::string checkpointDir;

    /** Branches between mid-run checkpoints (--checkpoint-every). */
    std::uint64_t checkpointEvery = 250'000;

    /** Resume from checkpointDir's prior state (--resume). */
    bool resume = false;

    /** Producing binary's description (the manifest "tool" field). */
    std::string tool;

    /**
     * The suite's worker budget W (--sweep-threads); 0 = one per
     * hardware thread. The only scheduling input (see
     * SweepOptions::threads); it never changes results.
     */
    unsigned sweepThreads = 0;

    /**
     * Deterministic fault schedule (--fault-plan, or the
     * CONFSIM_FAULT_PLAN environment variable when the flag is not
     * given); "" = no faults. Grammar in fault/fault_plan.h.
     * fromCli() arms the process-wide FaultInjector with the parsed
     * plan and wires an observer that counts fault.injected.<site>
     * and emits fault_injected telemetry events.
     */
    std::string faultPlan;

    /**
     * Suite wall-clock budget in milliseconds (--deadline-ms, 0 =
     * unlimited); see RunPolicy::deadlineMs.
     */
    std::uint64_t deadlineMs = 0;

    /** Sampled-replay region fraction (--sample-rate), in (0, 1]. */
    double sampleRate = 0.1;

    /** Conditionals per sampling region (--region-branches). */
    std::uint64_t regionBranches = 10'000;

    /** Quantile strata for sampled replay (--strata). */
    std::uint32_t strata = 4;

    /** Repeated-subsampling groups (--subsamples). */
    std::uint32_t subsamples = 5;

    /** Region-selection seed (--sample-seed). */
    std::uint64_t sampleSeed = 0x5eed;

    /**
     * Functional-warming window in regions (--warmup-regions);
     * SamplingOptions::kWarmAll (the default) warms every non-sampled
     * region instead of fast-forwarding.
     */
    std::uint64_t warmupRegions = ~0ull;

    /** Telemetry knobs (--telemetry/--telemetry-csv/--progress). */
    TelemetryOptions telemetry;

    /**
     * Shared telemetry context, or null when no sink is enabled.
     * Created by fromCli(); shared so copies of the env feed one
     * stream. The suite entry points wire it into the driver.
     */
    std::shared_ptr<Telemetry> telemetryContext;

    /**
     * Parse standard bench options (--branches, --csv-dir, --fast,
     * --telemetry, --telemetry-csv, --progress, --heartbeat).
     * @return false if --help was printed (caller should exit 0).
     */
    static bool fromCli(int argc, const char *const *argv,
                        const std::string &description,
                        ExperimentEnv &env);

    /** @return the configured IBS suite (full or reduced). */
    BenchmarkSuite makeSuite() const;
};

/**
 * The main every bench harness returns through: parse the standard
 * options (ExperimentEnv::fromCli) and run @p body on them. An
 * exception that escapes parsing or @p body unwinds @p body's scope
 * first, so a CsvWriter left open publishes nothing and telemetry
 * flushes; it is then printed as "<program>: <message>" on stderr.
 *
 * @return 0 after --help, else @p body's status, or 1 after an error.
 */
int runHarness(int argc, const char *const *argv,
               const std::string &description,
               const std::function<int(const ExperimentEnv &)> &body);

/** A labelled estimator configuration. */
struct EstimatorConfig
{
    std::string label;
    std::function<std::unique_ptr<ConfidenceEstimator>()> make;
};

/** Factory for the paper's 64K-entry gshare. */
PredictorFactory largeGshareFactory();

/** Factory for the paper's 4K-entry gshare. */
PredictorFactory smallGshareFactory();

/** Factory for the reference-scale TAGE predictor. */
PredictorFactory tageFactory();

/** Factory for the reference-scale perceptron predictor. */
PredictorFactory perceptronFactory();

/** One-level CT with full CIRs and raw-pattern (ideal-ready) buckets. */
EstimatorConfig
oneLevelIdealConfig(IndexScheme scheme,
                    std::size_t entries = paper::kLargeCtEntries,
                    unsigned cir_bits = paper::kCirBits,
                    CtInit init = CtInit::Ones);

/** One-level CT with full CIRs and ones-count buckets. */
EstimatorConfig
oneLevelOnesCountConfig(IndexScheme scheme,
                        std::size_t entries = paper::kLargeCtEntries,
                        unsigned cir_bits = paper::kCirBits);

/** One-level CT with embedded counters. */
EstimatorConfig
oneLevelCounterConfig(IndexScheme scheme, CounterKind kind,
                      std::size_t entries = paper::kLargeCtEntries,
                      std::uint32_t max_value = paper::kCounterMax);

/** Two-level configuration with raw-pattern level-2 buckets. */
EstimatorConfig
twoLevelConfig(IndexScheme first_scheme, SecondLevelIndex second_index,
               std::size_t first_entries = paper::kLargeCtEntries,
               unsigned first_cir_bits = paper::kCirBits,
               unsigned second_cir_bits = paper::kCirBits);

/**
 * TAGE's built-in provider confidence, read from the configuration's
 * own TAGE predictor. Pair with tageFactory(); a predictor of another
 * family fails with Error{kConfig} at run time.
 */
EstimatorConfig tageProviderConfig();

/**
 * Perceptron |margin|-vs-theta confidence in @p num_levels levels,
 * read from the configuration's own perceptron. Pair with
 * perceptronFactory(); a predictor of another family fails with
 * Error{kConfig} at run time.
 */
EstimatorConfig perceptronMarginConfig(unsigned num_levels = 8);

/** One labelled (predictor, estimator set) suite configuration. */
struct SweepExperimentConfig
{
    std::string label;
    PredictorFactory makePredictor;
    std::vector<EstimatorConfig> estimators;
};

/**
 * Run the configurations over the environment's suite exactly, with
 * static profiling enabled: SuiteRunner::runSweep, one decode pass per
 * benchmark whatever the configuration count. The worker budget is
 * env.sweepThreads; checkpointing, resume and the suite deadline come
 * from env. Per-config results are bit-exact with running each
 * configuration alone; only the wall clock differs. A one-config run
 * labelled "run" is what SuiteRunner::run computes, and shares its
 * checkpoints.
 *
 * @param hooks Per-benchmark hooks (SuiteRunner::runSweep). A planned
 *        run records only slot logs, for the finish hook, and refuses
 *        env.checkpointDir, env.resume and env.deadlineMs with
 *        Error{kConfig} naming the flag, as a sampled run does.
 * @param suite The benchmarks; unset = env.makeSuite().
 */
SweepSuiteResult
runSuiteExperiment(const ExperimentEnv &env,
                   const std::vector<SweepExperimentConfig> &configs,
                   const SuiteRunner::PassHooks &hooks = {},
                   std::optional<BenchmarkSuite> suite = std::nullopt);

/**
 * Statistically sample the environment's suite instead of replaying it
 * exactly (sim/sampling_engine.h): stratified ranked-set region
 * selection at env.sampleRate with env.subsamples repeated subsamples,
 * yielding misprediction-rate / coverage@20% / PVN estimates with
 * standard errors and 95% CIs. Sampling knobs come from env.sampleRate
 * / env.regionBranches / env.strata / env.subsamples / env.sampleSeed
 * / env.warmupRegions; the worker budget is env.sweepThreads, spent by
 * runSuiteExperiment's rule. A sampled run neither checkpoints nor
 * keeps a deadline, so env.checkpointDir, env.resume or
 * env.deadlineMs fails with Error{kConfig} naming the flag. Emits the
 * sampling_run_finished telemetry event when telemetry is attached.
 */
SamplingRunResult
runSampledSuiteExperiment(const ExperimentEnv &env,
                          const std::vector<SweepExperimentConfig> &configs);

/** A named curve ready for reporting. */
struct NamedCurve
{
    std::string name;
    ConfidenceCurve curve;
};

/** Composite curve of estimator @p index from a suite run. */
NamedCurve compositeCurve(const SuiteRunResult &result,
                          std::size_t index, const std::string &name);

/** Composite per-static-branch curve (the Section 2 method). */
NamedCurve staticCompositeCurve(const SuiteRunResult &result);

/**
 * Print a coverage summary table: for each curve, the percent of
 * mispredictions captured by low-confidence sets of 5/10/20/30/50%
 * of dynamic branches, plus the curve AUC.
 */
void printCoverageSummary(const std::vector<NamedCurve> &curves);

/** Render the paper-style cumulative plot of the curves. */
std::string plotCurves(const std::string &title,
                       const std::vector<NamedCurve> &curves);

/**
 * Write all curves to @p path as CSV rows:
 * series,bucket,bucket_rate,ref_pct,mispred_pct
 * (points thinned at 0.25% as in the paper's plotting rule).
 */
void writeCurvesCsv(const std::string &path,
                    const std::vector<NamedCurve> &curves);

/** Print per-benchmark and composite misprediction rates. */
void printMispredictionRates(const SuiteRunResult &result);

} // namespace confsim

#endif // CONFSIM_SIM_EXPERIMENT_H
