/**
 * @file
 * Suite-level experiment execution.
 *
 * Runs a (predictor, estimator set) configuration over every benchmark
 * of a suite with fresh structures per benchmark (the paper initializes
 * all tables at the start of each benchmark) and produces both
 * per-benchmark results and the equal-dynamic-branch-weight composite
 * of Section 1.2.
 *
 * Each benchmark is one pass: one thread reads its trace once and
 * replays every batch through every configuration (sim/sweep_engine.h).
 * A run spends its worker budget W (SweepOptions::threads) on
 * min(W, benchmarks) pass threads, each taking the next benchmark in
 * suite order when it finishes one; a pass never spans threads, so a
 * budget above the benchmark count leaves its surplus unused.
 *
 * A suite run fails fast: the first benchmark failure (corrupt trace,
 * watchdog timeout, estimator bug) cancels the passes still running
 * and throws with its category, since an equal-weight composite over
 * part of the suite is not the paper's figure. Checkpoint/resume
 * (RunPolicy::checkpoint) keeps the benchmarks that finished. See
 * docs/robustness.md.
 */

#ifndef CONFSIM_SIM_SUITE_RUNNER_H
#define CONFSIM_SIM_SUITE_RUNNER_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "metrics/bucket_stats.h"
#include "sim/driver.h"
#include "sim/run_policy.h"
#include "trace/trace_source.h"
#include "workload/suite.h"

namespace confsim {

/** Results of one benchmark inside a suite run. */
struct BenchmarkRunResult
{
    std::string name;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    double mispredictRate = 0.0;
    std::vector<BucketStats> estimatorStats;
    SparseBucketStats staticStats; //!< per-PC (when profiling enabled)

    /** Per-branch attribution profile (untagged PCs; empty unless
     *  DriverOptions::profileBranches). Not carried in checkpoint
     *  done-markers — a resumed, already-completed benchmark reports
     *  an empty profile. */
    BranchProfile branchProfile;

    /** Estimator names, from this run's own estimator instances. */
    std::vector<std::string> estimatorNames;

    /**
     * Wall-clock time spent on this benchmark (trace generation +
     * simulation), shared equally among the configurations of a
     * multi-config sweep.
     */
    double wallMs = 0.0;
};

/** Results of a full suite run. */
struct SuiteRunResult
{
    std::vector<BenchmarkRunResult> perBenchmark;
    std::vector<std::string> estimatorNames;

    /** Equal-weight composite per estimator (suite order preserved). */
    std::vector<BucketStats> compositeEstimatorStats;

    /**
     * Equal-weight composite of per-static-branch stats. Keys are
     * (benchmark index << 48) | pc so the same address in different
     * benchmarks stays a distinct static branch.
     */
    SparseBucketStats compositeStaticStats;

    /**
     * Suite-merged per-branch attribution profile (when
     * DriverOptions::profileBranches). Keys are
     * (benchmark index << 48) | pc — the same tagging scheme as
     * compositeStaticStats — so its totals are the exact sums of the
     * benchmarks' counts.
     */
    BranchProfile branchProfile;

    /** Equal-weight composite misprediction rate (over the benchmarks
     *  that recorded branches). */
    double compositeMispredictRate = 0.0;

    /**
     * Benchmarks that ran successfully but recorded zero branches
     * (an empty trace, e.g. a trace file with no records). They are
     * excluded from every composite — averaging their meaningless
     * 0.0 rate or compositing their empty bucket mass would corrupt
     * the result — and flagged via compositeDegraded instead.
     */
    std::size_t zeroRecordBenchmarks = 0;

    /**
     * True iff the composites cover fewer benchmarks than the suite
     * holds because of zero-record exclusions. Consumers that require
     * full-suite composites should check this.
     */
    bool compositeDegraded = false;

    /** Wall-clock time of the whole suite run. */
    double wallMs = 0.0;
};

/** Builds a fresh predictor for one benchmark run. */
using PredictorFactory =
    std::function<std::unique_ptr<BranchPredictor>()>;

/** Builds a fresh set of estimators for one benchmark run. */
using EstimatorSetFactory =
    std::function<std::vector<std::unique_ptr<ConfidenceEstimator>>()>;

/**
 * Optional per-benchmark trace-source decorator. Receives the
 * benchmark index and the freshly built generator; whatever it returns
 * is what the replay consumes. Used to substitute trace-file readers
 * for generators and to inject faults (FaultInjectingTraceSource) in
 * robustness tests. Called once per trace pass (twice for a sampled
 * benchmark: pre-pass and replay, and once more per generation a
 * resume falls back), possibly concurrently — must be thread-safe.
 */
using SourceWrapper = std::function<std::unique_ptr<TraceSource>(
    std::size_t bench, std::unique_ptr<TraceSource> inner)>;

struct SweepConfiguration;
struct SweepOptions;
struct SweepRunResult;

/**
 * The checkpoint store label of @p suite's benchmark @p bench: its
 * name, its profile's seed and its resolved trace length, e.g.
 * `jpeg.seed<S>.branches200000`. A suite run's store for the benchmark
 * writes `<label>.g<N>.ckpt` generations and a `<label>.done.ckpt`
 * marker, so a resume restores only checkpoints of the same trace.
 */
std::string checkpointLabel(const BenchmarkSuite &suite, std::size_t bench);

/**
 * Results of a multi-configuration sweep over a suite: one full
 * SuiteRunResult per attached configuration (configuration order
 * preserved), produced from a single decode pass per benchmark. Each
 * per-config result is bit-exact with what SuiteRunner::run would have
 * produced for that configuration alone (see sim/sweep_engine.h).
 */
struct SweepSuiteResult
{
    std::vector<SuiteRunResult> perConfig;
    std::vector<std::string> labels; //!< configuration labels
    double wallMs = 0.0; //!< wall time of the whole sweep
};

/** Runs configurations across a benchmark suite. */
class SuiteRunner
{
  public:
    /** What one benchmark's pass left behind (see runPasses()). */
    struct PassOutcome
    {
        double wallMs = 0.0;

        /** Per-configuration results. */
        std::vector<BenchmarkRunResult> perConfig;
    };

    /**
     * Per-benchmark hooks that turn runPasses() into a sampled suite
     * run (SamplingEngine::runSuite). Both run on the benchmark's pass
     * thread once, concurrently for different benchmarks; an exception
     * from either fails the pass like a replay error.
     */
    struct PassHooks
    {
        /**
         * Before the replay: read @p source, a fresh stream of
         * benchmark @p bench, and return the recording plan the pass
         * replays under.
         */
        std::function<SweepRecordingPlan(std::size_t bench,
                                         TraceSource &source)>
            plan;

        /** After the replay: read the pass's results (its slot
         *  logs) before runPasses() keeps their counts. */
        std::function<void(std::size_t bench, const SweepRunResult &pass)>
            finish;
    };

    /** @param suite Benchmarks to run (copied). */
    explicit SuiteRunner(BenchmarkSuite suite);

    /**
     * Run the configuration over every benchmark: runSweep() over this
     * one configuration, labelled "run", with default SweepOptions, so
     * it is scheduled by the same rule as every sweep (one pass per
     * benchmark, min(W, benchmarks) at once, W = hardware threads).
     * Results are merged in suite order, so the output is
     * bit-identical to a sequential run.
     *
     * @param make_predictor Fresh-predictor factory (called once per
     *        benchmark, possibly concurrently — must be thread-safe,
     *        which stateless lambdas trivially are).
     * @param make_estimators Fresh-estimator-set factory (same rule).
     * @param options Driver knobs shared by all benchmarks, among them
     *        the run's cancel token and per-benchmark watchdog.
     * @param policy Checkpoint and deadline policy. Any benchmark
     *        failure throws (see runPasses()).
     */
    SuiteRunResult run(const PredictorFactory &make_predictor,
                       const EstimatorSetFactory &make_estimators,
                       DriverOptions options = {},
                       RunPolicy policy = {}) const;

    /**
     * Run many configurations over the suite in one decode pass per
     * benchmark (sim/sweep_engine.h): runPasses(), then the merge of
     * its outcomes in suite order and the Section 1.2 composites. The
     * trace is generated/decoded exactly once per benchmark regardless
     * of configuration count. SweepOptions::threads is the whole run's
     * worker budget W and the only input to the schedule: min(W,
     * benchmarks) pass threads run at once. Results — including output
     * order and composites — are bit-exact with run() called once per
     * configuration at any knob setting.
     *
     * Per-configuration BenchmarkRunResult::wallMs carries an equal
     * 1/numConfigs share of the benchmark's wall time (so sums over
     * configurations recover the real cost); the undivided time is
     * observed once per benchmark as the suite.bench_wall_ms metric.
     *
     * A failure in any configuration fails the benchmark's pass, and
     * with it the run (runPasses()). Checkpointing, when enabled,
     * snapshots the whole sweep per benchmark into a store labelled by
     * checkpointLabel(), which names the benchmark's trace; resume
     * restores finished benchmarks from their done-markers (one
     * `cfg<i>:result` per configuration) and interrupted ones from the
     * newest valid generation, of the same trace only. The suite_run_*
     * and benchmark_* telemetry events come from here.
     *
     * @param configs Attached configurations (factories follow the
     *        same thread-safety rule as run()).
     * @param options Driver knobs shared by all configurations.
     * @param sweep The worker budget W and the batch size.
     * @param policy Checkpoint and deadline policy (see run()).
     * @param hooks Per-benchmark hooks (runPasses()); under a plan
     *        hook the results carry no estimator statistics.
     */
    SweepSuiteResult
    runSweep(const std::vector<SweepConfiguration> &configs,
             DriverOptions options, SweepOptions sweep,
             RunPolicy policy = {}, const PassHooks &hooks = {}) const;

    /**
     * The pass scheduler under runSweep(): one sweep pass per
     * benchmark, with its checkpoint store, deadline and watchdog, the
     * suite_run_started and benchmark_* events, and the
     * sweep.pool_workers (W) / sweep.bench_parallel (passes) gauges.
     * Passes run concurrently by runSweep()'s rule, and each benchmark
     * runs once.
     * The run fails fast: a failed pass cancels the run's token (a
     * child of DriverOptions::cancel), so running and queued passes
     * unwind, and the first failure in suite order (its root cause,
     * not the teardown it triggered) throws with its category.
     *
     * @param hooks Optional per-benchmark plan and finish hooks; a
     *        plan hook refuses checkpointing (Error{kConfig}), since a
     *        sampled pass cannot resume.
     * @return one outcome per benchmark, in suite order.
     */
    std::vector<PassOutcome>
    runPasses(const std::vector<SweepConfiguration> &configs,
              DriverOptions options, SweepOptions sweep,
              RunPolicy policy = {}, const PassHooks &hooks = {}) const;

    /**
     * Install a trace-source decorator applied to every benchmark's
     * generator (empty = none). Primarily a fault-injection and
     * file-replay hook.
     */
    void setSourceWrapper(SourceWrapper wrapper)
    {
        sourceWrapper_ = std::move(wrapper);
    }

    /** @return the suite being run. */
    const BenchmarkSuite &suite() const { return suite_; }

  private:
    BenchmarkSuite suite_;
    SourceWrapper sourceWrapper_;
};

} // namespace confsim

#endif // CONFSIM_SIM_SUITE_RUNNER_H
