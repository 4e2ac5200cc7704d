/**
 * @file
 * Statistical trace sampling with quantified error bars.
 *
 * Exact replay prices every experiment at the full trace length; the
 * sampling engine prices it at a chosen fraction while reporting how
 * much accuracy that fraction cost. The recipe is the two NVIDIA CPU
 * sampling papers' (PAPERS.md) — stratified region sampling with
 * ranked-set selection and repeated subsampling — layered over the
 * existing sweep machinery:
 *
 *  1. **Pre-pass** (one cheap streaming pass): segment the trace into
 *     fixed-size regions of SamplingOptions::regionBranches
 *     conditionals and score each region with two proxy features — a
 *     tiny bimodal predictor's misprediction rate (a stand-in for
 *     "how hard is this region") and the region's branch working-set
 *     size (a stand-in for "how much predictor state it churns").
 *  2. **Stratify**: rank regions by proxy misprediction rate and cut
 *     the ranking into SamplingOptions::strata equal-count quantile
 *     strata, so each stratum holds behaviourally similar regions and
 *     the between-region variance the estimator must average over is
 *     within-stratum only.
 *  3. **Ranked-set sample**: within each stratum, each pick draws
 *     rankSetSize candidate regions, ranks them by working-set size,
 *     and keeps the candidate whose rank cycles across picks — RSS
 *     spreads picks across the secondary feature's range, beating
 *     plain random sampling at equal budget.
 *  4. **Repeated subsampling**: picks are dealt round-robin into
 *     subsamples groups; each group is an independent estimate of the
 *     same quantity, and their spread IS the sampling error
 *     (metrics/interval_estimate.h) — no analytic variance model.
 *  5. **Replay** once through the SweepEngine under a
 *     SweepRecordingPlan: sampled regions log their records into
 *     per-(stratum, subsample) slots, regions ahead of a sample warm
 *     functionally, and (when warmupRegions is bounded) everything
 *     else is skipped: the pre-pass saved the source's state at every
 *     region boundary, so the replay restores the one before each
 *     next worked region instead of generating the gap. The replay
 *     keeps only the slot logs and the recorded counts
 *     (sim/replay_kernel.h), and the estimates are built from the
 *     logs as soon as the replay ends.
 *
 * A sampled suite (runSuite) runs each benchmark as one pass on
 * SuiteRunner::runPasses, the scheduler under runSweep: a plan hook
 * does steps 1-4 on the pass's thread, the pass replays, and a finish
 * hook turns the slot logs into the benchmark's estimates. Benchmarks
 * therefore overlap, pre-pass and estimates included, on one worker
 * budget (SweepOptions::threads, runSweep's schedule rule), and share
 * the scheduler's fail-fast teardown and telemetry.
 *
 * Estimates are stratified means — per subsample, stratum rates are
 * combined with pre-pass branch-count weights, renormalized over the
 * strata that subsample covers — for the misprediction rate, the
 * coverage at the paper's 20% operating point, and PVN, each carried
 * as an IntervalEstimate with standard error and 95% CI.
 *
 * Everything is deterministic given SamplingOptions::seed: the
 * pre-pass is a fixed function of the trace, selection uses a private
 * Rng seeded per benchmark, and replay inherits the sweep engine's
 * bit-exactness contract, so selections AND estimates are
 * bit-identical at any thread count, benchmark overlap, batch size,
 * or decode-ahead depth (pinned by
 * tests/integration/sampling_differential_test.cc).
 */

#ifndef CONFSIM_SIM_SAMPLING_ENGINE_H
#define CONFSIM_SIM_SAMPLING_ENGINE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/interval_estimate.h"
#include "sim/sweep_engine.h"

namespace confsim {

/** Sampling-engine knobs. */
struct SamplingOptions
{
    /** Warm every non-sampled region (exact predictor state, no
     *  fast-forward speedup) — the accuracy-first default. */
    static constexpr std::uint64_t kWarmAll = ~0ull;

    /** Fraction of regions to replay in detail, in (0, 1]. */
    double sampleRate = 0.1;

    /** Conditional branches per region. */
    std::uint64_t regionBranches = 10000;

    /** Quantile strata over the proxy-mispredict ranking (>= 1). */
    std::uint32_t strata = 4;

    /** Repeated-subsampling groups (>= 2 for usable error bars). */
    std::uint32_t subsamples = 5;

    /** Ranked-set candidate draws per pick (1 = plain random). */
    std::uint32_t rankSetSize = 3;

    /** Selection seed; same seed, same selections and estimates. */
    std::uint64_t seed = 0x5eed;

    /**
     * Functional-warming window: how many regions immediately before
     * each sampled region replay in kWarmOnly mode while everything
     * else fast-forwards (SweepRecordingPlan::kSkip). kWarmAll warms
     * every region instead — no state divergence, no skip speedup.
     * Bounded windows trade a small warming bias for wall-clock wins;
     * see docs/performance.md for guidance.
     */
    std::uint64_t warmupRegions = kWarmAll;

    /** Scheduling and replay tuning: runTrace() reads threads as
     *  one replay's shard count, runSuite() as the suite's worker
     *  budget W, which runSweep's rule spends on min(W, benchmarks)
     *  passes (SweepOptions). recordingPlan and pool are owned by the
     *  engine and must be left null. */
    SweepOptions sweep;
};

/** One configuration's estimates (per benchmark or composite). */
struct SamplingConfigEstimate
{
    std::string label;
    IntervalEstimate mispredictRate;
    std::vector<std::string> estimatorNames;
    std::vector<IntervalEstimate> coverageAt20; //!< per estimator
    std::vector<IntervalEstimate> pvnAt20;      //!< per estimator

    /** Per-subsample misprediction-rate estimates (the values the
     *  IntervalEstimate summarizes) — kept for differential tests
     *  and composite construction. */
    std::vector<double> rateSubsamples;

    /** Per-estimator, per-subsample coverage/PVN series (same role
     *  as rateSubsamples). Indexed [estimator][subsample]. */
    std::vector<std::vector<double>> coverageSubsamples;
    std::vector<std::vector<double>> pvnSubsamples;
};

/** Everything the sampler produced for one benchmark. */
struct SamplingBenchmarkResult
{
    std::string name;
    std::uint64_t totalBranches = 0;  //!< trace conditionals (pre-pass)
    std::uint64_t recordedBranches = 0; //!< detailed-recorded
    std::uint64_t regions = 0;
    std::uint64_t sampledRegions = 0;
    std::vector<std::uint64_t> sampledRegionIds; //!< ascending
    std::vector<SamplingConfigEstimate> perConfig;
    double prePassMs = 0.0; //!< feature pre-pass wall time
    /** Planned replay wall time, including building the
     *  configurations' replay kernels. */
    double replayMs = 0.0;
    double estimateMs = 0.0; //!< stratified estimates from slot logs

    /** @return totalBranches / recordedBranches (0 when nothing
     *  recorded). */
    double
    reductionFactor() const
    {
        return recordedBranches == 0
                   ? 0.0
                   : static_cast<double>(totalBranches) /
                         static_cast<double>(recordedBranches);
    }
};

/** Results of a sampled suite run. */
struct SamplingRunResult
{
    std::vector<SamplingBenchmarkResult> perBenchmark;

    /** Equal-weight composite estimates, one per configuration:
     *  subsample-r composites average the benchmarks' subsample-r
     *  estimates, mirroring EqualWeightComposite. */
    std::vector<SamplingConfigEstimate> composite;

    std::uint64_t totalBranches = 0;
    std::uint64_t recordedBranches = 0;
    double wallMs = 0.0;

    /** @return suite-wide replayed-records reduction factor. */
    double
    reductionFactor() const
    {
        return recordedBranches == 0
                   ? 0.0
                   : static_cast<double>(totalBranches) /
                         static_cast<double>(recordedBranches);
    }
};

class SuiteRunner;

/** Samples traces and estimates sweep results with error bars. */
class SamplingEngine
{
  public:
    /** Fresh deterministic trace factory; each call must yield a
     *  bit-identical stream (the engine runs two passes). */
    using SourceFactory =
        std::function<std::unique_ptr<TraceSource>()>;

    /**
     * @param configs Attached configurations (as SweepEngine's).
     * @param driver Simulation knobs shared by all configurations.
     * @param options Sampling knobs; fatal(kConfig) on invalid values
     *        at construction and on a caller-owned recording plan or
     *        worker pool.
     */
    SamplingEngine(std::vector<SweepConfiguration> configs,
                   DriverOptions driver, SamplingOptions options);

    /**
     * Sample one trace on the calling thread: plan (pre-pass and
     * selection), one SweepEngine replay, then the estimates. @p name
     * labels the results and seeds the selection.
     */
    SamplingBenchmarkResult runTrace(const std::string &name,
                                     const SourceFactory &make_source);

    /**
     * The recording plan runTrace() would replay @p source under:
     * steps 1-4 on the calling thread, with @p name seeding the
     * selection. Lets a caller replay the plan through a SweepEngine
     * itself and read the slot logs and per-configuration counts.
     */
    SweepRecordingPlan recordingPlan(const std::string &name,
                                     TraceSource &source) const;

    /**
     * Sample every benchmark of @p runner's suite (honouring its
     * source wrapper) as concurrent passes on
     * SuiteRunner::runPasses, then composite the estimates. Fail-fast:
     * the first benchmark failure in suite order throws with its
     * category, and DriverOptions::cancel cancels the run (kCancelled).
     * With DriverOptions::telemetry attached, emits the scheduler's
     * suite_run_started and benchmark_* events, then
     * suite_run_finished and sampling_run_finished, and the
     * sampling.* metrics.
     */
    SamplingRunResult runSuite(const SuiteRunner &runner);

  private:
    std::vector<SweepConfiguration> configs_;
    DriverOptions driver_;
    SamplingOptions options_;
};

} // namespace confsim

#endif // CONFSIM_SIM_SAMPLING_ENGINE_H
