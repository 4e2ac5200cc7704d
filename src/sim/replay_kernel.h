/**
 * @file
 * The replay kernel: the paper's per-branch record step, written once.
 *
 * Every simulation path in confsim — SimulationDriver::run(), each
 * SweepEngine configuration, and the sampling engine's planned replay —
 * runs this one step per conditional branch: query the predictor,
 * snapshot the architectural context (PC, global BHR, global CIR), make
 * one ConfidenceEstimator::update() call per attached estimator (it
 * trains on the prediction's correctness and returns the bucket read
 * with the pre-update context), record each bucket against the
 * prediction's correctness, train the predictor on the outcome, then
 * shift the architectural histories (paper Sections 1.2 and 3-5). A
 * context switch (Section 5.4) restores the modelled hardware to its
 * power-on state after the triggering branch has fully trained.
 *
 * A ReplayKernel holds one configuration's replay state: the borrowed
 * predictor and estimators, private BHR/GCIR replicas, the
 * context-switch clock, the recording-plan cursor, the result, and the
 * slot logs. It is single-threaded; the sweep engine gives each worker
 * shard its own kernels.
 */

#ifndef CONFSIM_SIM_REPLAY_KERNEL_H
#define CONFSIM_SIM_REPLAY_KERNEL_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "confidence/confidence_estimator.h"
#include "confidence/static_confidence.h"
#include "metrics/bucket_stats.h"
#include "obs/branch_profiler.h"
#include "predictor/branch_predictor.h"
#include "predictor/history_register.h"
#include "trace/record_batch.h"
#include "util/cancellation.h"
#include "util/error.h"
#include "util/shift_register.h"

namespace confsim {

class Checkpoint;
class SpanTracer;
class Telemetry;

/** Simulation knobs shared by every replay path. */
struct DriverOptions
{
    unsigned bhrBits = 16;   //!< architectural global BHR width
    unsigned gcirBits = 16;  //!< architectural global CIR width
    bool profileStatic = false; //!< collect per-static-branch profile

    /**
     * Branches simulated before statistics collection begins. The
     * structures still train during warmup; only the counters/curves
     * exclude it. 0 = record from the first branch (the paper runs
     * benchmarks "to their full length" and reports everything,
     * including the initial-state effects Fig. 11 studies).
     *
     * Warmup is purely a statistics exclusion window on the first
     * warmupBranches simulated conditionals: it does not delay,
     * reset, or otherwise interact with the context-switch clock
     * below. (Pinned by tests/sim/warmup_context_switch_test.cc.)
     */
    std::uint64_t warmupBranches = 0;

    /**
     * Model context switches: every this many branches the predictor
     * and/or confidence structures are flushed back to their power-on
     * state (per the flags below) and the architectural BHR/GCIR are
     * cleared. 0 = never switch. Section 5.4 motivates this knob: the
     * choice of CT initialization matters exactly because tables
     * restart after context switches.
     *
     * Composition with warmup, exactly: the interval counts EVERY
     * simulated conditional branch, warmup included (the OS does not
     * pause the scheduler while a predictor warms up), so with
     * warmupBranches > contextSwitchInterval the first flushes land
     * inside the warmup window. A switch fires AFTER the triggering
     * branch has fully trained the predictor, estimators, BHR, and
     * GCIR, and never clears accumulated statistics — only modeled
     * hardware state. (Pinned by warmup_context_switch_test.cc.)
     */
    std::uint64_t contextSwitchInterval = 0;

    /** Flush the branch predictor at a context switch. */
    bool flushPredictorOnSwitch = true;

    /** Flush the confidence estimators at a context switch. */
    bool flushEstimatorsOnSwitch = true;

    /**
     * Wall-clock budget for one run in milliseconds; 0 = unlimited.
     * Checked cooperatively every few thousand records; on expiry the
     * run throws Error{kTimeout} so a hung or runaway benchmark
     * unwinds instead of wedging its worker thread. Never
     * fires on a run that finishes in time, so results are unaffected.
     * A suite run gives each benchmark this budget, clipped to what is
     * left of RunPolicy::deadlineMs.
     */
    std::uint64_t wallClockLimitMs = 0;

    /**
     * Optional cooperative cancellation (util/cancellation.h); null =
     * never cancelled. Polled at the same amortized stride as the
     * watchdog; when cancelled the run throws Error{kCancelled} so
     * fail-fast teardown and suite deadlines unwind in-flight work
     * cleanly. A suite run chains its own teardown token to this one.
     * The token must outlive the run.
     */
    const CancellationToken *cancel = nullptr;

    /**
     * Observability hook (obs/telemetry.h); null = telemetry off. The
     * sweep engine emits sweep_run_* / sweep_config_* events and
     * merges sweep.* metrics into the registry; the suite runner adds
     * the suite_run_* / benchmark_* lifecycle. The record step itself
     * never touches it.
     */
    Telemetry *telemetry = nullptr;

    /** Label for this run's events (benchmark name in suite runs). */
    std::string telemetryLabel;

    /**
     * Execution-span tracer (obs/span.h); null = tracing off, at the
     * cost of one null test per instrumented scope. The sweep engine
     * emits per-batch pipeline spans and checkpoint writes.
     */
    SpanTracer *spans = nullptr;

    /**
     * Collect the per-static-branch attribution profile
     * (obs/branch_profiler.h): per-PC mispredictions, low-confidence
     * volume, and per-estimator calibration. Observation-only — never
     * perturbs simulation state, so results are bit-identical with
     * the flag on or off (pinned by
     * tests/integration/branch_profile_test.cc).
     */
    bool profileBranches = false;

    /** Capacity/bin knobs for the branch profile when enabled. */
    BranchProfileOptions branchProfile;
};

/**
 * A region-granular recording plan for statistical sampling
 * (sim/sampling_engine.h). The trace is viewed as consecutive regions
 * of regionBranches conditional branches; each region is replayed in
 * one of three modes chosen by regionSlots:
 *
 *  - a slot id < numSlots: **detailed** — predictor and estimators
 *    update AND the record is counted in the aggregate branch and
 *    mispredict counts and logged in that slot's SweepSlotStats
 *    (slots separate sampled regions into repeated-subsampling
 *    groups). A planned replay keeps no dense per-estimator bank:
 *    the slot logs are all the estimates read;
 *  - kWarmOnly: **functional warming** — predictor/estimator state
 *    updates normally but nothing is recorded, keeping the state a
 *    sampled region sees identical to a full replay's;
 *  - kSkip: **fast-forward** — no record of the region is batched or
 *    reaches a kernel. The sweep engine's reader restores the newest
 *    source snapshot at or before the next worked region and reads
 *    forward from there, and each kernel moves its cursor and
 *    context-switch clock over the gap in O(1)
 *    (ReplayKernel::skipTo). This is the wall-clock lever: state
 *    diverges, so plans place a kWarmOnly window before each
 *    detailed region to re-converge it.
 *
 * The plan is indexed purely by each configuration's private count of
 * simulated conditional branches, so results are bit-exact at any
 * thread count, batch size, or decode-ahead depth — the same contract
 * as every other sweep knob — and whether or not the source can
 * restore snapshots. Plans compose with neither checkpointing nor
 * resume (fatal at run time): nothing checkpoints a sampled run.
 */
struct SweepRecordingPlan
{
    /** Region mode: functionally warm, record nothing. */
    static constexpr std::uint32_t kWarmOnly = 0xFFFFFFFFu;

    /** Region mode: skip all predictor/estimator work. */
    static constexpr std::uint32_t kSkip = 0xFFFFFFFEu;

    /** Conditional branches per region (> 0). */
    std::uint64_t regionBranches = 0;

    /** Per-region mode: a slot id, kWarmOnly, or kSkip. */
    std::vector<std::uint32_t> regionSlots;

    /** Number of detailed slots (slot ids are < numSlots). */
    std::uint32_t numSlots = 0;

    /** A saved trace-source state (TraceSource::saveState). */
    struct SourceSnapshot
    {
        std::uint64_t branch = 0; //!< conditionals read before it
        std::size_t offset = 0;   //!< first byte in snapshotBytes
        std::size_t size = 0;     //!< bytes
    };

    /**
     * Source snapshots at region boundaries and at the trace's end,
     * ascending by branch, which the replay restores to jump over
     * kSkip regions. A snapshot at branch b was saved right after the
     * source delivered its b-th conditional, the last one once the
     * source was exhausted. The sampling pre-pass
     * fills them when its source is checkpointable; with none, or
     * from a replay source that is not, the replay reads forward
     * through each gap instead, with identical results.
     */
    std::vector<SourceSnapshot> snapshots;

    /** Every snapshot's bytes, in one buffer. */
    std::vector<std::uint8_t> snapshotBytes;

    /** @return the mode for @p region (past-the-end warms only). */
    std::uint32_t
    slotForRegion(std::uint64_t region) const
    {
        return region < regionSlots.size() ? regionSlots[region]
                                           : kWarmOnly;
    }
};

/**
 * The records one detailed recording-plan slot received (see
 * SweepRecordingPlan), which the sampling layer turns into
 * between-subsample variance. Each estimator's log holds one entry per
 * recorded branch, in record order: `(bucket << 1) | mispredicted`.
 * A slot therefore costs 4 B per recorded branch and estimator,
 * however large the estimators' bucket spaces are; a planned replay
 * rejects an estimator whose bucket ids need more than 31 bits
 * (ReplayKernel).
 */
struct SweepSlotStats
{
    std::uint64_t branches = 0;    //!< recorded conditional branches
    std::uint64_t mispredicts = 0; //!< predictor misses (recorded)
    std::vector<std::vector<std::uint32_t>> estimatorLogs; //!< per estimator
};

/** Everything one configuration's replay produced. */
struct SweepConfigResult
{
    std::string label;
    std::uint64_t branches = 0;    //!< recorded conditional branches
    std::uint64_t mispredicts = 0; //!< predictor misses (recorded)
    std::uint64_t contextSwitches = 0; //!< modelled switches

    /** Per attached estimator; empty under a recording plan, whose
     *  records land in slotStats instead. */
    std::vector<BucketStats> estimatorStats;
    std::vector<std::string> estimatorNames;
    StaticBranchProfile staticProfile; //!< when profileStatic

    /** Per-branch attribution profile (DriverOptions::profileBranches). */
    BranchProfile branchProfile;

    /**
     * Per-slot record logs, one per SweepRecordingPlan slot; empty
     * when the replay ran without a recording plan. Detailed records
     * are counted in `branches` and `mispredicts` and logged here, so
     * a full-coverage single-slot plan reproduces a plain replay's
     * counts exactly, and slotStats[0]'s logs, counted per bucket,
     * equal a plain replay's estimatorStats.
     */
    std::vector<SweepSlotStats> slotStats;

    /** @return overall misprediction rate. */
    double
    mispredictRate() const
    {
        return branches == 0
                   ? 0.0
                   : static_cast<double>(mispredicts) /
                         static_cast<double>(branches);
    }
};

/**
 * Cooperative unwinding inside a replay: carries the run's
 * cancellation token and wall-clock deadline into the per-record loop,
 * so a hung or cancelled configuration unwinds from inside its kernel.
 * Pure control flow — checking never perturbs simulation results.
 */
struct ReplayGuard
{
    using Clock = std::chrono::steady_clock;

    const CancellationToken *cancel = nullptr;
    bool hasDeadline = false;
    Clock::time_point deadline{};
    std::uint64_t limitMs = 0;

    /** Guard a run starting now under @p options' token and budget. */
    explicit ReplayGuard(const DriverOptions &options);

    bool
    active() const
    {
        return cancel != nullptr || hasDeadline;
    }

    /** Throw if cancelled or past the deadline. */
    void checkNow(std::uint64_t at_records) const;

    /**
     * Injected hang: park until the watchdog or cancellation unwinds
     * this replay. A 30 s safety cap turns a hang nobody is set up to
     * interrupt into a timeout instead of a wedged test run.
     */
    [[noreturn]] void park() const;
};

/**
 * CRC-32 fingerprint of one configuration's identity: the predictor's
 * and every estimator's name, the estimators' bucket counts, the
 * components' saveState() bytes, and the DriverOptions fields that
 * shape simulated statistics (BHR/GCIR widths, static profiling,
 * warmup, the context-switch interval and its flush flags). Call it on
 * freshly built components. Checkpoint entries carry it, so a store
 * shared by configurations with the same label (every
 * SuiteRunner::run() is labelled `run`) never restores one
 * configuration's state or results into another.
 */
std::uint32_t
configFingerprint(const BranchPredictor &predictor,
                  const std::vector<ConfidenceEstimator *> &estimators,
                  const DriverOptions &options);

/**
 * One configuration's record step and replay state.
 *
 * Cache-line aligned: the record step writes the kernel's fields on
 * every branch, and a sweep's shards replay their kernels on different
 * threads, so no two kernels (or a kernel and another configuration's
 * state) may share a 64-byte line.
 */
class alignas(64) ReplayKernel
{
  public:
    /**
     * Binds every estimator to @p predictor
     * (ConfidenceEstimator::bindPredictor), so a mismatched native
     * estimator throws Error{kConfig} here.
     *
     * @param predictor The configuration's predictor (not owned).
     * @param estimators Attached estimators (not owned; may be empty).
     * @param label Configuration label (results and checkpoints).
     * @param options Simulation knobs; must outlive the kernel.
     * @param plan Optional recording plan (not owned); null records
     *        every branch past warmup into dense estimatorStats. Under
     *        a plan an estimator with more than 2^31 buckets throws
     *        Error{kConfig}: its ids would not fit a 4-byte slot log.
     */
    ReplayKernel(BranchPredictor &predictor,
                 std::vector<ConfidenceEstimator *> estimators,
                 std::string label, const DriverOptions &options,
                 const SweepRecordingPlan *plan = nullptr);

    /**
     * Run the record step over every record of @p batch. Under a
     * recording plan the batch must hold no record of a kSkip region
     * (the sweep engine's reader seeks over them; see skipTo()).
     * Without a plan, a batch whose conditionals would take the
     * recorded branches past 2^32 - 1, the most a dense bank's tally
     * counts, throws Error{kConfig} before recording any of them.
     */
    void replay(const RecordBatch &batch, const ReplayGuard &guard);

    /**
     * Move the cursor over the skipped conditionals up to @p branch
     * (no-op unless @p branch is ahead), in O(1): the plan cursor
     * follows, and each context-switch boundary the gap crosses is
     * counted, with one power-on flush standing for them all, since
     * nothing runs between them. Results equal stepping each skipped
     * record through the kernel with no predictor or estimator work.
     */
    void skipTo(std::uint64_t branch);

    /**
     * Add this configuration's checkpoint components under @p prefix:
     * `<prefix>meta` (which carries @p fingerprint, the
     * configFingerprint() of this configuration),
     * `<prefix>predictor:<name>`, `<prefix>estimator<i>:<name>`,
     * `<prefix>stats<i>`, and (with static profiling)
     * `<prefix>static_profile`.
     */
    void save(Checkpoint &ckpt, const std::string &prefix,
              std::uint32_t fingerprint) const;

    /**
     * Restore a save() snapshot; @p ckpt.branches becomes the
     * simulated-branch cursor. fatal() on any label, fingerprint,
     * component, version, or geometry mismatch.
     */
    void restore(const Checkpoint &ckpt, const std::string &prefix,
                 std::uint32_t fingerprint);

    /** fatal() unless every component can be checkpointed. */
    void requireCheckpointable() const;

    /** @return conditional branches simulated so far. */
    std::uint64_t simulated() const { return simulated_; }

    /** @return the accumulating result. */
    SweepConfigResult &result() { return result_; }

    /**
     * Hand the finished result over: every dense bank is packed to the
     * buckets it touched (BucketStats::pack()), then the result is
     * moved out, so the kernel holds none afterwards.
     */
    SweepConfigResult takeResult();

  private:
    void recordStep(const BranchRecord &record, BranchProfile *profile);
    void contextSwitch();

    BranchPredictor *predictor_;
    std::vector<ConfidenceEstimator *> estimators_;
    const DriverOptions &options_;
    const SweepRecordingPlan *plan_;

    HistoryRegister bhr_;
    ShiftRegister gcir_;
    BranchContext ctx_;
    std::uint64_t simulated_ = 0;
    std::uint64_t untilSwitch_ = 0;
    std::uint64_t guardTick_ = 0;

    /**
     * Recording-plan cursor: the current region's mode and how many
     * conditionals of the region remain. A pure function of
     * `simulated_`, so plan resolution is batch-boundary independent.
     */
    std::uint32_t planSlot_ = SweepRecordingPlan::kWarmOnly;
    std::uint64_t planLeft_ = 0;

    SweepConfigResult result_;
};

} // namespace confsim

#endif // CONFSIM_SIM_REPLAY_KERNEL_H
