#include "sim/sweep_engine.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "ckpt/checkpoint.h"
#include "ckpt/checkpoint_store.h"
#include "fault/fault_plan.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "util/cancellation.h"
#include "util/error.h"
#include "util/running_stats.h"
#include "util/status.h"

namespace confsim {

namespace {

std::string
cfgPrefix(std::size_t config)
{
    return "cfg" + std::to_string(config) + ":";
}

} // namespace

/**
 * Everything one configuration owns: its predictor and estimator bank,
 * plus the kernel that replays batches through them.
 */
struct SweepEngine::ConfigState
{
    std::unique_ptr<BranchPredictor> predictor;
    std::vector<std::unique_ptr<ConfidenceEstimator>> owned;
    std::unique_ptr<ReplayKernel> kernel;
    /** configFingerprint() of the fresh components; computed only
     *  when the run writes or resumes checkpoints. */
    std::uint32_t fingerprint = 0;
};

namespace {

/**
 * The pass's one trace reader: refills the batch from the source on the
 * calling thread and owns the shared cursors (records consumed,
 * branches simulated) and the checkpoint cadence, flagging the batch
 * boundaries a checkpoint is due at. The source is untouched between
 * refills, so a checkpoint written there serializes it (or records its
 * watermark) exactly at the checkpointed record.
 *
 * Under a recording plan the reader follows the plan: a batch ends
 * where a worked span (a run of regions that are not kSkip) ends, and
 * before the next batch the source seeks to the next worked region. It
 * restores the plan's newest source snapshot at or before that region,
 * when the source can restore one, and reads forward from there;
 * skipped records are never batched. firstBranch() is the cursor the
 * batch's first record starts at, so kernels skip the same gap
 * (ReplayKernel::skipTo).
 */
class BatchReader
{
  public:
    BatchReader(TraceSource &source, std::size_t batch_size,
                std::uint64_t consumed, std::uint64_t simulated,
                std::uint64_t ckpt_every, const SweepRecordingPlan *plan,
                std::string scope, const CancellationToken *cancel,
                SpanTracer *spans)
        : source_(source), batch_(batch_size), ckptEvery_(ckpt_every),
          plan_(plan), scope_(std::move(scope)), cancel_(cancel),
          spans_(spans), consumed_(consumed), simulated_(simulated),
          spanEnd_(plan == nullptr ? kNoEnd : simulated)
    {
        nextCkpt_ = ckptEvery_ == 0
                        ? 0
                        : (simulated_ / ckptEvery_ + 1) * ckptEvery_;
    }

    /**
     * Refill the batch, first seeking over the skipped regions after a
     * worked span, and advance the cursors and the checkpoint cadence.
     * Cancellation, injected decode faults and failed seeks throw.
     * @return false at end of stream.
     */
    bool
    next()
    {
        ScopedSpan refill_span(spans_, "decode.refill");
        if (cancel_ != nullptr)
            cancel_->throwIfCancelled("sweep decode");
        FaultInjector &injector = FaultInjector::instance();
        if (injector.armed())
            injector.fire(FaultSite::kDecodeBatch, scope_);
        if (simulated_ == spanEnd_)
            seekNextSpan();
        firstBranch_ = simulated_;
        if (batch_.refill(source_, spanEnd_ - simulated_) == 0)
            return false;
        consumed_ += batch_.size();
        simulated_ += batch_.conditionals();
        checkpointDue_ = ckptEvery_ != 0 && simulated_ >= nextCkpt_;
        if (checkpointDue_)
            nextCkpt_ = (simulated_ / ckptEvery_ + 1) * ckptEvery_;
        return true;
    }

    const RecordBatch &batch() const { return batch_; }
    /** @return the cursor at the batch's first record. */
    std::uint64_t firstBranch() const { return firstBranch_; }
    /** @return records batched so far. */
    std::uint64_t consumed() const { return consumed_; }
    /** @return the cursor: conditionals read or skipped so far (at the
     *  end of the trace once next() has returned false). */
    std::uint64_t simulated() const { return simulated_; }
    /** @return whether a checkpoint is due after this batch. */
    bool checkpointDue() const { return checkpointDue_; }

  private:
    static constexpr std::uint64_t kNoEnd = ~std::uint64_t{0};

    /**
     * At the end of a worked span: move the source to the next region
     * that is not kSkip (or, past the plan's last one, to the end of
     * the trace) and find where that span ends.
     */
    void
    seekNextSpan()
    {
        const std::vector<std::uint32_t> &slots = plan_->regionSlots;
        std::uint64_t region = simulated_ / plan_->regionBranches;
        while (region < slots.size() &&
               slots[region] == SweepRecordingPlan::kSkip)
            ++region;
        seek(region * plan_->regionBranches);
        std::uint64_t end = region;
        while (end < slots.size() && slots[end] != SweepRecordingPlan::kSkip)
            ++end;
        spanEnd_ = end < slots.size() ? end * plan_->regionBranches : kNoEnd;
    }

    /**
     * Position the source right after its @p target-th conditional, or
     * at its end if it holds fewer: restore the newest snapshot at or
     * before @p target that is ahead of the cursor, then read forward.
     */
    void
    seek(std::uint64_t target)
    {
        const std::vector<SweepRecordingPlan::SourceSnapshot> &snapshots =
            plan_->snapshots;
        auto newest = std::upper_bound(
            snapshots.begin(), snapshots.end(), target,
            [](std::uint64_t branch,
               const SweepRecordingPlan::SourceSnapshot &snapshot) {
                return branch < snapshot.branch;
            });
        if (newest != snapshots.begin() && source_.checkpointable() &&
            std::prev(newest)->branch > simulated_) {
            const SweepRecordingPlan::SourceSnapshot &snapshot =
                *std::prev(newest);
            StateReader in(plan_->snapshotBytes.data() + snapshot.offset,
                           snapshot.size);
            source_.loadState(in);
            if (!in.atEnd()) {
                fatal(ErrorCategory::kInternal,
                      "source snapshot at branch " +
                          std::to_string(snapshot.branch) +
                          " has unconsumed bytes");
            }
            simulated_ = snapshot.branch;
        }
        BranchRecord record;
        while (simulated_ < target && source_.next(record))
            simulated_ += record.isConditional();
    }

    TraceSource &source_;
    RecordBatch batch_;
    const std::uint64_t ckptEvery_;
    const SweepRecordingPlan *const plan_;
    const std::string scope_;
    const CancellationToken *const cancel_;
    SpanTracer *const spans_;
    std::uint64_t consumed_;  //!< records batched
    std::uint64_t simulated_; //!< the cursor: conditionals read or skipped
    std::uint64_t spanEnd_;   //!< where the worked span ends (kNoEnd)
    std::uint64_t firstBranch_ = 0;
    std::uint64_t nextCkpt_ = 0;
    bool checkpointDue_ = false;
};

} // namespace

SweepEngine::SweepEngine(std::vector<SweepConfiguration> configs,
                         DriverOptions driver, SweepOptions sweep)
    : configs_(std::move(configs)), driver_(driver), sweep_(sweep)
{
    if (configs_.empty())
        fatal(ErrorCategory::kConfig, "SweepEngine needs at least one configuration");
    for (const auto &config : configs_) {
        if (!config.makePredictor || !config.makeEstimators) {
            fatal(ErrorCategory::kConfig, "sweep configuration '" + config.label +
                  "' is missing a factory");
        }
    }
}

SweepEngine::~SweepEngine() = default;

void
SweepEngine::checkpointEvery(std::uint64_t n_branches,
                             CheckpointStore *store)
{
    if (n_branches != 0 && store == nullptr)
        fatal(ErrorCategory::kConfig, "checkpointEvery: a period needs a CheckpointStore");
    ckptEvery_ = n_branches;
    ckptStore_ = store;
}

SweepRunResult
SweepEngine::run(TraceSource &source, const SweepRecordingPlan *plan)
{
    return runImpl(source, nullptr, plan);
}

SweepRunResult
SweepEngine::resume(TraceSource &source, const Checkpoint &from)
{
    return runImpl(source, &from, nullptr);
}

void
SweepEngine::writeCheckpoint(TraceSource &source,
                             SweepRunResult &result,
                             std::uint64_t consumed,
                             std::uint64_t simulated)
{
    ScopedSpan span(driver_.spans, "ckpt.write");
    Checkpoint ckpt;
    ckpt.label = driver_.telemetryLabel;
    ckpt.watermark = consumed;
    ckpt.branches = simulated;

    StateWriter meta;
    meta.putU64(driver_.bhrBits);
    meta.putU64(driver_.gcirBits);
    meta.putU64(configs_.size());
    meta.putU64(driver_.profileStatic ? 1 : 0);
    ckpt.add("sweep:meta", 1, meta.take());

    for (std::size_t c = 0; c < states_.size(); ++c)
        states_[c]->kernel->save(ckpt, cfgPrefix(c),
                                 states_[c]->fingerprint);
    if (source.checkpointable())
        ckpt.addComponent("source", source);

    // A failed periodic write (ENOSPC, failed fsync, injected fault)
    // loses checkpoint freshness, not the sweep: the atomic writer never
    // publishes a partial file, so the previous generation remains
    // loadable and resumable. Cancellation still propagates.
    try {
        ckptStore_->write(ckpt);
    } catch (const std::exception &e) {
        if (categoryOf(e) == ErrorCategory::kCancelled)
            throw;
        if (driver_.telemetry != nullptr) {
            driver_.telemetry->registry().increment("ckpt.write_failed");
            driver_.telemetry->emit(TelemetryEvent(
                events::kCheckpointWriteFailed,
                {field("benchmark", driver_.telemetryLabel),
                 field("at_branch", ckpt.branches),
                 field("error", std::string(e.what()))}));
        }
        return;
    }
    ++result.checkpointsWritten;
}

SweepRunResult
SweepEngine::runImpl(TraceSource &source,
                     const Checkpoint *resume_from,
                     const SweepRecordingPlan *plan)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point run_start = Clock::now();

    SweepRunResult result;

    if (plan != nullptr) {
        if (plan->regionBranches == 0) {
            fatal(ErrorCategory::kConfig,
                  "recording plan needs regionBranches > 0");
        }
        for (const std::uint32_t slot : plan->regionSlots) {
            if (slot >= plan->numSlots &&
                slot != SweepRecordingPlan::kWarmOnly &&
                slot != SweepRecordingPlan::kSkip) {
                fatal(ErrorCategory::kConfig,
                      "recording plan slot " + std::to_string(slot) +
                          " is out of range (numSlots " +
                          std::to_string(plan->numSlots) + ")");
            }
        }
        std::uint64_t previous = 0;
        for (const SweepRecordingPlan::SourceSnapshot &snapshot :
             plan->snapshots) {
            const std::size_t bytes = plan->snapshotBytes.size();
            if (snapshot.branch < previous || snapshot.offset > bytes ||
                snapshot.size > bytes - snapshot.offset) {
                fatal(ErrorCategory::kConfig,
                      "recording plan snapshot at branch " +
                          std::to_string(snapshot.branch) +
                          " is out of order or outside snapshotBytes");
            }
            previous = snapshot.branch;
        }
        if (ckptEvery_ != 0) {
            fatal(ErrorCategory::kConfig,
                  "a recording plan does not compose with "
                  "checkpointing: nothing checkpoints a sampled run");
        }
    }

    // Build every configuration's private state from its factories.
    states_.clear();
    states_.reserve(configs_.size());
    for (const auto &config : configs_) {
        auto state = std::make_unique<ConfigState>();
        state->predictor = config.makePredictor();
        if (state->predictor == nullptr) {
            fatal(ErrorCategory::kConfig, "sweep configuration '" + config.label +
                  "' produced a null predictor");
        }
        state->owned = config.makeEstimators();
        std::vector<ConfidenceEstimator *> estimators;
        estimators.reserve(state->owned.size());
        for (const auto &estimator : state->owned)
            estimators.push_back(estimator.get());
        if (ckptEvery_ != 0 || resume_from != nullptr) {
            state->fingerprint =
                configFingerprint(*state->predictor, estimators, driver_);
        }
        state->kernel = std::make_unique<ReplayKernel>(
            *state->predictor, std::move(estimators), config.label,
            driver_, plan);
        if (ckptEvery_ != 0)
            state->kernel->requireCheckpointable();
        states_.push_back(std::move(state));
    }

    std::uint64_t simulated = 0; // conditional branches, shared cursor
    std::uint64_t consumed = 0;  // all records, shared cursor

    if (resume_from != nullptr) {
        // Whatever stops the restore means this checkpoint does not
        // restore into this engine and source, so it surfaces as
        // kCheckpoint: a caller may fall back a generation on that,
        // and on nothing the replay below throws.
        try {
            const CheckpointComponent *meta =
                resume_from->find("sweep:meta");
            if (meta == nullptr) {
                fatal(ErrorCategory::kCheckpoint,
                      "checkpoint has no sweep:meta component");
            }
            if (meta->version != 1) {
                fatal(ErrorCategory::kCheckpoint,
                      "sweep:meta is version " +
                          std::to_string(meta->version) + ", expected 1");
            }
            StateReader in(meta->payload);
            in.expectU64(driver_.bhrBits, "checkpoint BHR width");
            in.expectU64(driver_.gcirBits, "checkpoint GCIR width");
            in.expectU64(configs_.size(), "checkpoint config count");
            in.expectU64(driver_.profileStatic ? 1 : 0,
                         "checkpoint static-profile flag");
            if (!in.atEnd()) {
                fatal(ErrorCategory::kCheckpoint,
                      "sweep:meta has unconsumed bytes");
            }

            for (std::size_t c = 0; c < states_.size(); ++c)
                states_[c]->kernel->restore(*resume_from, cfgPrefix(c),
                                            states_[c]->fingerprint);

            simulated = resume_from->branches;
            if (resume_from->find("source") != nullptr) {
                resume_from->restoreComponent("source", source);
            } else {
                BranchRecord skipped;
                for (std::uint64_t i = 0; i < resume_from->watermark;
                     ++i) {
                    if (!source.next(skipped)) {
                        fatal(ErrorCategory::kCheckpoint,
                              "trace ended after " + std::to_string(i) +
                                  " record(s), before the resume "
                                  "watermark " +
                                  std::to_string(resume_from->watermark));
                    }
                }
            }
            consumed = resume_from->watermark;
        } catch (const std::exception &e) {
            if (categoryOf(e) == ErrorCategory::kCheckpoint)
                throw;
            throw Error(ErrorCategory::kCheckpoint, e.what());
        }
    }

    Telemetry *const telemetry = driver_.telemetry;
    if (telemetry != nullptr) {
        telemetry->emit(TelemetryEvent(
            events::kSweepRunStarted,
            {field("benchmark", driver_.telemetryLabel),
             field("configs",
                   static_cast<std::uint64_t>(configs_.size())),
             field("batch_size",
                   static_cast<std::uint64_t>(sweep_.batchSize)),
             field("resumed", resume_from != nullptr)}));
    }

    // One guard for the whole pass: the loop checks it at batch
    // granularity, the kernels at record granularity and the reader
    // before every refill, so watchdog expiry or a cancel() unwinds
    // the pass wherever it is.
    const ReplayGuard guard(driver_);

    RunningStats batch_ns;
    RunningStats stall_ns;
    SpanTracer *const spans = driver_.spans;
    BatchReader reader(source, sweep_.batchSize, consumed, simulated,
                       ckptEvery_, plan, driver_.telemetryLabel,
                       guard.cancel, spans);
    std::uint64_t delivered = simulated; // conditionals batched
    for (;;) {
        const Clock::time_point r0 = Clock::now();
        const bool more = reader.next();
        const Clock::time_point t0 = Clock::now();
        stall_ns.add(std::chrono::duration<double, std::nano>(t0 - r0)
                         .count());
        if (!more)
            break;

        // Every configuration's share of the batch, after the gap a
        // planned replay skipped before it. Any error — the replay's or
        // an injected fault's — fails the whole pass.
        {
            ScopedSpan replay_span(spans, "shard.replay");
            FaultInjector &injector = FaultInjector::instance();
            for (std::size_t c = 0; c < states_.size(); ++c) {
                if (injector.armed() &&
                    injector.fire(FaultSite::kShardReplay,
                                  driver_.telemetryLabel,
                                  c) == FaultAction::kHang) {
                    guard.park();
                }
                states_[c]->kernel->skipTo(reader.firstBranch());
                states_[c]->kernel->replay(reader.batch(), guard);
            }
        }
        batch_ns.add(
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count());

        consumed = reader.consumed();
        simulated = reader.simulated();
        delivered += reader.batch().conditionals();
        ++result.batches;

        guard.checkNow(consumed);
        if (reader.checkpointDue())
            writeCheckpoint(source, result, consumed, simulated);
    }
    // A trailing skipped gap still runs every switch clock to the end.
    for (auto &state : states_)
        state->kernel->skipTo(reader.simulated());

    result.records = consumed;
    result.branches = delivered;
    // The states themselves (predictors, estimators, history
    // replicas) stay alive until the next run() or destruction, so
    // callers holding component pointers from the factories can still
    // inspect or serialize the final trained state.
    result.perConfig.reserve(states_.size());
    for (auto &state : states_)
        result.perConfig.push_back(state->kernel->takeResult());

    result.wallMs = std::chrono::duration<double, std::milli>(
                        Clock::now() - run_start)
                        .count();
    const auto total_ms = [](const RunningStats &ns) {
        return ns.mean() * static_cast<double>(ns.count()) * 1e-6;
    };
    result.decodeStallMs = total_ms(stall_ns);
    result.shardBusyFrac =
        result.wallMs <= 0.0 ? 0.0 : total_ms(batch_ns) / result.wallMs;

    if (telemetry != nullptr) {
        for (const auto &config : result.perConfig) {
            telemetry->emit(TelemetryEvent(
                events::kSweepConfigFinished,
                {field("benchmark", driver_.telemetryLabel),
                 field("config", config.label),
                 field("branches", config.branches),
                 field("mispredicts", config.mispredicts),
                 field("mispredict_rate", config.mispredictRate()),
                 field("context_switches", config.contextSwitches)}));
        }

        const std::uint64_t branch_updates =
            simulated * result.perConfig.size();
        const double ns_per_update =
            branch_updates == 0 ? 0.0
                                : result.wallMs * 1e6 /
                                      static_cast<double>(
                                          branch_updates);
        telemetry->emit(TelemetryEvent(
            events::kSweepRunFinished,
            {field("benchmark", driver_.telemetryLabel),
             field("configs",
                   static_cast<std::uint64_t>(
                       result.perConfig.size())),
             field("records", result.records),
             field("branches", result.branches),
             field("batches", result.batches),
             field("wall_ms", result.wallMs),
             field("decode_stall_ms", result.decodeStallMs),
             field("shard_busy_frac", result.shardBusyFrac),
             field("ns_per_branch_update", ns_per_update),
             field("checkpoints_written",
                   result.checkpointsWritten)}));

        MetricsRegistry &registry = telemetry->registry();
        registry.increment("sweep.runs");
        registry.increment("sweep.records", result.records);
        registry.increment("sweep.branches", result.branches);
        registry.increment("sweep.batches", result.batches);
        registry.observe("sweep.configs_per_pass",
                         static_cast<double>(result.perConfig.size()));
        registry.observe("sweep.wall_ms", result.wallMs);
        registry.mergeStats("sweep.batch_ns", batch_ns);
        registry.mergeStats("sweep.decode_stall_ns", stall_ns);
        registry.setGauge("sweep.shard_busy_frac",
                          result.shardBusyFrac);
    }

    return result;
}

} // namespace confsim
