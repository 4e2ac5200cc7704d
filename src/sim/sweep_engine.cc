#include "sim/sweep_engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <iterator>
#include <mutex>
#include <thread>
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
 * plus the kernel that replays batches through them. One worker shard
 * touches one ConfigState at a time, so no field needs synchronization.
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

SweepWorkerPool::SweepWorkerPool(unsigned workers)
{
    threads_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads_.emplace_back([this] { workerMain(); });
}

SweepWorkerPool::~SweepWorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cvWork_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

void
SweepWorkerPool::runAll(std::vector<std::function<void()>> tasks,
                        const CancellationToken *cancel)
{
    if (tasks.empty())
        return;
    if (threads_.empty()) {
        for (auto &task : tasks) {
            if (cancel != nullptr)
                cancel->throwIfCancelled("sweep task group");
            task();
        }
        return;
    }
    WaitGroup group;
    group.remaining = tasks.size();
    group.cancel = cancel;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &task : tasks)
            queue_.push_back(Task{std::move(task), &group});
    }
    cvWork_.notify_all();
    std::unique_lock<std::mutex> lock(group.mu);
    group.cv.wait(lock, [&group] { return group.remaining == 0; });
    if (group.error)
        std::rethrow_exception(group.error);
}

RunningStats
SweepWorkerPool::occupancyStats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return occupancy_;
}

unsigned
SweepWorkerPool::busyNow() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return busy_;
}

void
SweepWorkerPool::workerMain()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        cvWork_.wait(lock,
                     [this] { return stop_ || !queue_.empty(); });
        if (stop_)
            return;
        Task task = std::move(queue_.front());
        queue_.pop_front();
        ++busy_;
        occupancy_.add(static_cast<double>(busy_));
        lock.unlock();

        std::exception_ptr raised;
        try {
            // Skip tasks whose group was cancelled while they sat in
            // the queue; running tasks unwind via their own checks.
            if (task.group->cancel != nullptr)
                task.group->cancel->throwIfCancelled("sweep task group");
            task.fn();
        } catch (...) {
            raised = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> done(task.group->mu);
            if (raised && !task.group->error)
                task.group->error = raised;
            if (--task.group->remaining == 0)
                task.group->cv.notify_all();
        }

        lock.lock();
        --busy_;
    }
}

namespace {

/**
 * Decode-ahead batch ring: the feed between the TraceSource and the
 * engine's broadcast loop. At depth >= 2 a producer thread refills
 * slots while the consumer drains them in order, so replay never
 * waits on decode unless the ring runs dry. At depth 1 there is no
 * producer: next() refills the single slot inline, between broadcasts.
 *
 * The ring owns the shared cursors (records consumed, branches
 * simulated) and the checkpoint cadence, so checkpoints land on the
 * same batch boundaries at any depth. A slot that crosses a
 * checkpoint multiple is flagged checkpointDue and the producer
 * *blocks before touching the source again* until the consumer has
 * written the checkpoint — the source is therefore quiescent and
 * positioned exactly at the checkpointed record when it is
 * serialized (or when its watermark is recorded), which is what makes
 * pipelined checkpoint/resume bit-exact.
 *
 * Under a recording plan the ring is the replay's one plan-following
 * reader: a batch ends where a worked span (a run of regions that are
 * not kSkip) ends, and before the next batch the source seeks to the
 * next worked region. It restores the plan's newest source snapshot at
 * or before that region, when the source can restore one, and reads
 * forward from there; skipped records are never batched. Each slot
 * carries the cursor its first record starts at, so kernels skip the
 * same gap (ReplayKernel::skipTo).
 *
 * A decode error is published in order as an error slot: the consumer
 * replays every batch decoded before it, then rethrows.
 */
class DecodeAheadRing
{
  public:
    struct Slot
    {
        RecordBatch batch;
        std::uint64_t firstBranch = 0; //!< cursor at the first record
        std::uint64_t consumedAfter = 0;
        std::uint64_t simulatedAfter = 0;
        bool checkpointDue = false;
        std::exception_ptr error;
    };

    DecodeAheadRing(TraceSource &source, std::size_t depth,
                    std::size_t batch_size, std::uint64_t consumed,
                    std::uint64_t simulated, std::uint64_t ckpt_every,
                    const SweepRecordingPlan *plan, std::string scope,
                    const CancellationToken *cancel,
                    SpanTracer *spans)
        : source_(source), ckptEvery_(ckpt_every), plan_(plan),
          scope_(std::move(scope)), cancel_(cancel), spans_(spans),
          consumed_(consumed), simulated_(simulated),
          spanEnd_(plan == nullptr ? kNoEnd : simulated)
    {
        nextCkpt_ = ckptEvery_ == 0
                        ? 0
                        : (simulated_ / ckptEvery_ + 1) * ckptEvery_;
        slots_.reserve(depth);
        for (std::size_t i = 0; i < depth; ++i) {
            Slot slot;
            slot.batch = RecordBatch(batch_size);
            slots_.push_back(std::move(slot));
        }
        if (depth >= 2)
            producer_ = std::thread([this] { producerMain(); });
    }

    ~DecodeAheadRing()
    {
        if (!producer_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cvFree_.notify_all();
        cvFilled_.notify_all();
        cvCkpt_.notify_all();
        producer_.join();
    }

    /**
     * @return the next filled slot in decode order, or nullptr at end
     * of stream. Blocks while the ring is empty; rethrows a producer
     * decode error at its in-order position.
     */
    Slot *
    next()
    {
        if (!producer_.joinable()) {
            Slot &slot = slots_.front();
            if (!fill(slot))
                return nullptr;
            if (slot.error)
                std::rethrow_exception(slot.error);
            return &slot;
        }
        std::unique_lock<std::mutex> lock(mu_);
        cvFilled_.wait(lock,
                       [this] { return filled_ != 0 || done_; });
        if (filled_ == 0)
            return nullptr;
        Slot &slot = slots_[tail_ % slots_.size()];
        if (slot.error)
            std::rethrow_exception(slot.error);
        return &slot;
    }

    /**
     * Return the slot obtained from next() to the free list. If it
     * was checkpointDue the caller must have written the checkpoint;
     * this unblocks the producer.
     */
    void
    release(Slot &slot)
    {
        if (!producer_.joinable())
            return;
        bool due = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            // The producer may reuse the slot the moment it is freed,
            // so read its flag before publishing the free slot.
            due = slot.checkpointDue;
            ++tail_;
            --filled_;
            if (due)
                ckptPending_ = false;
        }
        cvFree_.notify_one();
        if (due)
            cvCkpt_.notify_one();
    }

    /** @return producer time spent parked at checkpoint barriers. */
    RunningStats
    barrierWaitStats()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return barrierWaitNs_;
    }

    /** @return the cursor at the end of the trace, skipped conditionals
     *  included (call once next() has returned nullptr). */
    std::uint64_t
    endBranch()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return simulated_;
    }

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

    /**
     * Refill @p slot from the source, first seeking over the skipped
     * regions after a worked span, and advance the cursors and the
     * checkpoint cadence. Cancellation, injected decode faults and
     * failed seeks become the slot's error. @return false at end of
     * stream.
     */
    bool
    fill(Slot &slot)
    {
        slot.checkpointDue = false;
        slot.error = nullptr;
        std::size_t got = 0;
        try {
            ScopedSpan refill_span(spans_, "decode.refill");
            if (cancel_ != nullptr)
                cancel_->throwIfCancelled("sweep decode");
            FaultInjector &injector = FaultInjector::instance();
            if (injector.armed())
                injector.fire(FaultSite::kDecodeBatch, scope_);
            if (simulated_ == spanEnd_)
                seekNextSpan();
            slot.firstBranch = simulated_;
            got = slot.batch.refill(source_, spanEnd_ - simulated_);
        } catch (...) {
            slot.error = std::current_exception();
            slot.batch.clear();
            return true;
        }
        if (got == 0)
            return false;
        consumed_ += slot.batch.size();
        simulated_ += slot.batch.conditionals();
        slot.consumedAfter = consumed_;
        slot.simulatedAfter = simulated_;
        if (ckptEvery_ != 0 && simulated_ >= nextCkpt_) {
            slot.checkpointDue = true;
            nextCkpt_ = (simulated_ / ckptEvery_ + 1) * ckptEvery_;
        }
        return true;
    }

    void
    producerMain()
    {
        if (spans_ != nullptr)
            spans_->setCurrentThreadName("decode-producer");
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mu_);
                cvFree_.wait(lock, [this] {
                    return stop_ || filled_ != slots_.size();
                });
                if (stop_)
                    return;
            }
            // Only this thread touches head_ and the slot until it is
            // published under the mutex below.
            Slot &slot = slots_[head_ % slots_.size()];
            if (!fill(slot)) {
                std::lock_guard<std::mutex> lock(mu_);
                done_ = true;
                cvFilled_.notify_all();
                return;
            }
            const bool due = slot.checkpointDue;

            std::unique_lock<std::mutex> lock(mu_);
            ++head_;
            ++filled_;
            if (due)
                ckptPending_ = true;
            if (spans_ != nullptr) {
                spans_->counter(
                    "decode_ring.filled",
                    static_cast<std::uint64_t>(filled_));
            }
            cvFilled_.notify_one();
            if (slot.error) {
                // Nothing after an error can be decoded coherently;
                // park until destruction.
                done_ = true;
                return;
            }
            if (due) {
                // Pipeline barrier: the source must stay untouched at
                // exactly `consumed_` records until the checkpoint
                // containing it has been written.
                ScopedSpan barrier_span(spans_,
                                        "decode.barrier_wait");
                const std::chrono::steady_clock::time_point b0 =
                    std::chrono::steady_clock::now();
                cvCkpt_.wait(lock, [this] {
                    return stop_ || !ckptPending_;
                });
                barrierWaitNs_.add(
                    std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - b0)
                        .count());
                if (stop_)
                    return;
            }
        }
    }

    TraceSource &source_;
    const std::uint64_t ckptEvery_;
    const SweepRecordingPlan *const plan_;
    const std::string scope_;
    const CancellationToken *const cancel_;
    SpanTracer *const spans_;
    std::uint64_t consumed_;  //!< records batched
    std::uint64_t simulated_; //!< the cursor: conditionals read or skipped
    std::uint64_t spanEnd_;   //!< where the worked span ends (kNoEnd)
    std::uint64_t nextCkpt_ = 0;
    RunningStats barrierWaitNs_; //!< guarded by mu_

    std::vector<Slot> slots_;
    std::thread producer_;

    std::mutex mu_;
    std::condition_variable cvFilled_, cvFree_, cvCkpt_;
    std::size_t head_ = 0;   //!< slots produced
    std::size_t tail_ = 0;   //!< slots released
    std::size_t filled_ = 0; //!< produced, not yet released
    bool ckptPending_ = false;
    bool done_ = false;
    bool stop_ = false;
};

unsigned
resolveThreads(unsigned requested, std::size_t configs)
{
    unsigned threads = requested;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    // A lone engine can't use more workers than it has configurations
    // (per-config replay is serial by the bit-exactness contract).
    // When more cores than configs are available, SuiteRunner::runSweep
    // recovers the surplus by pipelining benchmarks on a shared,
    // globally sized pool instead of capping here.
    if (static_cast<std::size_t>(threads) > configs)
        threads = static_cast<unsigned>(configs);
    return threads < 1 ? 1 : threads;
}

std::size_t
resolveDecodeAhead(std::size_t requested)
{
    return requested == 0 ? SweepOptions::kDefaultDecodeAhead
                          : requested;
}

} // namespace

SweepEngine::SweepEngine(std::vector<SweepConfiguration> configs,
                         DriverOptions driver, SweepOptions sweep,
                         SweepWorkerPool *pool)
    : configs_(std::move(configs)), driver_(driver), sweep_(sweep),
      pool_(pool)
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

    // Parallelism: a shared pool (if provided) or an engine-owned one.
    // Either way shards never exceed the configuration count — a batch
    // is split into min(workers, configs) contiguous config ranges.
    SweepWorkerPool *pool = pool_;
    std::unique_ptr<SweepWorkerPool> owned_pool;
    if (pool == nullptr) {
        const unsigned threads =
            resolveThreads(sweep_.threads, configs_.size());
        if (threads > 1) {
            owned_pool = std::make_unique<SweepWorkerPool>(threads);
            pool = owned_pool.get();
        }
    }
    const std::size_t shard_count =
        pool == nullptr
            ? 1
            : std::max<std::size_t>(
                  1, std::min<std::size_t>(pool->workers(),
                                           states_.size()));
    const std::size_t decode_ahead =
        resolveDecodeAhead(sweep_.decodeAhead);

    Telemetry *const telemetry = driver_.telemetry;
    if (telemetry != nullptr) {
        telemetry->emit(TelemetryEvent(
            events::kSweepRunStarted,
            {field("benchmark", driver_.telemetryLabel),
             field("configs",
                   static_cast<std::uint64_t>(configs_.size())),
             field("threads",
                   static_cast<std::uint64_t>(shard_count)),
             field("batch_size",
                   static_cast<std::uint64_t>(sweep_.batchSize)),
             field("decode_ahead",
                   static_cast<std::uint64_t>(decode_ahead)),
             field("resumed", resume_from != nullptr)}));
    }

    // One guard for the whole pass: the consumer loop checks it at
    // batch granularity, worker shards at record granularity, and the
    // producer before every refill — so watchdog expiry or a cancel()
    // unwinds the pipeline from whichever stage notices first.
    const ReplayGuard guard(driver_);

    RunningStats batch_ns;
    RunningStats stall_ns;

    // One configuration's share of a batch, after the gap a planned
    // replay skipped before it. Any error — the replay's or an injected
    // fault's — fails the whole pass.
    const auto replayConfig = [&](std::size_t c,
                                  const DecodeAheadRing::Slot &slot) {
        FaultInjector &injector = FaultInjector::instance();
        if (injector.armed() &&
            injector.fire(FaultSite::kShardReplay, driver_.telemetryLabel,
                          c) == FaultAction::kHang) {
            guard.park();
        }
        states_[c]->kernel->skipTo(slot.firstBranch);
        states_[c]->kernel->replay(slot.batch, guard);
    };

    // Contiguous config shards, one task per shard per batch. runAll
    // blocks until every shard finishes, so the states are quiescent
    // between batches (which keeps batch-boundary checkpoints
    // race-free) regardless of who owns the pool.
    std::vector<std::pair<std::size_t, std::size_t>> shards;
    shards.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
        shards.emplace_back(states_.size() * s / shard_count,
                            states_.size() * (s + 1) / shard_count);
    }
    // Per-shard replay time, one slot per shard. Each task writes
    // only its own slot and runAll() is a barrier between batches, so
    // no synchronization is needed; the sum over slots against
    // wall x shards is the pipeline-occupancy headline.
    SpanTracer *const spans = driver_.spans;
    std::vector<std::uint64_t> shard_busy_ns(shard_count, 0);
    const auto broadcast = [&](const DecodeAheadRing::Slot &slot) {
        if (pool == nullptr || shard_count <= 1) {
            const Clock::time_point s0 = Clock::now();
            {
                ScopedSpan replay_span(spans, "shard.replay");
                for (std::size_t c = 0; c < states_.size(); ++c)
                    replayConfig(c, slot);
            }
            shard_busy_ns[0] += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - s0)
                    .count());
            return;
        }
        std::vector<std::function<void()>> tasks;
        tasks.reserve(shards.size());
        for (std::size_t s = 0; s < shards.size(); ++s) {
            tasks.push_back([&, s, begin = shards[s].first,
                             end = shards[s].second] {
                if (spans != nullptr) {
                    spans->setCurrentThreadName("sweep-worker");
                    spans->counter(
                        "sweep.pool_occupancy",
                        static_cast<std::uint64_t>(pool->busyNow()));
                }
                const Clock::time_point s0 = Clock::now();
                {
                    ScopedSpan replay_span(spans, "shard.replay");
                    for (std::size_t c = begin; c < end; ++c)
                        replayConfig(c, slot);
                }
                shard_busy_ns[s] += static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(Clock::now() - s0)
                        .count());
            });
        }
        pool->runAll(std::move(tasks), guard.cancel);
    };
    const auto checkWatchdog = [&](std::uint64_t at_records) {
        guard.checkNow(at_records);
    };

    // The ring owns cursor bookkeeping and flags checkpoint boundaries
    // at any depth; at depth >= 2 its producer thread keeps it topped
    // up while shards replay (see DecodeAheadRing).
    DecodeAheadRing ring(source, decode_ahead, sweep_.batchSize, consumed,
                         simulated, ckptEvery_, plan,
                         driver_.telemetryLabel, guard.cancel, spans);
    std::uint64_t delivered = simulated; // conditionals batched
    for (;;) {
        const Clock::time_point w0 = Clock::now();
        DecodeAheadRing::Slot *slot = ring.next();
        stall_ns.add(
            std::chrono::duration<double, std::nano>(Clock::now() - w0)
                .count());
        if (slot == nullptr)
            break;

        const Clock::time_point t0 = Clock::now();
        broadcast(*slot);
        batch_ns.add(
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count());

        consumed = slot->consumedAfter;
        simulated = slot->simulatedAfter;
        delivered += slot->batch.conditionals();
        ++result.batches;

        checkWatchdog(consumed);
        if (slot->checkpointDue)
            writeCheckpoint(source, result, consumed, simulated);
        ring.release(*slot);
    }
    const RunningStats barrier_wait_ns = ring.barrierWaitStats();
    // A trailing skipped gap still runs every switch clock to the end.
    const std::uint64_t end_branch = ring.endBranch();
    for (auto &state : states_)
        state->kernel->skipTo(end_branch);

    // Harvest the engine-owned pool's occupancy before retiring it;
    // a shared pool's occupancy is reported by its owner instead.
    RunningStats owned_occupancy;
    if (owned_pool != nullptr)
        owned_occupancy = owned_pool->occupancyStats();
    owned_pool.reset();

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
    result.decodeStallMs =
        stall_ns.count() == 0
            ? 0.0
            : stall_ns.mean() * static_cast<double>(stall_ns.count()) *
                  1e-6;
    result.barrierWaitMs =
        barrier_wait_ns.count() == 0
            ? 0.0
            : barrier_wait_ns.mean() *
                  static_cast<double>(barrier_wait_ns.count()) * 1e-6;
    std::uint64_t busy_total_ns = 0;
    for (const std::uint64_t ns : shard_busy_ns)
        busy_total_ns += ns;
    const double wall_ns = result.wallMs * 1e6;
    result.shardBusyFrac =
        wall_ns <= 0.0
            ? 0.0
            : static_cast<double>(busy_total_ns) /
                  (wall_ns * static_cast<double>(shard_count));

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
             field("threads",
                   static_cast<std::uint64_t>(shard_count)),
             field("records", result.records),
             field("branches", result.branches),
             field("batches", result.batches),
             field("wall_ms", result.wallMs),
             field("decode_stall_ms", result.decodeStallMs),
             field("shard_busy_frac", result.shardBusyFrac),
             field("barrier_wait_ms", result.barrierWaitMs),
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
        if (barrier_wait_ns.count() != 0) {
            registry.mergeStats("sweep.barrier_wait_ns",
                                barrier_wait_ns);
        }
        if (owned_occupancy.count() != 0) {
            registry.mergeStats("sweep.pool_occupancy",
                                owned_occupancy);
        }
    }

    return result;
}

} // namespace confsim
