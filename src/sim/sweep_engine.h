/**
 * @file
 * Single-pass multi-configuration sweep engine.
 *
 * The paper's figures are design-space sweeps: many (predictor x
 * estimator x geometry) configurations evaluated over the same
 * benchmark traces. Replaying the trace once per configuration makes
 * sweep cost grow linearly with configuration count even though the
 * expensive part — decoding or generating the trace — is identical
 * every time. The SweepEngine decodes each trace exactly once, buffers
 * records into cache-friendly fixed-size batches (trace/record_batch.h)
 * and broadcasts every batch to N attached configurations.
 *
 * Each configuration owns its predictor and estimator bank and replays
 * every batch through its own ReplayKernel (sim/replay_kernel.h) — the
 * one record step SimulationDriver::run() also runs. The engine owns
 * everything around that step: configuration ownership, sharding
 * across a pool of persistent worker threads, decode-ahead, fault
 * sites, and the checkpoint envelope (`sweep:meta` plus the shared
 * trace cursor around each kernel's `cfg<i>:` components). Thread
 * count, batch size, decode-ahead depth, and checkpoint/resume only
 * change wall time, never results
 * (tests/integration/sweep_differential_test.cc).
 *
 * Two pipelining layers overlap the remaining serial phases, both
 * pure performance knobs that never change results:
 *  - **Decode-ahead**: a small ring of batches is refilled by a
 *    dedicated producer thread while worker shards replay the
 *    previous batch, so workers never wait on TraceSource::next.
 *    Checkpoints act as pipeline barriers — the producer pauses with
 *    the source quiescent exactly at the checkpointed record, so
 *    serialized cursors (and watermark replay) are identical to the
 *    synchronous engine's.
 *  - **Shared worker pool**: engines can share one globally sized
 *    SweepWorkerPool, letting SuiteRunner::runSweep() pipeline
 *    multiple benchmarks' sharded sweep passes concurrently instead
 *    of leaving cores idle whenever configs < hardware threads.
 *
 * Checkpoints are taken at the first batch boundary at or after each
 * checkpointEvery() multiple of simulated branches; resume is
 * bit-exact from any generation.
 */

#ifndef CONFSIM_SIM_SWEEP_ENGINE_H
#define CONFSIM_SIM_SWEEP_ENGINE_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/replay_kernel.h"
#include "sim/suite_runner.h"
#include "trace/record_batch.h"
#include "util/running_stats.h"

namespace confsim {

class Checkpoint;
class CheckpointStore;

/**
 * A generic shared pool of persistent worker threads. Callers submit
 * a group of closures with runAll(), which blocks until every closure
 * has run and rethrows the first captured exception. Multiple callers
 * (e.g. several SweepEngines pipelining different benchmarks) may
 * submit concurrently; tasks interleave on the same workers, and each
 * caller waits only for its own group.
 *
 * Occupancy is sampled at every task start (busy workers including
 * the starting one) into a RunningStats, so telemetry can report how
 * well a globally sized pool was utilised.
 */
class SweepWorkerPool
{
  public:
    /** Spawn @p workers persistent threads (0 runs tasks inline). */
    explicit SweepWorkerPool(unsigned workers);
    ~SweepWorkerPool();

    SweepWorkerPool(const SweepWorkerPool &) = delete;
    SweepWorkerPool &operator=(const SweepWorkerPool &) = delete;

    /** @return the number of worker threads. */
    unsigned
    workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Run every task on the pool; blocks until all complete. The
     * first exception any task raises is rethrown here (after every
     * task in the group has finished). When @p cancel is set and
     * becomes cancelled, tasks not yet started are skipped (recorded
     * as one Error{kCancelled}) so a fail-fast teardown never waits
     * on a deep queue; tasks already running unwind via their own
     * cooperative checks.
     */
    void runAll(std::vector<std::function<void()>> tasks,
                const CancellationToken *cancel = nullptr);

    /** @return busy-worker samples taken at each task start. */
    RunningStats occupancyStats() const;

    /** @return workers currently running a task (point-in-time). */
    unsigned busyNow() const;

  private:
    /** Completion latch for one runAll() group. */
    struct WaitGroup
    {
        std::mutex mu;
        std::condition_variable cv;
        std::size_t remaining = 0;
        std::exception_ptr error;
        const CancellationToken *cancel = nullptr;
    };
    struct Task
    {
        std::function<void()> fn;
        WaitGroup *group;
    };

    void workerMain();

    mutable std::mutex mu_;
    std::condition_variable cvWork_;
    std::deque<Task> queue_;
    bool stop_ = false;
    unsigned busy_ = 0;
    RunningStats occupancy_;
    std::vector<std::thread> threads_;
};

/** One attached (predictor, estimator set) configuration. */
struct SweepConfiguration
{
    /** Label used in results, telemetry, and checkpoint components. */
    std::string label;

    /** Fresh-predictor factory (invoked once per run(); a
     *  checkpointed suite run invokes it once more per benchmark for
     *  configFingerprint()). */
    PredictorFactory makePredictor;

    /** Fresh-estimator-set factory (invoked like makePredictor). */
    EstimatorSetFactory makeEstimators;
};

/** Sweep-engine knobs (simulation semantics come from DriverOptions). */
struct SweepOptions
{
    /**
     * Worker threads to shard configurations across; 0 = one per
     * hardware thread, capped at the configuration count. 1 runs
     * inline on the calling thread. Thread count never changes
     * results. Ignored when @ref pool is set (the shared pool's size
     * governs; shards are still capped at the configuration count).
     *
     * SuiteRunner::runSweep() and SamplingEngine::runSuite() read it
     * as the whole run's worker budget W instead, the only input to
     * their schedule (CONFSIM_SEQUENTIAL forces 1): min(W, benchmarks)
     * passes run at once, inline when they fill the budget, otherwise
     * sharding a multi-configuration sweep over one shared W-worker
     * pool.
     */
    unsigned threads = 0;

    /** Records per broadcast batch (see RecordBatch). */
    std::size_t batchSize = RecordBatch::kDefaultCapacity;

    /**
     * Decode-ahead ring depth: how many batches may be decoded ahead
     * of the one being replayed. >= 2 runs a producer thread that
     * refills batches while workers replay (the default); 1 refills
     * synchronously between broadcasts (the pre-pipelining engine);
     * 0 = default depth. Pure performance knob — results, checkpoint
     * cadence, and resume behaviour are bit-identical at any depth.
     * CONFSIM_SEQUENTIAL forces 1, and so do SuiteRunner::runSweep()
     * and SamplingEngine::runSuite() for passes that fill a worker
     * budget covering every hardware thread (no CPU is left for a
     * producer).
     */
    std::size_t decodeAhead = kDefaultDecodeAhead;

    /**
     * Optional shared worker pool (non-owning). When set, the engine
     * broadcasts batches through it instead of creating a private
     * pool, so several engines can share globally sized parallelism.
     * The pool must outlive every run()/resume() call.
     * SuiteRunner::runSweep() sets this to the pool it owns and
     * rejects a caller-set one with Error{kConfig}.
     */
    SweepWorkerPool *pool = nullptr;

    /**
     * Optional region-granular recording plan (non-owning; must
     * outlive the run). Null replays and records everything — the
     * exact-simulation default. See SweepRecordingPlan.
     */
    const SweepRecordingPlan *recordingPlan = nullptr;

    static constexpr std::size_t kDefaultDecodeAhead = 3;
};

/** Results of one sweep pass over one trace. */
struct SweepRunResult
{
    /** Per-configuration results (configuration order preserved). */
    std::vector<SweepConfigResult> perConfig;

    /** Records batched for the kernels (with a resumed run's
     *  watermark). A planned replay batches only its worked regions'
     *  records: skipped ones are restored over or read and dropped. */
    std::uint64_t records = 0;
    /** Conditional branches among @ref records (with a resumed run's
     *  cursor). */
    std::uint64_t branches = 0;
    std::uint64_t batches = 0;  //!< broadcast batches processed
    double wallMs = 0.0;        //!< wall time of the run() call
    /** Total time the replay side waited on trace decode. With
     *  decode-ahead this is genuine pipeline stall; at depth 1 it is
     *  the full (serial) refill time. */
    double decodeStallMs = 0.0;
    std::uint64_t checkpointsWritten = 0;

    /**
     * Fraction of (wall time x shards) the worker shards spent
     * replaying batches — the pipeline-occupancy headline. 1.0 means
     * every shard was busy for the whole pass; the gap is barrier
     * wait, decode stall, and checkpoint serialization.
     */
    double shardBusyFrac = 0.0;

    /** Total time the decode producer spent parked at checkpoint
     *  barriers (0 without decode-ahead or checkpointing). */
    double barrierWaitMs = 0.0;
};

/** Runs N configurations over a trace decoded exactly once. */
class SweepEngine
{
  public:
    /** Per-configuration private state (opaque; defined in the .cc). */
    struct ConfigState;

    /**
     * @param configs Attached configurations (>= 1).
     * @param driver Simulation knobs shared by every configuration
     *        (BHR/GCIR widths, warmup, context-switch modelling,
     *        static profiling, telemetry).
     * @param sweep Thread/batch tuning knobs.
     */
    SweepEngine(std::vector<SweepConfiguration> configs,
                DriverOptions driver = {}, SweepOptions sweep = {});

    ~SweepEngine();

    SweepEngine(const SweepEngine &) = delete;
    SweepEngine &operator=(const SweepEngine &) = delete;

    /** Consume @p source to exhaustion, feeding every configuration. */
    SweepRunResult run(TraceSource &source);

    /**
     * Continue a sweep from @p from (a checkpoint this engine's
     * configuration list wrote). The shared cursor is restored into
     * @p source when the checkpoint carries one; otherwise @p source
     * must be a fresh deterministic stream and the engine replays and
     * discards `from.watermark` records. fatal() on any configuration
     * mismatch.
     */
    SweepRunResult resume(TraceSource &source, const Checkpoint &from);

    /**
     * Enable sweep checkpointing: at the first batch boundary at or
     * after every @p n_branches simulated conditional branches, the
     * shared trace cursor plus every configuration's full state is
     * written atomically to @p store as the next generation. 0
     * disables. fatal() at run() time if any configuration is not
     * checkpointable.
     */
    void checkpointEvery(std::uint64_t n_branches,
                         CheckpointStore *store);

    /** @return the number of attached configurations. */
    std::size_t numConfigs() const { return configs_.size(); }

  private:
    SweepRunResult runImpl(TraceSource &source,
                           const Checkpoint *resume_from);
    void writeCheckpoint(TraceSource &source, SweepRunResult &result,
                         std::uint64_t consumed,
                         std::uint64_t simulated);

    std::vector<SweepConfiguration> configs_;
    DriverOptions driver_;
    SweepOptions sweep_;
    std::uint64_t ckptEvery_ = 0;
    CheckpointStore *ckptStore_ = nullptr;
    std::vector<std::unique_ptr<ConfigState>> states_;
};

} // namespace confsim

#endif // CONFSIM_SIM_SWEEP_ENGINE_H
