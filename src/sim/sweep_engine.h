/**
 * @file
 * Single-pass multi-configuration sweep engine.
 *
 * The paper's figures are design-space sweeps: many (predictor x
 * estimator x geometry) configurations evaluated over the same
 * benchmark traces. Replaying the trace once per configuration makes
 * sweep cost grow linearly with configuration count even though the
 * expensive part — decoding or generating the trace — is identical
 * every time. The SweepEngine reads each trace exactly once, buffers
 * records into cache-friendly fixed-size batches (trace/record_batch.h)
 * and replays every batch through each of N attached configurations.
 *
 * Each configuration owns its predictor and estimator bank and replays
 * every batch through its own ReplayKernel (sim/replay_kernel.h) — the
 * one record step SimulationDriver::run() also runs. The engine owns
 * everything around that step: configuration ownership, the batch
 * refill, fault sites, and the checkpoint envelope (`sweep:meta` plus
 * the shared trace cursor around each kernel's `cfg<i>:` components).
 *
 * A run is one thread's work: the calling thread refills a batch, then
 * replays it through every configuration in order, then refills the
 * next. Parallelism lives one level up, where SuiteRunner runs whole
 * benchmarks' passes on their own threads. Batch size and
 * checkpoint/resume only change wall time, never results
 * (tests/integration/sweep_differential_test.cc).
 *
 * Checkpoints are taken at the first batch boundary at or after each
 * checkpointEvery() multiple of simulated branches; resume is
 * bit-exact from any generation.
 */

#ifndef CONFSIM_SIM_SWEEP_ENGINE_H
#define CONFSIM_SIM_SWEEP_ENGINE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/replay_kernel.h"
#include "sim/suite_runner.h"
#include "trace/record_batch.h"

namespace confsim {

class Checkpoint;
class CheckpointStore;

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
     * The worker budget W of a suite run (SuiteRunner::runSweep(),
     * SuiteRunner::runPasses(), SamplingEngine::runSuite()): min(W,
     * benchmarks) passes run at once, each on its own thread; 0 = one
     * per hardware thread. A lone SweepEngine, and
     * SamplingEngine::runTrace(), replays on the calling thread and
     * ignores it. It never changes results.
     */
    unsigned threads = 0;

    /** Records per batch (see RecordBatch). */
    std::size_t batchSize = RecordBatch::kDefaultCapacity;

    /**
     * Has no effect: every pass refills its batches on its own thread.
     * It stays only while confbench still assigns it.
     */
    std::size_t decodeAhead = 0;
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
    std::uint64_t batches = 0;  //!< batches replayed
    double wallMs = 0.0;        //!< wall time of the run() call
    /** Time spent refilling batches from the source (seeks included).
     *  The name dates from a decode thread that refilled ahead of the
     *  replay; it stays because confbench reads it. */
    double decodeStallMs = 0.0;
    std::uint64_t checkpointsWritten = 0;

    /** Share of the wall time spent replaying batches through the
     *  kernels; the rest is refill, checkpoints and set-up. The name
     *  dates from worker shards; it stays because confbench reads
     *  it. */
    double shardBusyFrac = 0.0;

    /** Always 0: no pass waits at a barrier. It stays only while
     *  confbench still reads it. */
    double barrierWaitMs = 0.0;
};

/** Runs N configurations over a trace read exactly once, on the
 *  calling thread. */
class SweepEngine
{
  public:
    /** Per-configuration private state (opaque; defined in the .cc). */
    struct ConfigState;

    /**
     * @param configs Attached configurations (>= 1).
     * @param driver Simulation knobs shared by every configuration
     *        (BHR/GCIR widths, context-switch modelling, static
     *        profiling, telemetry).
     * @param sweep Batch size (its worker budget is a suite run's).
     */
    SweepEngine(std::vector<SweepConfiguration> configs,
                DriverOptions driver = {}, SweepOptions sweep = {});

    ~SweepEngine();

    SweepEngine(const SweepEngine &) = delete;
    SweepEngine &operator=(const SweepEngine &) = delete;

    /**
     * Consume @p source to exhaustion, feeding every configuration.
     *
     * @param plan Optional region-granular recording plan (not owned;
     *        must outlive the call). Null replays and records
     *        everything — the exact-simulation default. A plan is
     *        validated here (Error{kConfig}) and refuses
     *        checkpointEvery(): nothing checkpoints a sampled run. See
     *        SweepRecordingPlan.
     */
    SweepRunResult run(TraceSource &source,
                       const SweepRecordingPlan *plan = nullptr);

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
                           const Checkpoint *resume_from,
                           const SweepRecordingPlan *plan);
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
