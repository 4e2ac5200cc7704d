/**
 * @file
 * The trace-driven simulation driver.
 *
 * Runs one configuration — a borrowed predictor plus its confidence
 * estimators — over a trace on the calling thread: the replay kernel's
 * record step (sim/replay_kernel.h) over batches refilled
 * synchronously from the source. For every conditional branch the
 * kernel queries the predictor, snapshots the architectural context
 * (PC, global BHR, global CIR), queries each estimator's bucket, and
 * trains everything in the paper's order (confidence tables and the
 * per-static-branch profile see the prediction's correctness; the
 * predictor and the history registers see the outcome).
 *
 * Checkpointing, fault sites, and telemetry belong to the
 * sweep engine and the suite runner, which run the same kernel.
 */

#ifndef CONFSIM_SIM_DRIVER_H
#define CONFSIM_SIM_DRIVER_H

#include <vector>

#include "sim/replay_kernel.h"
#include "trace/trace_source.h"

namespace confsim {

/** Everything one run produces: the kernel's result plus wall time. */
struct DriverResult : SweepConfigResult
{
    /** Wall time of the run() call in milliseconds. */
    double wallMs = 0.0;
};

/** Runs a predictor plus confidence estimators over a trace. */
class SimulationDriver
{
  public:
    /**
     * @param predictor The underlying predictor (not owned).
     * @param estimators Attached confidence estimators (not owned; may
     *        be empty).
     * @param options Driver knobs.
     */
    SimulationDriver(BranchPredictor &predictor,
                     std::vector<ConfidenceEstimator *> estimators,
                     DriverOptions options = {});

    /**
     * Consume @p source from its current position to exhaustion.
     * Non-conditional records train nothing and are skipped (the
     * paper's mechanisms concern conditional branches only). Honors
     * DriverOptions::wallClockLimitMs and DriverOptions::cancel.
     */
    DriverResult run(TraceSource &source);

  private:
    BranchPredictor &predictor_;
    std::vector<ConfidenceEstimator *> estimators_;
    DriverOptions options_;
};

} // namespace confsim

#endif // CONFSIM_SIM_DRIVER_H
