/**
 * @file
 * Selective dual-path execution model (paper Section 1, application 1).
 *
 * "Resources may be made available for simultaneously executing
 * instructions down both paths following a conditional branch. ... it
 * may be desirable to set a limit of two threads at any given time and
 * to fork a second execution thread for the non-predicted path only in
 * those instances when a branch prediction is made with relatively low
 * confidence."
 *
 * The model reads one configuration's branch log (apps/branch_log.h): a
 * fork may be initiated on a low-confidence prediction when no fork is
 * outstanding; an outstanding fork occupies the second-thread resource
 * until its branch resolves (approximated by a fixed branch-count
 * resolution window). A mispredicted branch that
 * was forked costs only a small squash/switch penalty; an unforked
 * misprediction costs the full pipeline-refill penalty.
 */

#ifndef CONFSIM_APPS_DUAL_PATH_H
#define CONFSIM_APPS_DUAL_PATH_H

#include <cstdint>
#include <vector>

#include "apps/branch_log.h"

namespace confsim {

/** Dual-path cost-model parameters. */
struct DualPathConfig
{
    /** Full misprediction penalty in cycles (pipeline refill). */
    double mispredictPenalty = 7.0;

    /** Residual penalty when the wrong path was being dual-executed
     *  (thread switch + partial squash). */
    double forkedMispredictPenalty = 1.0;

    /** Cycles of fetch/execute bandwidth consumed per fork (the second
     *  path's resource cost, paid whether or not it was needed). */
    double forkCost = 0.5;

    /** Branches until a forked branch resolves and frees its thread
     *  slot (models several unresolved branches in flight). */
    unsigned resolutionWindow = 4;

    /** Simultaneous forks supported. The paper's scenario is "a limit
     *  of two threads at any given time", i.e. one fork slot; more
     *  slots model wider dual-path (eager-execution-style) hardware. */
    unsigned maxForks = 1;

    /** Base cycles per branch interval with perfect prediction (used
     *  only to express results as relative penalty cycles). */
    double baseCyclesPerBranch = 4.0;
};

/** Outcomes of a dual-path simulation. */
struct DualPathResult
{
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t forks = 0;            //!< forks actually initiated
    std::uint64_t forkRequests = 0;     //!< low-confidence predictions
    std::uint64_t coveredMispredicts = 0; //!< mispredicts with a fork
    double baselineCycles = 0.0;  //!< no dual-path: full penalty always
    double dualPathCycles = 0.0;  //!< with selective dual-path

    /** @return fraction of predictions that initiated a fork. */
    double forkRate() const
    {
        return branches == 0
                   ? 0.0
                   : static_cast<double>(forks) / branches;
    }

    /** @return fraction of mispredictions that had a fork in place. */
    double coverage() const
    {
        return mispredicts == 0 ? 0.0
                                : static_cast<double>(coveredMispredicts)
                                      / mispredicts;
    }

    /** @return speedup of dual-path vs single-path baseline. */
    double speedup() const
    {
        return dualPathCycles <= 0.0 ? 1.0
                                     : baselineCycles / dualPathCycles;
    }
};

/**
 * Run the dual-path model over a branch log.
 *
 * @param log The estimator's branch log, one entry per branch.
 * @param low_buckets Buckets treated as low confidence (fork trigger),
 *        sized to log.numBuckets.
 * @param config Cost model.
 */
DualPathResult runDualPath(const BranchLog &log,
                           const std::vector<bool> &low_buckets,
                           const DualPathConfig &config = {});

} // namespace confsim

#endif // CONFSIM_APPS_DUAL_PATH_H
