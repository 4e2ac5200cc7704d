/**
 * @file
 * Pipeline gating / speculation control.
 *
 * The paper's introduction motivates confidence with "implementations
 * where the penalty for an incorrect speculation may be high enough
 * that it may be better not to speculate in those instances where the
 * likelihood of a branch misprediction is relatively high". The
 * best-known realization of that idea is pipeline gating (Manne,
 * Klauser & Grunwald, ISCA 1998): stop fetching when the number of
 * unresolved low-confidence branches exceeds a threshold, trading a
 * small performance loss for a large reduction in wasted (wrong-path)
 * work — an energy win.
 *
 * This is a cycle-level in-order front-end model over one
 * configuration's branch log (apps/branch_log.h): instructions are
 * fetched fetchWidth per cycle; each conditional branch resolves a
 * fixed latency after fetch; a mispredicted branch squashes everything
 * fetched behind it. The gating policy counts unresolved
 * low-confidence branches and stalls fetch above the threshold.
 */

#ifndef CONFSIM_APPS_PIPELINE_GATING_H
#define CONFSIM_APPS_PIPELINE_GATING_H

#include <cstdint>
#include <vector>

#include "apps/branch_log.h"

namespace confsim {

/** Pipeline-gating model parameters. */
struct GatingConfig
{
    /** Instructions fetched per un-gated cycle. */
    unsigned fetchWidth = 4;

    /** Cycles between fetching a branch and resolving it. */
    unsigned resolveLatency = 12;

    /** Average instructions between conditional branches. */
    unsigned instrsPerBranch = 6;

    /**
     * Gate fetch while the number of unresolved LOW-confidence
     * branches exceeds this. 0 = stall on any unresolved
     * low-confidence branch; a large value = never gate.
     */
    unsigned gateThreshold = 1;

    /** Master switch; false = always speculate (the baseline). */
    bool enableGating = true;

    /** Conditional branches to simulate. */
    std::uint64_t branches = 1'000'000;
};

/** Results of a pipeline-gating simulation. */
struct GatingResult
{
    std::uint64_t cycles = 0;
    std::uint64_t fetchedInstructions = 0;
    std::uint64_t wrongPathInstructions = 0; //!< fetched then squashed
    std::uint64_t committedInstructions = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t gatedCycles = 0; //!< cycles fetch was gated

    /** @return committed instructions per cycle. */
    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(committedInstructions)
                                 / cycles;
    }

    /** @return fraction of fetched work that was squashed (the energy
     *  proxy pipeline gating attacks). */
    double
    wastedFraction() const
    {
        return fetchedInstructions == 0
                   ? 0.0
                   : static_cast<double>(wrongPathInstructions) /
                         fetchedInstructions;
    }
};

/**
 * Run the model over a branch log.
 *
 * @param log The estimator's branch log; fetch ends after
 *        config.branches branches or at the log's end, whichever comes
 *        first.
 * @param low_buckets Buckets treated as low confidence, sized to
 *        log.numBuckets.
 * @param config Model parameters.
 */
GatingResult runPipelineGating(const BranchLog &log,
                               const std::vector<bool> &low_buckets,
                               const GatingConfig &config = {});

} // namespace confsim

#endif // CONFSIM_APPS_PIPELINE_GATING_H
