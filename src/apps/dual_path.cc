#include "apps/dual_path.h"

#include "util/status.h"

namespace confsim {

DualPathResult
runDualPath(const BranchLog &log, const std::vector<bool> &low_buckets,
            const DualPathConfig &config)
{
    requireMaskFits(low_buckets, log, "dual-path");
    if (config.maxForks == 0)
        fatal("dual-path model requires at least one fork slot");

    DualPathResult result;

    // Fork-slot occupancy: each active slot holds the number of
    // further branches until its forked branch resolves.
    std::vector<unsigned> fork_slots(config.maxForks, 0);

    for (const std::uint32_t entry : log.entries) {
        ++result.branches;
        result.baselineCycles += config.baseCyclesPerBranch;
        result.dualPathCycles += config.baseCyclesPerBranch;

        bool fork_armed = false; // a fork belongs to this branch
        if (BranchLog::low(low_buckets, entry)) {
            ++result.forkRequests;
            for (auto &slot : fork_slots) {
                if (slot == 0) {
                    ++result.forks;
                    slot = config.resolutionWindow;
                    fork_armed = true;
                    result.dualPathCycles += config.forkCost;
                    break;
                }
            }
        }

        if (BranchLog::missed(entry)) {
            ++result.mispredicts;
            result.baselineCycles += config.mispredictPenalty;
            if (fork_armed) {
                ++result.coveredMispredicts;
                result.dualPathCycles += config.forkedMispredictPenalty;
            } else {
                result.dualPathCycles += config.mispredictPenalty;
            }
            // A misprediction squashes wrong-path work; outstanding
            // forks from older branches are squashed with it.
            for (auto &slot : fork_slots)
                slot = 0;
        } else {
            for (auto &slot : fork_slots) {
                if (slot > 0)
                    --slot;
            }
        }
    }
    return result;
}

} // namespace confsim
