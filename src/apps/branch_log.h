/**
 * @file
 * What the application models read: one estimator's branch log from
 * the replay kernel (sim/replay_kernel.h). A replay under
 * fullCoveragePlan() logs one `(bucket << 1) | mispredicted` entry per
 * conditional branch, in trace order (SweepSlotStats::estimatorLogs),
 * so every model in src/apps/ is a function over logs and the paper's
 * record step stays in the kernel.
 */

#ifndef CONFSIM_APPS_BRANCH_LOG_H
#define CONFSIM_APPS_BRANCH_LOG_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "confidence/confidence_estimator.h"
#include "sim/suite_runner.h"
#include "sim/sweep_engine.h"

namespace confsim {

/** One estimator's branch log and the shape of its bucket space. */
struct BranchLog
{
    std::span<const std::uint32_t> entries; //!< one per branch
    std::uint64_t numBuckets = 0; //!< every logged bucket is below
    bool bucketsOrdered = false;  //!< ConfidenceEstimator's order flag

    /** @return the bucket @p entry read. */
    static std::uint64_t bucket(std::uint32_t entry) { return entry >> 1; }

    /** @return whether @p entry's branch was mispredicted. */
    static bool missed(std::uint32_t entry) { return (entry & 1u) != 0; }

    /** @return whether @p entry's bucket is flagged in @p low_buckets. */
    static bool
    low(const std::vector<bool> &low_buckets, std::uint32_t entry)
    {
        return bucket(entry) < low_buckets.size() &&
               low_buckets[bucket(entry)];
    }
};

/** The one-slot plan that logs every conditional branch into slot 0. */
SweepRecordingPlan fullCoveragePlan();

/** Suite hooks that replay every benchmark under fullCoveragePlan()
 *  and hand each pass to @p finish, on the pass's thread. */
SuiteRunner::PassHooks branchLogHooks(
    std::function<void(std::size_t bench, const SweepRunResult &pass)>
        finish);

/**
 * Estimator @p estimator's log of configuration @p config in @p pass,
 * which it views; @p shape is an instance of that estimator. fatal()
 * if @p pass was not replayed under fullCoveragePlan() or @p shape is
 * named otherwise than the estimator that wrote the log.
 */
BranchLog branchLog(const SweepRunResult &pass, std::size_t config,
                    std::size_t estimator,
                    const ConfidenceEstimator &shape);

/** fatal() unless @p low_buckets has one flag per bucket of @p log;
 *  @p model names the caller. */
void requireMaskFits(const std::vector<bool> &low_buckets,
                     const BranchLog &log, const char *model);

} // namespace confsim

#endif // CONFSIM_APPS_BRANCH_LOG_H
