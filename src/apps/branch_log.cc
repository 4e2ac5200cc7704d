#include "apps/branch_log.h"

#include <string>

#include "util/status.h"

namespace confsim {

SweepRecordingPlan
fullCoveragePlan()
{
    // One region as long as any trace can be, recorded in slot 0.
    SweepRecordingPlan plan;
    plan.regionBranches = ~std::uint64_t{0};
    plan.regionSlots = {0};
    plan.numSlots = 1;
    return plan;
}

SuiteRunner::PassHooks
branchLogHooks(
    std::function<void(std::size_t bench, const SweepRunResult &pass)>
        finish)
{
    SuiteRunner::PassHooks hooks;
    hooks.plan = [](std::size_t, auto &) { return fullCoveragePlan(); };
    hooks.finish = std::move(finish);
    return hooks;
}

BranchLog
branchLog(const SweepRunResult &pass, std::size_t config,
          std::size_t estimator, const ConfidenceEstimator &shape)
{
    const SweepConfigResult &result = pass.perConfig.at(config);
    if (result.slotStats.size() != 1) {
        fatal("configuration '" + result.label +
              "' was not replayed under the full-coverage plan");
    }
    // The shape, not the log, gives the bucket count the masks are
    // checked against, so it must be the estimator that wrote the log.
    if (shape.name() != result.estimatorNames.at(estimator)) {
        fatal("configuration '" + result.label + "' logged estimator '" +
              result.estimatorNames.at(estimator) + "', not '" +
              shape.name() + "'");
    }
    return BranchLog{result.slotStats[0].estimatorLogs.at(estimator),
                     shape.numBuckets(), shape.bucketsAreOrdered()};
}

void
requireMaskFits(const std::vector<bool> &low_buckets, const BranchLog &log,
                const char *model)
{
    if (low_buckets.size() != log.numBuckets) {
        fatal(std::string(model) +
              " low-bucket mask does not match estimator");
    }
}

} // namespace confsim
