/**
 * @file
 * Test helpers for the application models: hand-built branch-log
 * entries, and logs and bucket statistics produced by the replay
 * kernel itself for the tests that need a realistic workload.
 */

#ifndef CONFSIM_TESTS_APPS_KERNEL_LOG_H
#define CONFSIM_TESTS_APPS_KERNEL_LOG_H

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "apps/branch_log.h"
#include "confidence/one_level.h"
#include "predictor/branch_predictor.h"
#include "predictor/gshare.h"
#include "sim/sweep_engine.h"
#include "trace/trace_source.h"

namespace confsim {
namespace testing_apps {

/** One log entry: @p bucket read, @p miss or not. */
inline std::uint32_t
entry(std::uint32_t bucket, bool miss)
{
    return (bucket << 1) | (miss ? 1u : 0u);
}

/** @p n copies of entry(@p bucket, @p miss). */
inline std::vector<std::uint32_t>
entries(std::size_t n, std::uint32_t bucket, bool miss)
{
    return std::vector<std::uint32_t>(n, entry(bucket, miss));
}

/** A log view over @p log with @p buckets ordered buckets. */
inline BranchLog
logOf(const std::vector<std::uint32_t> &log, std::uint64_t buckets)
{
    return BranchLog{log, buckets, true};
}

/**
 * Replay @p source through a fresh predictor and one estimator in the
 * replay kernel, under @p plan when it is set, and return the
 * configuration's result.
 */
inline SweepConfigResult
kernelReplay(TraceSource &source,
             const std::function<std::unique_ptr<BranchPredictor>()>
                 &make_predictor,
             const std::function<std::unique_ptr<ConfidenceEstimator>()>
                 &make_estimator,
             const SweepRecordingPlan *plan = nullptr)
{
    SweepEngine engine({{"app", make_predictor,
                         [make_estimator] {
                             std::vector<std::unique_ptr<ConfidenceEstimator>>
                                 out;
                             out.push_back(make_estimator());
                             return out;
                         }}});
    SweepRunResult pass = engine.run(source, plan);
    return std::move(pass.perConfig.at(0));
}

/** The estimator's full-coverage branch log of @p source. */
inline std::vector<std::uint32_t>
kernelLog(TraceSource &source,
          const std::function<std::unique_ptr<BranchPredictor>()>
              &make_predictor,
          const std::function<std::unique_ptr<ConfidenceEstimator>()>
              &make_estimator)
{
    const SweepRecordingPlan plan = fullCoveragePlan();
    SweepConfigResult result =
        kernelReplay(source, make_predictor, make_estimator, &plan);
    return std::move(result.slotStats.at(0).estimatorLogs.at(0));
}

/** The log of gshare-4K with a 17-bucket PCxorBHR resetting counter,
 *  the configuration the realistic-workload tests share. */
inline std::vector<std::uint32_t>
gshareCounterLog(TraceSource &source)
{
    return kernelLog(
        source, [] { return std::make_unique<GsharePredictor>(4096, 12); },
        [] {
            return std::make_unique<OneLevelCounterConfidence>(
                IndexScheme::PcXorBhr, 4096, CounterKind::Resetting, 16,
                0);
        });
}

} // namespace testing_apps
} // namespace confsim

#endif // CONFSIM_TESTS_APPS_KERNEL_LOG_H
