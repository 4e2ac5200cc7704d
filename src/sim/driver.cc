#include "sim/driver.h"

#include <chrono>

namespace confsim {

SimulationDriver::SimulationDriver(
    BranchPredictor &predictor,
    std::vector<ConfidenceEstimator *> estimators, DriverOptions options)
    : predictor_(predictor), estimators_(std::move(estimators)),
      options_(std::move(options))
{}

DriverResult
SimulationDriver::run(TraceSource &source)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();

    ReplayKernel kernel(predictor_, estimators_, options_.telemetryLabel,
                        options_);
    const ReplayGuard guard(options_);
    RecordBatch batch;
    while (batch.refill(source) != 0)
        kernel.replay(batch, guard);

    DriverResult result{kernel.takeResult()};
    result.wallMs =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    return result;
}

} // namespace confsim
