/**
 * @file
 * Robustness ablation: how does the paper's recommended confidence
 * estimator (one-level CT of resetting counters, PC xor BHR indexed)
 * degrade when the branch stream itself is corrupted?
 *
 * A FaultInjectingTraceSource corrupts the trace between the workload
 * generator and the simulator at a swept per-record fault probability,
 * separately for three fault classes: direction (taken-bit) flips, PC
 * single-bit flips, and record drops. For each point we report the
 * composite-style metrics the paper argues from — misprediction rate
 * and the fraction of mispredictions concentrated in the lowest-
 * confidence 20% of predictions (Fig. 2's operating point).
 *
 * The punchline mirrors the sampling-methodology literature: moderate
 * stream corruption moves the misprediction rate long before it breaks
 * the confidence *ranking*, so JRS-style estimators fail gracefully.
 *
 * Build & run:
 *   cmake -B build && cmake --build build
 *   ./build/examples/robustness_ablation [--benchmark groff]
 *                                        [--branches N]
 */

#include <cstdio>
#include <memory>

#include "confidence/one_level.h"
#include "metrics/confidence_curve.h"
#include "predictor/gshare.h"
#include "sim/driver.h"
#include "fault/fault_injection.h"
#include "util/cli.h"
#include "workload/workload_generator.h"

using namespace confsim;

namespace {

struct Point
{
    double mispredictRate;
    double coverageAt20;
    std::uint64_t faults;
};

Point
runPoint(const std::string &benchmark, std::uint64_t branches,
         const FaultSpec &spec)
{
    WorkloadGenerator workload(ibsProfile(benchmark), branches);
    FaultInjectingTraceSource faulty(workload, spec);

    GsharePredictor predictor = GsharePredictor::makeLargePaperConfig();
    OneLevelCounterConfidence confidence(
        IndexScheme::PcXorBhr, 1 << 16, CounterKind::Resetting, 16, 0);

    SimulationDriver driver(predictor, {&confidence});
    const DriverResult result = driver.run(faulty);

    const auto curve =
        ConfidenceCurve::fromBucketStats(result.estimatorStats[0]);
    return {result.mispredictRate(), curve.mispredCoverageAt(0.20),
            faulty.stats().total()};
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("confidence-estimator robustness under a corrupted "
                  "branch stream");
    cli.addOption("benchmark", "groff", "IBS workload name");
    cli.addOption("branches", "500000", "trace length");
    cli.addOption("seed", "1", "fault-injection seed");
    if (!cli.parse(argc, argv))
        return 0;

    const std::string benchmark = cli.getString("benchmark");
    const std::uint64_t branches = cli.getUnsigned("branches");
    const std::uint64_t seed = cli.getUnsigned("seed");

    const double levels[] = {0.0, 1e-5, 1e-4, 1e-3, 1e-2};

    std::printf("benchmark %s, %llu branches; 64K gshare + resetting "
                "0..16 CT\n",
                benchmark.c_str(),
                static_cast<unsigned long long>(branches));
    std::printf("cov@20%% = fraction of mispredictions in the lowest-"
                "confidence 20%% of predictions\n\n");
    std::printf("%10s | %21s | %21s | %21s\n", "fault",
                "taken-bit flips", "pc bit flips", "record drops");
    std::printf("%10s | %10s %10s | %10s %10s | %10s %10s\n", "prob",
                "mispred%", "cov@20%", "mispred%", "cov@20%",
                "mispred%", "cov@20%");

    for (const double p : levels) {
        FaultSpec taken_spec;
        taken_spec.seed = seed;
        taken_spec.takenFlipProb = p;
        FaultSpec pc_spec;
        pc_spec.seed = seed;
        pc_spec.pcBitFlipProb = p;
        FaultSpec drop_spec;
        drop_spec.seed = seed;
        drop_spec.dropProb = p;

        const Point taken = runPoint(benchmark, branches, taken_spec);
        const Point pc = runPoint(benchmark, branches, pc_spec);
        const Point drop = runPoint(benchmark, branches, drop_spec);

        std::printf("%10.0e | %9.3f%% %9.1f%% | %9.3f%% %9.1f%% | "
                    "%9.3f%% %9.1f%%\n",
                    p, 100.0 * taken.mispredictRate,
                    100.0 * taken.coverageAt20,
                    100.0 * pc.mispredictRate,
                    100.0 * pc.coverageAt20,
                    100.0 * drop.mispredictRate,
                    100.0 * drop.coverageAt20);
    }
    return 0;
}
