/**
 * @file
 * Width ablations DESIGN.md calls out:
 *  - CIR width sweep (4..16 bits) under ideal reduction: how much
 *    correctness history is worth keeping per entry;
 *  - resetting-counter ceiling sweep (3, 7, 15, 16, 31): the paper's
 *    "we could use larger counters to get somewhat better granularity,
 *    but this approach is limited" (Section 5.2).
 */

#include <cstdio>

#include "sim/experiment.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    std::printf("=== Ablation A: CIR width (ideal reduction, PCxorBHR, "
                "2^16 entries) ===\n\n");
    {
        std::vector<EstimatorConfig> configs;
        for (unsigned bits : {4u, 8u, 12u, 16u}) {
            auto config = oneLevelIdealConfig(IndexScheme::PcXorBhr,
                                              paper::kLargeCtEntries,
                                              bits);
            config.label = "cir" + std::to_string(bits);
            configs.push_back(std::move(config));
        }
        const auto swept =
            runSuiteExperiment(env, {{"run", largeGshareFactory(), configs}});
        const SuiteRunResult &result = swept.perConfig.front();
        std::vector<NamedCurve> curves;
        for (std::size_t i = 0; i < configs.size(); ++i)
            curves.push_back(
                compositeCurve(result, i, configs[i].label));
        printCoverageSummary(curves);
        writeCurvesCsv(env.csvDir + "/ablation_cir_width.csv", curves);
    }

    std::printf("\n=== Ablation B: counter ceiling and reset policy "
                "(PCxorBHR, 2^16 entries) ===\n\n");
    {
        std::vector<EstimatorConfig> configs;
        for (std::uint32_t max : {3u, 7u, 15u, 16u, 31u}) {
            auto config = oneLevelCounterConfig(
                IndexScheme::PcXorBhr, CounterKind::Resetting,
                paper::kLargeCtEntries, max);
            config.label = "reset" + std::to_string(max);
            configs.push_back(std::move(config));
        }
        // Reset-policy comparison at the paper's ceiling: how much
        // confidence should one misprediction destroy?
        {
            auto config = oneLevelCounterConfig(
                IndexScheme::PcXorBhr, CounterKind::HalfReset,
                paper::kLargeCtEntries, 16);
            config.label = "halfreset16";
            configs.push_back(std::move(config));
        }
        const auto swept =
            runSuiteExperiment(env, {{"run", largeGshareFactory(), configs}});
        const SuiteRunResult &result = swept.perConfig.front();
        std::vector<NamedCurve> curves;
        for (std::size_t i = 0; i < configs.size(); ++i)
            curves.push_back(
                compositeCurve(result, i, configs[i].label));
        printCoverageSummary(curves);
        std::printf("\n(the ceiling sets the finest achievable "
                    "granularity; past ~16 the gain is marginal — "
                    "'this approach is limited')\n");
        writeCurvesCsv(env.csvDir + "/ablation_counter_max.csv",
                       curves);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, "Ablation: CIR and counter widths", run);
}
