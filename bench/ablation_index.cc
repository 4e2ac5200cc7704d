/**
 * @file
 * Index-scheme ablation (paper Section 3.1's preliminary findings):
 * all eight index formations over the paper's one-level CT with ideal
 * reduction — including the claims the paper states without a figure:
 *  - "exclusive-ORing is more effective than concatenating",
 *  - "indexing with a global CIR is of little value — it gives low
 *    performance when used alone and typically reduces performance
 *    when added to the others".
 */

#include <cstdio>

#include "sim/experiment.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    std::printf("=== Ablation: one-level CT index schemes (ideal "
                "reduction) ===\n\n");
    const std::vector<IndexScheme> schemes = {
        IndexScheme::Pc,
        IndexScheme::Bhr,
        IndexScheme::Gcir,
        IndexScheme::PcXorBhr,
        IndexScheme::PcXorGcir,
        IndexScheme::BhrXorGcir,
        IndexScheme::PcXorBhrXorGcir,
        IndexScheme::PcConcatBhr,
    };
    std::vector<EstimatorConfig> configs;
    for (auto scheme : schemes)
        configs.push_back(oneLevelIdealConfig(scheme));
    const auto swept =
        runSuiteExperiment(env, {{"run", largeGshareFactory(), configs}});
    const SuiteRunResult &result = swept.perConfig.front();
    printMispredictionRates(result);

    std::vector<NamedCurve> curves;
    for (std::size_t i = 0; i < configs.size(); ++i)
        curves.push_back(compositeCurve(result, i, configs[i].label));
    printCoverageSummary(curves);

    const double xor_cov = curves[3].curve.mispredCoverageAt(0.2);
    const double concat_cov = curves[7].curve.mispredCoverageAt(0.2);
    const double gcir_cov = curves[2].curve.mispredCoverageAt(0.2);
    std::printf("\npaper claims checked at the 20%% point:\n");
    std::printf("  XOR (%.1f%%) vs concatenation (%.1f%%): %s\n",
                100.0 * xor_cov, 100.0 * concat_cov,
                xor_cov > concat_cov ? "XOR wins (as claimed)"
                                     : "UNEXPECTED");
    std::printf("  global CIR alone (%.1f%%): %s\n", 100.0 * gcir_cov,
                gcir_cov < xor_cov - 0.1
                    ? "of little value (as claimed)"
                    : "UNEXPECTED");

    writeCurvesCsv(env.csvDir + "/ablation_index.csv", curves);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, "Ablation: CT index schemes", run);
}
