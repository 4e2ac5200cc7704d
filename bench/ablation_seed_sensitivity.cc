/**
 * @file
 * Seed-sensitivity study: the synthetic-workload substitution's
 * robustness check. Every conclusion in EXPERIMENTS.md is derived from
 * one draw of the synthetic benchmark programs; this harness redraws
 * the entire suite N times (different CFGs, same profile statistics)
 * and reports the spread of the headline metrics:
 *
 *  - composite gshare-64K misprediction rate,
 *  - ideal one-level PCxorBHR coverage at the 20% operating point,
 *  - resetting-counter coverage at the same point,
 *  - the PCxorBHR-vs-PC ordering margin.
 *
 * Small standard deviations (and an ordering that never flips) mean
 * the paper-shape reproductions are properties of the workload
 * *statistics*, not of one lucky program draw.
 */

#include <cmath>
#include <cstdio>

#include "sim/experiment.h"
#include "util/csv.h"
#include "util/running_stats.h"
#include "util/string_utils.h"

using namespace confsim;

namespace {

struct Draw
{
    double mispredictRate = 0.0;
    double idealCoverage = 0.0;
    double resetCoverage = 0.0;
    double xorMinusPc = 0.0;
};

Draw
runDraw(const ExperimentEnv &env, std::uint64_t seed_offset,
        std::uint64_t branches)
{
    // Redraw every benchmark program by shifting its seed; all other
    // profile statistics are unchanged.
    std::vector<BenchmarkProfile> profiles = ibsProfiles();
    for (auto &profile : profiles)
        profile.seed += seed_offset * 1000;

    const auto swept = runSuiteExperiment(
        env,
        {{"run",
          largeGshareFactory(),
          {oneLevelIdealConfig(IndexScheme::Pc),
           oneLevelIdealConfig(IndexScheme::PcXorBhr),
           oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                 CounterKind::Resetting)}}},
        {}, BenchmarkSuite(std::move(profiles), branches));
    const SuiteRunResult &result = swept.perConfig.front();
    const auto coverage = [&result](std::size_t estimator) {
        return compositeCurve(result, estimator, "")
            .curve.mispredCoverageAt(0.20);
    };

    Draw draw;
    draw.mispredictRate = result.compositeMispredictRate;
    draw.idealCoverage = coverage(1);
    draw.resetCoverage = coverage(2);
    draw.xorMinusPc = draw.idealCoverage - coverage(0);
    return draw;
}

void
report(const char *label, const std::vector<double> &values,
       CsvWriter &csv)
{
    RunningStats stats;
    for (double v : values)
        stats.add(v);
    std::printf("%-28s mean %7.3f  sd %6.3f  range [%.3f, %.3f]\n",
                label, stats.mean(), stats.stddev(), stats.min(),
                stats.max());
    csv.writeRow({label, formatFixed(stats.mean(), 5),
                  formatFixed(stats.stddev(), 5),
                  formatFixed(stats.min(), 5),
                  formatFixed(stats.max(), 5)});
}

int
run(const ExperimentEnv &env)
{
    const unsigned draws = env.fullSuite ? 5 : 2;
    const std::uint64_t branches =
        std::min<std::uint64_t>(env.branchesPerBenchmark, 1'000'000);

    std::printf("=== Ablation: seed sensitivity (%u suite redraws, "
                "%llu branches/benchmark) ===\n\n",
                draws, static_cast<unsigned long long>(branches));

    std::vector<double> rates;
    std::vector<double> ideals;
    std::vector<double> resets;
    std::vector<double> margins;
    for (unsigned d = 0; d < draws; ++d) {
        const Draw draw = runDraw(env, d, branches);
        std::printf("draw %u: rate %.2f%%, ideal@20 %.1f%%, reset@20 "
                    "%.1f%%, xor-pc margin %.1f\n",
                    d, 100.0 * draw.mispredictRate,
                    100.0 * draw.idealCoverage,
                    100.0 * draw.resetCoverage,
                    100.0 * draw.xorMinusPc);
        rates.push_back(100.0 * draw.mispredictRate);
        ideals.push_back(100.0 * draw.idealCoverage);
        resets.push_back(100.0 * draw.resetCoverage);
        margins.push_back(100.0 * draw.xorMinusPc);
    }

    std::printf("\n");
    CsvWriter csv(env.csvDir + "/ablation_seed_sensitivity.csv");
    csv.writeRow({"metric", "mean", "sd", "min", "max"});
    report("mispredict rate (%)", rates, csv);
    report("ideal PCxorBHR @20 (%)", ideals, csv);
    report("resetting @20 (%)", resets, csv);
    report("PCxorBHR - PC margin (pts)", margins, csv);

    bool ordering_holds = true;
    for (double margin : margins)
        ordering_holds = ordering_holds && margin > 0.0;
    std::printf("\nPCxorBHR > PC in every draw: %s\n",
                ordering_holds ? "yes" : "NO — investigate");
    std::printf("wrote %s/ablation_seed_sensitivity.csv\n",
                env.csvDir.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, "Ablation: workload seed sensitivity", run);
}
