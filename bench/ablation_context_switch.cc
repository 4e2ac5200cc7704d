/**
 * @file
 * Context-switch ablation (paper Section 5.4): the paper studies CT
 * initialization *because* tables restart — at power-on and at context
 * switches ("another alternative is to not initialize the CIRs between
 * context switches, but we did not study this alternative"). This
 * harness studies exactly that: with the structures flushed every K
 * branches, compare
 *  - all-ones CT reinitialization (the paper's recommendation),
 *  - all-zeros reinitialization (the known-bad choice),
 *  - "lastbit" reinitialization (Section 5.4's cheap proposal),
 * and sweep the switch interval.
 */

#include <cstdio>

#include "sim/experiment.h"
#include "util/csv.h"
#include "util/string_utils.h"

using namespace confsim;

namespace {

const std::vector<std::pair<const char *, CtInit>> kInits = {
    {"ones", CtInit::Ones},
    {"zeros", CtInit::Zeros},
    {"lastbit", CtInit::LastBit},
};

/**
 * Coverage at 20% of each kInits estimator, all three riding one
 * gshare over the suite with a context switch every @p interval
 * branches.
 */
std::vector<double>
coverageAt20(const ExperimentEnv &env, std::uint64_t interval)
{
    SuiteRunner runner(env.makeSuite());
    DriverOptions options;
    options.profileStatic = false;
    options.contextSwitchInterval = interval;

    const auto result = runner.run(
        largeGshareFactory(),
        [] {
            std::vector<std::unique_ptr<ConfidenceEstimator>> out;
            for (const auto &[name, init] : kInits) {
                out.push_back(std::make_unique<OneLevelCirConfidence>(
                    IndexScheme::PcXorBhr, paper::kLargeCtEntries,
                    paper::kCirBits, CirReduction::RawPattern, init));
            }
            return out;
        },
        options);
    std::vector<double> coverage;
    for (const BucketStats &stats : result.compositeEstimatorStats) {
        coverage.push_back(ConfidenceCurve::fromBucketStats(stats)
                               .mispredCoverageAt(0.20));
    }
    return coverage;
}

int
run(const ExperimentEnv &env)
{
    std::printf("=== Ablation: context-switch interval x CT "
                "reinitialization ===\n");
    std::printf("(cells: %% of mispredictions captured at the 20%% "
                "operating point)\n\n");
    const std::vector<std::uint64_t> intervals = {0, 500'000, 100'000,
                                                  20'000};

    CsvWriter csv(env.csvDir + "/ablation_context_switch.csv");
    csv.writeRow({"switch_interval", "init", "coverage_at_20pct"});

    std::printf("%-16s", "interval");
    for (const auto &[name, init] : kInits)
        std::printf(" %9s", name);
    std::printf("\n");
    for (std::uint64_t interval : intervals) {
        const std::string label =
            interval == 0 ? "never" : std::to_string(interval);
        std::printf("%-16s", label.c_str());
        const std::vector<double> coverage = coverageAt20(env, interval);
        for (std::size_t i = 0; i < kInits.size(); ++i) {
            std::printf(" %8.1f%%", 100.0 * coverage[i]);
            csv.writeRow(
                {label, kInits[i].first, formatFixed(coverage[i], 5)});
        }
        std::printf("\n");
    }
    std::printf("\n(the ones/zeros gap widens as switches become more "
                "frequent — the dynamic version of Fig. 11's startup "
                "effect; lastbit stays close to ones at a fraction of "
                "the reinit cost)\n");
    std::printf("wrote %s/ablation_context_switch.csv\n",
                env.csvDir.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv,
                      "Ablation: context switches and CT reinit",
                      run);
}
