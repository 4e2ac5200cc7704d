/**
 * @file
 * Paper tour: a guided, single-binary walk through the main results of
 * Jacobsen/Rotenberg/Smith (MICRO-29, 1996), each step computed live
 * on a reduced benchmark subset so the whole tour runs in seconds.
 *
 *   ./build/examples/paper_tour            # reduced suite, fast
 *   ./build/examples/paper_tour --full     # all nine benchmarks
 *
 * For the full-scale reproductions with CSV output, use the per-figure
 * binaries in bench/.
 */

#include <cstdio>

#include "sim/experiment.h"
#include "util/cli.h"

using namespace confsim;

namespace {

void
banner(const char *text)
{
    std::printf("\n=== %s ===\n\n", text);
}

double
at20(const NamedCurve &curve)
{
    return 100.0 * curve.curve.mispredCoverageAt(0.20);
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("guided tour of the paper's results");
    cli.addFlag("full", "run the full nine-benchmark suite");
    cli.addOption("branches", "400000",
                  "conditional branches per benchmark");
    cli.addOption("telemetry", "",
                  "write JSONL telemetry (manifest + events) here");
    cli.addFlag("progress", "stderr heartbeat while the suite runs");
    if (!cli.parse(argc, argv))
        return 0;

    ExperimentEnv env;
    env.fullSuite = cli.getFlag("full");
    env.branchesPerBenchmark = cli.getUnsigned("branches");
    env.tool = "paper_tour";
    env.telemetry.jsonlPath = cli.getString("telemetry");
    env.telemetry.progress = cli.getFlag("progress");
    env.telemetryContext = Telemetry::fromOptions(env.telemetry);

    std::printf("confsim paper tour — 'Assigning Confidence to "
                "Conditional Branch Predictions' (MICRO-29, 1996)\n");
    std::printf("suite: %s, %llu branches per benchmark\n",
                env.fullSuite ? "all nine IBS stand-ins"
                              : "reduced (jpeg, real_gcc, groff)",
                static_cast<unsigned long long>(
                    env.branchesPerBenchmark));

    banner("Step 1 — the setting (Section 1.2)");
    std::printf("A 64K-entry gshare predictor runs over the benchmark "
                "suite.\n");
    const std::vector<EstimatorConfig> configs = {
        oneLevelIdealConfig(IndexScheme::Pc),
        oneLevelIdealConfig(IndexScheme::Bhr),
        oneLevelIdealConfig(IndexScheme::PcXorBhr),
        twoLevelConfig(IndexScheme::PcXorBhr, SecondLevelIndex::Cir),
        oneLevelCounterConfig(IndexScheme::PcXorBhr,
                              CounterKind::Saturating),
        oneLevelCounterConfig(IndexScheme::PcXorBhr,
                              CounterKind::Resetting),
    };
    const auto swept =
        runSuiteExperiment(env, {{"run", largeGshareFactory(), configs}});
    const SuiteRunResult &result = swept.perConfig.front();
    printMispredictionRates(result);
    std::printf("(the paper reports 3.85%% composite for this "
                "predictor on the real IBS traces)\n");

    banner("Step 2 — static confidence is a weak baseline (Section 2)");
    const auto static_curve = staticCompositeCurve(result);
    std::printf("Tag whole static branches low-confidence using a "
                "perfect profile:\n  the worst 20%% of dynamic "
                "branches capture %.1f%% of mispredictions\n  (the "
                "paper: ~63%%).\n",
                at20(static_curve));

    banner("Step 3 — dynamic confidence is much better (Sections 3-4)");
    const auto pc = compositeCurve(result, 0, "PC");
    const auto bhr = compositeCurve(result, 1, "BHR");
    const auto both = compositeCurve(result, 2, "PCxorBHR");
    std::printf("One-level CIR tables under the ideal reduction, at "
                "the same 20%% point:\n");
    std::printf("  PC-indexed        %.1f%%   (paper 72%%)\n",
                at20(pc));
    std::printf("  BHR-indexed       %.1f%%   (paper 85%%)\n",
                at20(bhr));
    std::printf("  PCxorBHR-indexed  %.1f%%   (paper 89%%)\n",
                at20(both));
    std::printf("PC and history together pin down the branch context "
                "— the gshare insight, reused for confidence.\n");

    banner("Step 4 — a second table level is not worth it (Fig. 7)");
    const auto two_level = compositeCurve(result, 3, "2lvl");
    std::printf("Best two-level method: %.1f%% vs one-level %.1f%% — "
                "at twice the storage.\n",
                at20(two_level), at20(both));

    banner("Step 5 — practical reductions (Section 5.1, Fig. 8)");
    const auto sat = compositeCurve(result, 4, "sat");
    const auto reset = compositeCurve(result, 5, "reset");
    std::printf("Replace 16-bit CIRs with embedded 0..16 counters "
                "(3.2x cheaper):\n");
    std::printf("  saturating counters  %.1f%% — the max-count bucket "
                "swallows mispredictions\n",
                at20(sat));
    std::printf("  resetting counters   %.1f%% — tracks the ideal "
                "curve; the paper's recommendation\n",
                at20(reset));

    banner("Step 6 — the operating points (Table 1)");
    const auto &stats = result.compositeEstimatorStats[5];
    const double total_refs = stats.totalRefs();
    const double total_miss = stats.totalMispredicts();
    double cum_refs = 0.0;
    double cum_miss = 0.0;
    for (std::uint64_t v = 0; v <= 16; ++v) {
        cum_refs += stats[v].refs;
        cum_miss += stats[v].mispredicts;
        if (v == 0 || v == 1 || v == 15 || v == 16) {
            std::printf("  counter <= %2llu: %5.1f%% of predictions, "
                        "%5.1f%% of mispredictions\n",
                        static_cast<unsigned long long>(v),
                        100.0 * cum_refs / total_refs,
                        100.0 * cum_miss / total_miss);
        }
    }
    std::printf("A designer dials the high/low threshold along these "
                "17 natural operating points.\n");

    banner("Where to go next");
    std::printf("  bench/fig*              full-scale figure "
                "reproductions with CSVs and plots\n");
    std::printf("  bench/app_*             dual-path, SMT fetch, "
                "pipeline gating, reverser, hybrid studies\n");
    std::printf("  bench/ablation_*        design-space, aliasing, "
                "context-switch, robustness studies\n");
    std::printf("  examples/confidence_tuner   pick a threshold from "
                "a design target\n");
    return 0;
}
