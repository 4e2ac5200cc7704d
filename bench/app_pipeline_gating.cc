/**
 * @file
 * Pipeline gating study — the paper's "better not to speculate"
 * motivation realized as Manne/Klauser/Grunwald-style speculation
 * control: stall fetch when more than N unresolved low-confidence
 * branches are in flight.
 *
 * Sweeps both the confidence threshold (which resetting-counter
 * values count as low confidence) and the gating threshold (how many
 * unresolved low-confidence branches are tolerated) over the IBS
 * suite with the 64K gshare, reporting the wrong-path-work reduction
 * (the energy proxy) against the IPC cost.
 */

#include <algorithm>
#include <cstdio>

#include "apps/pipeline_gating.h"
#include "sim/experiment.h"
#include "util/csv.h"
#include "util/string_utils.h"

using namespace confsim;

namespace {

/** One gating policy and its suite means. */
struct Row
{
    std::string label;
    GatingConfig config;
    std::vector<bool> low; //!< counter values that count as low
    double ipc = 0.0;
    double wasted = 0.0;
    double gatedFrac = 0.0;
};

/** Counter values 0..@p low_max (of @p buckets) are low confidence. */
Row
policy(std::uint64_t buckets, bool gate, unsigned threshold,
       std::uint32_t low_max = 15)
{
    Row row;
    row.label = gate ? "low<=" + std::to_string(low_max) + ",gate>" +
                           std::to_string(threshold)
                     : "no-gating";
    row.config.enableGating = gate;
    row.config.gateThreshold = threshold;
    row.low.assign(buckets, false);
    for (std::uint32_t v = 0; v <= low_max; ++v)
        row.low[v] = true;
    return row;
}

int
run(const ExperimentEnv &env)
{
    std::printf("=== Application: pipeline gating (speculation "
                "control) ===\n\n");
    // The model fetches at most this many branches per benchmark, so
    // the suite is replayed to that prefix only.
    ExperimentEnv capped = env;
    capped.branchesPerBenchmark =
        std::min<std::uint64_t>(env.branchesPerBenchmark, 1'000'000);

    std::printf("%-12s %8s %10s %12s\n", "policy", "IPC", "wasted%",
                "gated cyc%");
    CsvWriter csv(env.csvDir + "/app_pipeline_gating.csv");
    csv.writeRow({"policy", "ipc", "wasted_frac", "gated_frac"});

    // Sweep both knobs: which counter values count as low confidence
    // (low<=V) and how many unresolved low-confidence branches are
    // tolerated before fetch stalls (gate>N).
    const EstimatorConfig reset16 =
        oneLevelCounterConfig(IndexScheme::PcXorBhr, CounterKind::Resetting);
    const auto shape = reset16.make();
    const std::uint64_t buckets = shape->numBuckets();
    std::vector<Row> rows;
    rows.push_back(policy(buckets, false, 0));
    for (unsigned threshold : {0u, 1u, 2u})
        rows.push_back(policy(buckets, true, threshold, 15));
    for (unsigned threshold : {0u, 1u})
        rows.push_back(policy(buckets, true, threshold, 3));
    rows.push_back(policy(buckets, true, 0, 1));
    for (Row &row : rows)
        row.config.branches = capped.branchesPerBenchmark;

    // One replay per benchmark; every policy reads its branch log.
    const std::size_t num_benchmarks = capped.makeSuite().size();
    std::vector<std::vector<GatingResult>> results(
        num_benchmarks, std::vector<GatingResult>(rows.size()));
    runSuiteExperiment(
        capped, {{"gshare64K+reset16", largeGshareFactory(), {reset16}}},
        branchLogHooks([&](std::size_t bench, const SweepRunResult &pass) {
            const BranchLog log = branchLog(pass, 0, 0, *shape);
            for (std::size_t r = 0; r < rows.size(); ++r) {
                results[bench][r] =
                    runPipelineGating(log, rows[r].low, rows[r].config);
            }
        }));

    const auto n = static_cast<double>(num_benchmarks);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        double ipc_sum = 0.0;
        double waste_sum = 0.0;
        double gated_sum = 0.0;
        for (const auto &bench : results) {
            const GatingResult &result = bench[r];
            ipc_sum += result.ipc();
            waste_sum += result.wastedFraction();
            gated_sum += result.cycles == 0
                             ? 0.0
                             : static_cast<double>(result.gatedCycles) /
                                   result.cycles;
        }
        rows[r].ipc = ipc_sum / n;
        rows[r].wasted = waste_sum / n;
        rows[r].gatedFrac = gated_sum / n;
    }

    const double base_ipc = rows[0].ipc;
    const double base_waste = rows[0].wasted;
    for (const auto &row : rows) {
        std::printf("%-12s %8.3f %9.2f%% %11.2f%%\n", row.label.c_str(),
                    row.ipc, 100.0 * row.wasted,
                    100.0 * row.gatedFrac);
        csv.writeRow({row.label, formatFixed(row.ipc, 4),
                      formatFixed(row.wasted, 5),
                      formatFixed(row.gatedFrac, 5)});
    }
    // Best energy-delay style row: maximize waste removed per IPC
    // point given up.
    const Row *best = &rows[1];
    double best_score = -1.0;
    for (std::size_t i = 1; i < rows.size(); ++i) {
        const double removed = 1.0 - rows[i].wasted / base_waste;
        const double cost =
            std::max(1e-3, 1.0 - rows[i].ipc / base_ipc);
        if (removed / cost > best_score) {
            best_score = removed / cost;
            best = &rows[i];
        }
    }
    std::printf("\nbest trade-off (%s): %.0f%% of the wrong-path work "
                "removed for %.1f%% IPC cost\n", best->label.c_str(),
                100.0 * (1.0 - best->wasted / base_waste),
                100.0 * (1.0 - best->ipc / base_ipc));
    std::printf("wrote %s/app_pipeline_gating.csv\n",
                env.csvDir.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, "Application: pipeline gating", run);
}
