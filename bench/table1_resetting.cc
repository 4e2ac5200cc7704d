/**
 * @file
 * Reproduces paper Table 1: per-counter-value statistics for the best
 * single-level method with 0..16 resetting counters (PC xor BHR
 * indexing, 2^16 entries, 64K gshare, IBS composite).
 *
 * Paper reference rows: count 0 isolates 41.7% of mispredictions in
 * 4.28% of predictions; counts 0-1 -> 57.9% in 6.85%; counts 0-15 ->
 * 89.3% in 20.3%; count 16 is the zero bucket.
 */

#include <cstdio>

#include "metrics/table_report.h"
#include "sim/experiment.h"
#include "util/csv.h"
#include "util/string_utils.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    std::printf("=== Table 1: statistics for resetting counter values "
                "===\n\n");
    const std::vector<EstimatorConfig> configs = {
        oneLevelCounterConfig(IndexScheme::PcXorBhr,
                              CounterKind::Resetting),
    };
    const auto swept =
        runSuiteExperiment(env, {{"run", largeGshareFactory(), configs}});
    const SuiteRunResult &result = swept.perConfig.front();
    printMispredictionRates(result);

    const auto rows =
        buildCounterTable(result.compositeEstimatorStats[0]);
    std::puts(renderCounterTable(rows).c_str());

    std::printf("\npaper reference: count 0 -> 41.7%% of misses in "
                "4.28%% of refs; counts 0..15 -> 89.3%% in 20.3%%\n");
    std::printf("measured:        count 0 -> %.1f%% in %.2f%%; counts "
                "0..15 -> %.1f%% in %.1f%%\n",
                rows[0].cumMispredictPercent, rows[0].cumRefPercent,
                rows[15].cumMispredictPercent, rows[15].cumRefPercent);

    // CSV.
    CsvWriter csv(env.csvDir + "/table1_resetting.csv");
    csv.writeRow({"count", "mispred_rate", "ref_pct", "mispred_pct",
                  "cum_ref_pct", "cum_mispred_pct"});
    for (const auto &row : rows) {
        csv.writeRow({std::to_string(row.counterValue),
                      formatFixed(row.mispredictRate, 4),
                      formatFixed(row.refPercent, 3),
                      formatFixed(row.mispredictPercent, 3),
                      formatFixed(row.cumRefPercent, 2),
                      formatFixed(row.cumMispredictPercent, 2)});
    }
    std::printf("wrote %s/table1_resetting.csv\n", env.csvDir.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv,
                      "Table 1: resetting counter statistics",
                      run);
}
