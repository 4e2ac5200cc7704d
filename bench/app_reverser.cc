/**
 * @file
 * Branch prediction reverser study (paper Section 1 application 4).
 *
 * Runs the reverser (profile bucket accuracies, invert predictions in
 * buckets measured above 50% misprediction) per IBS benchmark under
 * three configurations, from one replay of the suite:
 *  - the paper's resetting-counter estimator over the large gshare
 *    (finding: no bucket exceeds 50% — Table 1 row 0 is 37.6% — so
 *    reversal never triggers),
 *  - the same estimator over a weak bimodal predictor,
 *  - a raw-CIR-pattern estimator over the weak predictor (fine-grained
 *    buckets expose genuinely reversible contexts).
 */

#include <cstdio>
#include <memory>

#include "apps/reverser.h"
#include "predictor/bimodal.h"
#include "sim/experiment.h"
#include "util/csv.h"
#include "util/string_utils.h"

using namespace confsim;

namespace {

/** Report the reverser over estimator @p estimator's statistics for
 *  every benchmark of @p run. */
void
reportConfig(const char *label, const SuiteRunResult &run,
             std::size_t estimator, CsvWriter &csv)
{
    double base_sum = 0.0;
    double rev_sum = 0.0;
    std::uint64_t buckets_total = 0;
    std::uint64_t reversals_total = 0;
    for (const BenchmarkRunResult &bench : run.perBenchmark) {
        const auto result =
            runReverser(bench.estimatorStats.at(estimator), 0.5, 200.0);
        base_sum += result.baseRate();
        rev_sum += result.reversedRate();
        buckets_total += result.reversalBuckets.size();
        reversals_total += result.reversals;
    }
    const auto n = static_cast<double>(run.perBenchmark.size());
    std::printf("%-28s %9.2f%% %9.2f%% %10llu %12llu\n", label,
                100.0 * base_sum / n, 100.0 * rev_sum / n,
                static_cast<unsigned long long>(buckets_total),
                static_cast<unsigned long long>(reversals_total));
    csv.writeRow({label, formatFixed(base_sum / n, 5),
                  formatFixed(rev_sum / n, 5),
                  std::to_string(buckets_total),
                  std::to_string(reversals_total)});
}

int
run(const ExperimentEnv &env)
{
    std::printf("=== Application 4: branch prediction reverser ===\n\n");
    std::printf("%-28s %10s %10s %10s %12s\n", "configuration",
                "base", "reversed", "buckets", "reversals");
    CsvWriter csv(env.csvDir + "/app_reverser.csv");
    csv.writeRow({"configuration", "base_rate", "reversed_rate",
                  "reversal_buckets", "reversals"});

    // The weak predictor carries both of its estimators.
    const PredictorFactory bimodal1k = [] {
        return std::make_unique<BimodalPredictor>(1024);
    };
    const SweepSuiteResult swept = runSuiteExperiment(
        env,
        {{"gshare64K", largeGshareFactory(),
          {oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                 CounterKind::Resetting)}},
         {"bimodal1K", bimodal1k,
          {oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                 CounterKind::Resetting, 4096),
           oneLevelIdealConfig(IndexScheme::PcXorBhr, 4096, 12)}}});
    reportConfig("gshare64K + reset16", swept.perConfig[0], 0, csv);
    reportConfig("bimodal1K + reset16", swept.perConfig[1], 0, csv);
    reportConfig("bimodal1K + rawCIR", swept.perConfig[1], 1, csv);

    std::printf("\npaper conjecture (Section 6): 'the reverser "
                "application looks promising, but a key issue will be "
                "whether the cost/performance of a predictor plus "
                "reverser is better than ... a more powerful "
                "predictor' — with the strong predictor almost no "
                "bucket exceeds 50%% misprediction (Table 1's worst "
                "row is ~38%%), so reversal gains are marginal there "
                "and substantial only for weak predictors.\n");
    std::printf("wrote %s/app_reverser.csv\n", env.csvDir.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, "Application: prediction reverser", run);
}
