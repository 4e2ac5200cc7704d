/**
 * @file
 * Selective dual-path execution study (paper Section 1 application 1;
 * Section 6: "if we fork a dual thread following 20 percent of the
 * conditional branch predictions, we can capture over 80 percent of
 * the mispredictions").
 *
 * Sweeps the resetting-counter confidence threshold over the IBS
 * suite, reporting fork rate, misprediction coverage, and the
 * cost-model speedup, with a blind-forking baseline (fork on every
 * prediction when the slot is free) for contrast.
 */

#include <cstdio>

#include "apps/dual_path.h"
#include "sim/experiment.h"
#include "util/csv.h"
#include "util/string_utils.h"

using namespace confsim;

namespace {

/** One forking policy: its low-confidence mask and fork slots. */
struct Policy
{
    std::string label;
    std::vector<bool> low;
    unsigned forkSlots = 1;
};

/** Counter values 0..@p threshold (of 0..16) trigger a fork. */
Policy
thresholdPolicy(std::uint64_t buckets, std::uint64_t threshold,
                unsigned fork_slots = 1)
{
    Policy policy{"reset<=" + std::to_string(threshold),
                  std::vector<bool>(buckets, false), fork_slots};
    for (std::uint64_t v = 0; v <= threshold; ++v)
        policy.low[v] = true;
    if (fork_slots != 1)
        policy.label += " x" + std::to_string(fork_slots);
    return policy;
}

int
run(const ExperimentEnv &env)
{
    std::printf("=== Application 1: selective dual-path execution "
                "===\n\n");

    std::printf("%-12s %10s %10s %9s\n", "policy", "fork-rate",
                "coverage", "speedup");
    CsvWriter csv(env.csvDir + "/app_dual_path.csv");
    csv.writeRow({"policy", "fork_rate", "coverage", "speedup"});

    const EstimatorConfig reset16 =
        oneLevelCounterConfig(IndexScheme::PcXorBhr, CounterKind::Resetting);
    const auto shape = reset16.make();
    const std::uint64_t buckets = shape->numBuckets();
    std::vector<Policy> policies;
    for (std::uint64_t threshold : {0u, 1u, 3u, 7u, 15u})
        policies.push_back(thresholdPolicy(buckets, threshold));
    // Eager-execution-style hardware: more simultaneous fork slots.
    policies.push_back(thresholdPolicy(buckets, 15, 2));
    policies.push_back(thresholdPolicy(buckets, 15, 4));
    policies.push_back({"blind", std::vector<bool>(buckets, true), 1});

    // One replay per benchmark; every policy reads its branch log.
    const std::size_t num_benchmarks = env.makeSuite().size();
    std::vector<std::vector<DualPathResult>> results(
        num_benchmarks, std::vector<DualPathResult>(policies.size()));
    runSuiteExperiment(
        env, {{"gshare64K+reset16", largeGshareFactory(), {reset16}}},
        branchLogHooks([&](std::size_t bench, const SweepRunResult &pass) {
            const BranchLog log = branchLog(pass, 0, 0, *shape);
            for (std::size_t p = 0; p < policies.size(); ++p) {
                DualPathConfig config;
                config.maxForks = policies[p].forkSlots;
                results[bench][p] =
                    runDualPath(log, policies[p].low, config);
            }
        }));

    const auto n = static_cast<double>(num_benchmarks);
    for (std::size_t p = 0; p < policies.size(); ++p) {
        double fork_sum = 0.0;
        double cover_sum = 0.0;
        double base_sum = 0.0;
        double dual_sum = 0.0;
        for (const auto &bench : results) {
            fork_sum += bench[p].forkRate();
            cover_sum += bench[p].coverage();
            base_sum += bench[p].baselineCycles;
            dual_sum += bench[p].dualPathCycles;
        }
        const double fork_rate = fork_sum / n;
        const double coverage = cover_sum / n;
        const double speedup = base_sum / dual_sum;
        std::printf("%-12s %9.1f%% %9.1f%% %8.3fx\n",
                    policies[p].label.c_str(), 100.0 * fork_rate,
                    100.0 * coverage, speedup);
        csv.writeRow({policies[p].label, formatFixed(fork_rate, 4),
                      formatFixed(coverage, 4), formatFixed(speedup, 4)});
    }
    std::printf("\npaper Section 6: forking after ~20%% of predictions "
                "captures >80%% of mispredictions.\n");
    std::printf("wrote %s/app_dual_path.csv\n", env.csvDir.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv,
                      "Application: selective dual-path execution", run);
}
