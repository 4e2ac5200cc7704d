/**
 * @file
 * Dual-path explorer: interactively sweep the selective dual-path
 * execution model (paper application 1) over one benchmark.
 *
 * Exposes the cost model's knobs so a user can find where selective
 * forking pays off:
 *
 *   ./build/examples/dual_path_explorer --benchmark real_gcc \
 *       --penalty 10 --fork-cost 1.0 --window 6
 *
 * prints, per confidence threshold, the fork rate, the fraction of
 * mispredictions covered by a fork, and the modeled speedup over a
 * no-dual-path baseline, plus a blind-forking row for contrast.
 */

#include <cstdio>

#include "apps/dual_path.h"
#include "sim/experiment.h"
#include "util/cli.h"

using namespace confsim;

int
main(int argc, char **argv)
{
    CliParser cli("selective dual-path execution explorer");
    cli.addOption("benchmark", "real_gcc", "IBS workload name");
    cli.addOption("branches", "2000000", "trace length");
    cli.addOption("penalty", "7.0",
                  "full misprediction penalty (cycles)");
    cli.addOption("forked-penalty", "1.0",
                  "penalty when the wrong path was forked (cycles)");
    cli.addOption("fork-cost", "0.5",
                  "resource cost per fork (cycles)");
    cli.addOption("window", "4",
                  "branches until a forked branch resolves");
    if (!cli.parse(argc, argv))
        return 0;

    DualPathConfig config;
    config.mispredictPenalty = cli.getDouble("penalty");
    config.forkedMispredictPenalty = cli.getDouble("forked-penalty");
    config.forkCost = cli.getDouble("fork-cost");
    config.resolutionWindow =
        static_cast<unsigned>(cli.getUnsigned("window"));

    const BenchmarkProfile profile =
        ibsProfile(cli.getString("benchmark"));
    const std::uint64_t branches = cli.getUnsigned("branches");

    std::printf("benchmark %s, %llu branches; penalty %.1f, forked "
                "penalty %.1f, fork cost %.2f, window %u\n\n",
                profile.name.c_str(),
                static_cast<unsigned long long>(branches),
                config.mispredictPenalty,
                config.forkedMispredictPenalty, config.forkCost,
                config.resolutionWindow);
    std::printf("%-12s %10s %10s %10s %9s\n", "policy", "forks",
                "fork-rate", "coverage", "speedup");

    // One replay logs every branch's bucket; each policy reads the log.
    const EstimatorConfig reset16 =
        oneLevelCounterConfig(IndexScheme::PcXorBhr, CounterKind::Resetting);
    const auto shape = reset16.make();
    std::vector<std::uint32_t> entries;
    runSuiteExperiment(
        ExperimentEnv{},
        {{"gshare64K+reset16", largeGshareFactory(), {reset16}}},
        branchLogHooks([&](std::size_t, const SweepRunResult &pass) {
            const BranchLog log = branchLog(pass, 0, 0, *shape);
            entries.assign(log.entries.begin(), log.entries.end());
        }),
        BenchmarkSuite::ibsSubset({profile.name}, branches));
    const BranchLog log{entries, shape->numBuckets(),
                        shape->bucketsAreOrdered()};

    // A policy is the set of low-confidence (fork-triggering) counter
    // values.
    auto run_policy = [&](const char *label,
                          const std::vector<bool> &low_template) {
        const auto result = runDualPath(log, low_template, config);
        std::printf("%-12s %10llu %9.2f%% %9.1f%% %8.3fx\n", label,
                    static_cast<unsigned long long>(result.forks),
                    100.0 * result.forkRate(),
                    100.0 * result.coverage(), result.speedup());
    };

    const std::uint64_t buckets = log.numBuckets; // counter 0..16
    run_policy("never", std::vector<bool>(buckets, false));
    for (std::uint64_t threshold : {0u, 1u, 3u, 7u, 15u}) {
        std::vector<bool> low(buckets, false);
        for (std::uint64_t v = 0; v <= threshold; ++v)
            low[v] = true;
        char label[32];
        std::snprintf(label, sizeof(label), "reset<=%llu",
                      static_cast<unsigned long long>(threshold));
        run_policy(label, low);
    }
    run_policy("blind", std::vector<bool>(buckets, true));
    return 0;
}
