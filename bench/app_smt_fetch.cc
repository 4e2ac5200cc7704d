/**
 * @file
 * SMT fetch-gating study (paper Section 1 application 2): four
 * hardware threads running distinct IBS workloads; fetch slots are
 * granted round-robin, optionally gating threads whose latest
 * prediction was low confidence. Reports wasted-fetch fraction and
 * useful throughput with gating off and at several thresholds.
 */

#include <cstdio>

#include "apps/smt_fetch.h"
#include "sim/experiment.h"
#include "util/csv.h"
#include "util/string_utils.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env)
{
    const std::uint64_t slots =
        env.fullSuite ? 2'000'000 : 200'000;

    std::printf("=== Application 2: SMT fetch gating (4 threads) "
                "===\n\n");
    std::printf("%-14s %12s %12s %12s %14s\n", "policy", "wasted%",
                "useful/slot", "gated slots", "mispredicts");
    CsvWriter csv(env.csvDir + "/app_smt_fetch.csv");
    csv.writeRow({"policy", "wasted_frac", "useful_per_slot",
                  "gated_slots", "mispredicts"});

    struct Policy
    {
        std::string label;
        bool gate;
        std::uint64_t threshold;
    };
    const std::vector<Policy> policies = {
        {"no-gating", false, 0},  {"gate<=0", true, 0},
        {"gate<=3", true, 3},     {"gate<=7", true, 7},
        {"gate<=15", true, 15},
    };

    // One replay per thread's program, long enough for any policy.
    SmtFetchConfig config;
    config.fetchSlots = slots;
    const BenchmarkSuite programs = BenchmarkSuite::ibsSubset(
        {"real_gcc", "gs", "jpeg", "sdet"}, smtBranchesPerThread(config));
    const EstimatorConfig reset16 = oneLevelCounterConfig(
        IndexScheme::PcXorBhr, CounterKind::Resetting, 4096);
    const auto shape = reset16.make();
    std::vector<std::vector<std::uint32_t>> logs(programs.size());
    runSuiteExperiment(
        env, {{"gshare4K+reset16", smallGshareFactory(), {reset16}}},
        branchLogHooks([&](std::size_t bench, const SweepRunResult &pass) {
            const BranchLog log = branchLog(pass, 0, 0, *shape);
            logs[bench].assign(log.entries.begin(), log.entries.end());
        }),
        programs);

    for (const auto &policy : policies) {
        std::vector<SmtThreadSpec> threads;
        for (const auto &log : logs) {
            SmtThreadSpec thread;
            thread.log = {log, shape->numBuckets(),
                          shape->bucketsAreOrdered()};
            thread.lowBuckets.assign(shape->numBuckets(), false);
            for (std::uint64_t v = 0; v <= policy.threshold; ++v)
                thread.lowBuckets[v] = true;
            threads.push_back(std::move(thread));
        }
        config.gateOnLowConfidence = policy.gate;
        const auto result = runSmtFetch(threads, config);
        std::printf("%-14s %11.2f%% %12.3f %12llu %14llu\n",
                    policy.label.c_str(),
                    100.0 * result.wastedFraction(),
                    result.usefulPerSlot(slots),
                    static_cast<unsigned long long>(result.gatedSlots),
                    static_cast<unsigned long long>(
                        result.mispredicts));
        csv.writeRow({policy.label,
                      formatFixed(result.wastedFraction(), 5),
                      formatFixed(result.usefulPerSlot(slots), 4),
                      std::to_string(result.gatedSlots),
                      std::to_string(result.mispredicts)});
    }
    std::printf("\n(the paper's application 2: fetch only down paths "
                "with a high likelihood of being correct)\n");
    std::printf("wrote %s/app_smt_fetch.csv\n", env.csvDir.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, "Application: SMT fetch gating", run);
}
