/** @file Unit tests for the confidence-driven hybrid selector. */

#include "apps/hybrid_selector.h"

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "kernel_log.h"
#include "predictor/bimodal.h"
#include "predictor/gshare.h"
#include "trace/vector_trace_source.h"
#include "workload/workload_generator.h"

namespace confsim {
namespace {

using testing_apps::entries;
using testing_apps::logOf;

/** A 17-bucket resetting-counter estimator over @p entries PCs. */
std::function<std::unique_ptr<ConfidenceEstimator>()>
counterEstimator(std::size_t entries)
{
    return [entries] {
        return std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::Pc, entries, CounterKind::Resetting, 16, 0);
    };
}

/** Logs of bimodal(@p bimodal_entries) and gshare(@p gshare_entries,
 *  @p history) over the stream @p make_source builds, each with a
 *  counterEstimator(@p ct_entries). */
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
constituentLogs(const std::function<std::unique_ptr<TraceSource>()>
                    &make_source,
                std::size_t bimodal_entries, std::size_t gshare_entries,
                unsigned history, std::size_t ct_entries)
{
    auto first = make_source();
    auto second = make_source();
    return {testing_apps::kernelLog(
                *first,
                [=] {
                    return std::make_unique<BimodalPredictor>(
                        bimodal_entries);
                },
                counterEstimator(ct_entries)),
            testing_apps::kernelLog(
                *second,
                [=] {
                    return std::make_unique<GsharePredictor>(
                        gshare_entries, history);
                },
                counterEstimator(ct_entries))};
}

TEST(HybridSelectorTest, RequiresOrderedBuckets)
{
    const std::vector<std::uint32_t> log;
    const BranchLog counter = logOf(log, 17);
    BranchLog raw = logOf(log, 256);
    raw.bucketsOrdered = false; // raw CIR patterns
    EXPECT_THROW(runHybridSelector(raw, counter), std::runtime_error);
}

TEST(HybridSelectorTest, CountsConstituentAndSelectedMisses)
{
    // Alternating outcomes: bimodal flounders, gshare learns. The
    // confidence selector must converge to gshare.
    std::vector<BranchRecord> records;
    for (int i = 0; i < 20000; ++i) {
        records.push_back(
            {0x1000, 0x2000, i % 2 == 0, BranchType::Conditional});
    }
    const auto [log1, log2] = constituentLogs(
        [&] { return std::make_unique<VectorTraceSource>(records); }, 1024,
        1024, 10, 1024);
    const auto result = runHybridSelector(logOf(log1, 17), logOf(log2, 17));
    EXPECT_EQ(result.branches, 20000u);
    // gshare way better than bimodal here.
    EXPECT_LT(result.secondMispredicts * 5, result.firstMispredicts);
    // Selection must be close to the better constituent.
    EXPECT_LT(result.selectedMispredicts,
              result.secondMispredicts + result.branches / 50);
    // Oracle is a lower bound on everything.
    EXPECT_LE(result.oracleMispredicts, result.selectedMispredicts);
    EXPECT_LE(result.oracleMispredicts, result.firstMispredicts);
}

TEST(HybridSelectorTest, SelectorBeatsWorseConstituentOnRealWorkload)
{
    const auto [log1, log2] = constituentLogs(
        [] {
            return std::make_unique<WorkloadGenerator>(ibsProfile("verilog"),
                                                       200000);
        },
        4096, 4096, 12, 4096);
    const auto result = runHybridSelector(logOf(log1, 17), logOf(log2, 17));
    EXPECT_LT(result.selectedMispredicts,
              std::max(result.firstMispredicts,
                       result.secondMispredicts));
    EXPECT_GT(result.disagreements, 0u);
}

TEST(HybridSelectorTest, ArbitratesOnLoggedBuckets)
{
    // Entry by entry: the higher bucket's outcome wins, ties go to the
    // second constituent, and a disagreement is exactly one miss.
    const std::vector<std::uint32_t> first = {
        testing_apps::entry(9, true), testing_apps::entry(3, true),
        testing_apps::entry(5, false), testing_apps::entry(2, true)};
    const std::vector<std::uint32_t> second = {
        testing_apps::entry(4, false), testing_apps::entry(8, false),
        testing_apps::entry(5, true), testing_apps::entry(7, true)};
    const auto result =
        runHybridSelector(logOf(first, 17), logOf(second, 17));
    EXPECT_EQ(result.branches, 4u);
    EXPECT_EQ(result.firstMispredicts, 3u);
    EXPECT_EQ(result.secondMispredicts, 2u);
    EXPECT_EQ(result.selectedMispredicts, 3u); // first, second, second
    EXPECT_EQ(result.disagreements, 3u);
    EXPECT_EQ(result.oracleMispredicts, 1u);
}

TEST(HybridSelectorTest, LogsOfDifferentLengthsAreFatal)
{
    const auto first = entries(3, 1, false);
    const auto second = entries(2, 1, false);
    EXPECT_THROW(runHybridSelector(logOf(first, 17), logOf(second, 17)),
                 std::runtime_error);
}

TEST(HybridSelectorTest, EmptyTraceGivesZeros)
{
    const std::vector<std::uint32_t> log;
    const auto result = runHybridSelector(logOf(log, 17), logOf(log, 17));
    EXPECT_EQ(result.branches, 0u);
    EXPECT_DOUBLE_EQ(result.rate(result.selectedMispredicts), 0.0);
}

} // namespace
} // namespace confsim
