/**
 * @file
 * Regression tests pinning how `contextSwitchInterval` flushes compose
 * with the record step in the driver.
 *
 * The documented order (DriverOptions::contextSwitchInterval):
 *
 *  - The context-switch interval counts every simulated conditional
 *    branch; other records do not tick it.
 *  - A switch fires AFTER the triggering branch has fully trained
 *    (predictor, estimators, BHR, GCIR), returns the predictor, the
 *    estimators and both history registers to their power-on state,
 *    and never clears accumulated statistics.
 *
 * The first test replays the same trace through a hand-rolled
 * reference loop that encodes exactly this order, then asserts the
 * driver matches bit-for-bit at several intervals, S = 1 and no
 * switches included. A discrepancy here means the driver's loop order
 * drifted from the documentation.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "predictor/gshare.h"
#include "predictor/history_register.h"
#include "sim/driver.h"
#include "util/shift_register.h"
#include "workload/suite.h"

namespace confsim {
namespace {

constexpr std::uint64_t kBranches = 12'000;

std::unique_ptr<TraceSource>
freshSource()
{
    return BenchmarkSuite::ibsSmall(kBranches).makeGenerator(0);
}

struct ReferenceResult
{
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t contextSwitches = 0;
    BucketStats stats;
    StaticBranchProfile profile;

    explicit ReferenceResult(std::uint64_t buckets) : stats(buckets) {}
};

/** The documented composition order, spelled out independently. */
ReferenceResult
referenceRun(TraceSource &source, const DriverOptions &options)
{
    GsharePredictor predictor(4096, 12);
    OneLevelCounterConfidence estimator(IndexScheme::PcXorBhr, 1024,
                                        CounterKind::Resetting, 16, 0);
    ReferenceResult result(estimator.numBuckets());

    HistoryRegister bhr(options.bhrBits);
    ShiftRegister gcir(options.gcirBits, 0);
    BranchContext ctx;
    ctx.bhrBits = options.bhrBits;
    ctx.gcirBits = options.gcirBits;

    std::uint64_t since_switch = 0;
    BranchRecord record;
    while (source.next(record)) {
        if (!record.isConditional())
            continue;

        ctx.pc = record.pc;
        ctx.bhr = bhr.value();
        ctx.gcir = gcir.value();
        const bool correct =
            predictor.predict(record.pc) == record.taken;

        ++result.branches;
        if (!correct)
            ++result.mispredicts;
        result.stats.record(estimator.bucketOf(ctx), !correct);
        result.profile.record(record.pc, !correct, record.taken);
        estimator.update(ctx, correct, record.taken);
        predictor.update(record.pc, record.taken);
        bhr.recordOutcome(record.taken);
        gcir.shiftIn(!correct);

        // The switch clock ticks on every simulated branch and fires
        // after the branch finished training.
        if (options.contextSwitchInterval != 0 &&
            ++since_switch == options.contextSwitchInterval) {
            since_switch = 0;
            predictor.reset();
            estimator.reset();
            bhr.reset();
            gcir.clear();
            ++result.contextSwitches;
        }
    }
    return result;
}

DriverResult
driverRun(TraceSource &source, const DriverOptions &options)
{
    GsharePredictor predictor(4096, 12);
    OneLevelCounterConfidence estimator(IndexScheme::PcXorBhr, 1024,
                                        CounterKind::Resetting, 16, 0);
    SimulationDriver driver(predictor, {&estimator}, options);
    return driver.run(source);
}

void
expectSameAsReference(const DriverOptions &options,
                      const std::string &context)
{
    SCOPED_TRACE(context);
    auto reference_source = freshSource();
    const ReferenceResult expected =
        referenceRun(*reference_source, options);
    auto driver_source = freshSource();
    const DriverResult actual = driverRun(*driver_source, options);

    EXPECT_EQ(expected.branches, actual.branches);
    EXPECT_EQ(expected.mispredicts, actual.mispredicts);
    EXPECT_EQ(expected.contextSwitches, actual.contextSwitches);
    ASSERT_EQ(actual.estimatorStats.size(), 1u);
    ASSERT_EQ(expected.stats.numBuckets(),
              actual.estimatorStats[0].numBuckets());
    for (std::uint64_t b = 0; b < expected.stats.numBuckets(); ++b) {
        EXPECT_EQ(expected.stats[b].refs,
                  actual.estimatorStats[0][b].refs)
            << "bucket " << b;
        EXPECT_EQ(expected.stats[b].mispredicts,
                  actual.estimatorStats[0][b].mispredicts)
            << "bucket " << b;
    }
    if (options.profileStatic) {
        ASSERT_EQ(expected.profile.size(),
                  actual.staticProfile.size());
        for (const auto &[pc, entry] : expected.profile.entries()) {
            const auto it = actual.staticProfile.entries().find(pc);
            ASSERT_NE(it, actual.staticProfile.entries().end());
            EXPECT_EQ(entry.executions, it->second.executions);
            EXPECT_EQ(entry.mispredictions,
                      it->second.mispredictions);
        }
    }
}

TEST(ContextSwitch, ComposeInDocumentedOrder)
{
    for (const std::uint64_t interval :
         {std::uint64_t{3'000}, std::uint64_t{2'500}, std::uint64_t{1'500},
          std::uint64_t{1}, std::uint64_t{2'000}, std::uint64_t{0}}) {
        DriverOptions options;
        options.profileStatic = true;
        options.contextSwitchInterval = interval;
        expectSameAsReference(options,
                              "interval " + std::to_string(interval));
    }
}

TEST(ContextSwitch, SwitchClockCountsEveryConditional)
{
    // The trace interleaves calls, returns and jumps with its
    // conditionals; only the conditionals tick the clock, so a run
    // makes floor(conditionals / S) switches.
    for (const std::uint64_t interval :
         {std::uint64_t{1'000}, std::uint64_t{7}}) {
        DriverOptions options;
        options.contextSwitchInterval = interval;
        auto source = freshSource();
        const DriverResult result = driverRun(*source, options);
        EXPECT_EQ(result.branches, kBranches);
        EXPECT_EQ(result.contextSwitches, kBranches / interval)
            << "interval " << interval;
    }
}

} // namespace
} // namespace confsim
