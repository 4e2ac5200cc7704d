/**
 * @file
 * The generated streams, pinned. For each IBS profile, and for one
 * profile that reaches every behaviour kind, every trip-count model and
 * the non-conditional records, the first 100,000 records and the saved
 * state after 50,000 must equal values recorded from the generator
 * whose behaviours were virtual heap objects (e42dcfd). Behaviours held
 * by value make the same random draws in the same order, so any change
 * to a draw, its order or the snapshot layout shows here.
 */

#include <iterator>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/state_io.h"
#include "obs/counting_new.h"
#include "trace/trace_stats.h"
#include "util/crc32.h"
#include "workload/workload_generator.h"

namespace confsim {
namespace {

struct StreamPin
{
    const char *name;
    std::uint32_t checksum;  //!< streamChecksum() of the first 100,000
    std::uint32_t stateCrc;  //!< crc32() of saveState() after 50,000
    std::size_t stateBytes;  //!< that snapshot's size
};

/**
 * Every behaviour kind, all three trip-count models (geometric and
 * jittered ones need loops at depth <= 1) and non-conditional records.
 */
BenchmarkProfile
everyKindProfile()
{
    BenchmarkProfile p;
    p.name = "every-kind";
    p.targetBlocks = 600;
    p.seed = 11;
    p.loopFraction = 0.3;
    p.geometricLoopFraction = 0.4;
    p.mix = BehaviorMix{0.3, 0.15, 0.1, 0.2, 0.15, 0.1};
    p.emitNonConditional = true;
    return p;
}

void
expectPinned(const BenchmarkProfile &profile, const StreamPin &pin)
{
    WorkloadGenerator gen(profile, 100'000);
    EXPECT_EQ(streamChecksum(gen, 100'000), pin.checksum) << pin.name;
    BranchRecord record;
    for (int i = 0; i < 50'000; ++i)
        ASSERT_TRUE(gen.next(record)) << pin.name;
    StateWriter out;
    gen.saveState(out);
    EXPECT_EQ(out.bytes().size(), pin.stateBytes) << pin.name;
    EXPECT_EQ(crc32(out.bytes().data(), out.bytes().size()), pin.stateCrc)
        << pin.name;
}

TEST(StreamPinTest, IbsStreamsAndSnapshotsArePinned)
{
    constexpr StreamPin kPins[] = {
        {"groff", 0xFEEE01BE, 0x19C6ABFB, 551},
        {"gs", 0x0368B82E, 0x582F93B8, 836},
        {"jpeg", 0xB6741967, 0x6604C100, 211},
        {"mpeg", 0x8F7D2985, 0x6985C544, 321},
        {"nroff", 0x44F2F3C5, 0x8021F541, 501},
        {"real_gcc", 0xF06717BF, 0x77E603C5, 1691},
        {"sdet", 0x4E65F5B7, 0xA38806CC, 1031},
        {"verilog", 0xE18B7465, 0x0C9E3CF1, 761},
        {"video_play", 0xBE7AE187, 0xD37A1087, 276},
    };
    const std::vector<BenchmarkProfile> profiles = ibsProfiles();
    ASSERT_EQ(profiles.size(), std::size(kPins));
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        ASSERT_EQ(profiles[i].name, kPins[i].name);
        expectPinned(profiles[i], kPins[i]);
    }
}

TEST(StreamPinTest, EveryBehaviourKindIsPinned)
{
    const BenchmarkProfile profile = everyKindProfile();
    const SyntheticCfg cfg(profile);
    std::set<BehaviorKind> kinds;
    std::set<TripCountModel> models;
    for (std::size_t b = 0; b < cfg.numBlocks(); ++b) {
        const BranchBehavior &behavior = cfg.block(b).behavior;
        kinds.insert(behavior.kind());
        if (behavior.kind() == BehaviorKind::Loop)
            models.insert(behavior.tripCountModel());
    }
    EXPECT_EQ(kinds.size(), 5u);
    EXPECT_EQ(models.size(), 3u);

    WorkloadGenerator gen(profile, 100'000);
    BranchRecord record;
    std::uint64_t non_conditional = 0;
    for (int i = 0; i < 100'000 && gen.next(record); ++i)
        non_conditional += record.isConditional() ? 0 : 1;
    EXPECT_GT(non_conditional, 0u);

    expectPinned(profile, {"every-kind", 0x9788C61F, 0x0BE822CE, 1141});
}

TEST(StreamPinTest, BuildingTheIbsGraphsBarelyAllocates)
{
    // Behaviours live in their blocks, so a graph allocates its block
    // array and its stateful-block list; heap-held behaviours made
    // 23,635 allocations for the nine graphs.
    const std::vector<BenchmarkProfile> profiles = ibsProfiles();
    std::size_t blocks = 0;
    const std::uint64_t before = allocationCount();
    for (const BenchmarkProfile &profile : profiles) {
        const SyntheticCfg cfg(profile);
        blocks += cfg.numBlocks();
    }
    const std::uint64_t allocations = allocationCount() - before;
    EXPECT_GT(blocks, 12'000u);
    EXPECT_LT(allocations, 200u);
}

} // namespace
} // namespace confsim
