/** @file Unit tests for the per-static-branch accuracy profile. */

#include "confidence/static_confidence.h"

#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/state_io.h"

namespace confsim {
namespace {

StaticBranchProfile
sampleProfile()
{
    // Three static branches:
    //   0x100: 100 execs, 50 misses (rate 0.50)
    //   0x200: 300 execs, 30 misses (rate 0.10)
    //   0x300: 600 execs,  6 misses (rate 0.01)
    StaticBranchProfile profile;
    auto fill = [&profile](std::uint64_t pc, int execs, int misses) {
        for (int i = 0; i < execs; ++i)
            profile.record(pc, i < misses);
    };
    fill(0x100, 100, 50);
    fill(0x200, 300, 30);
    fill(0x300, 600, 6);
    return profile;
}

TEST(StaticProfileTest, Totals)
{
    const auto profile = sampleProfile();
    EXPECT_EQ(profile.size(), 3u);
    EXPECT_EQ(profile.totalExecutions(), 1000u);
    EXPECT_EQ(profile.totalMispredictions(), 86u);
}

TEST(StaticProfileTest, EntryRates)
{
    const auto profile = sampleProfile();
    EXPECT_DOUBLE_EQ(profile.entries().at(0x100).rate(), 0.5);
    EXPECT_DOUBLE_EQ(profile.entries().at(0x300).rate(), 0.01);
}

/** Expected counts per PC, kept in an ordered std::map. */
using ReferenceProfile = std::map<std::uint64_t, StaticBranchProfile::Entry>;

/**
 * 12,288 distinct PCs: 4,096 that all share their low 16 bits (and
 * word alignment), 4,096 consecutive word-aligned PCs, and 4,096
 * scattered ones including PC 0 and the top of the address space.
 * Executions interleave the PCs, so the index is rebuilt several times
 * while every PC is live; counts vary per PC.
 */
ReferenceProfile
recordManyBranches(StaticBranchProfile &profile)
{
    std::vector<std::uint64_t> pcs;
    for (std::uint64_t i = 0; i < 4096; ++i) {
        pcs.push_back((i << 16) | 0x4A8C);
        pcs.push_back(0x400000 + 4 * i);
        pcs.push_back(i == 0 ? 0 : ~std::uint64_t{0} - 977 * i);
    }
    ReferenceProfile reference;
    for (int round = 0; round < 5; ++round) {
        for (std::size_t i = 0; i < pcs.size(); ++i) {
            if (round > static_cast<int>(i % 5))
                continue;
            const bool mispredicted = (i + round) % 3 == 0;
            const bool taken = (i * 7 + round) % 4 != 0;
            profile.record(pcs[i], mispredicted, taken);
            auto &entry = reference[pcs[i]];
            ++entry.executions;
            entry.mispredictions += mispredicted;
            entry.takenCount += taken;
        }
    }
    return reference;
}

TEST(StaticProfileTest, ManyPcsIterateOnceWithExactCounts)
{
    StaticBranchProfile profile;
    const ReferenceProfile reference = recordManyBranches(profile);
    ASSERT_EQ(reference.size(), 3u * 4096u);
    EXPECT_EQ(profile.size(), reference.size());

    std::set<std::uint64_t> seen;
    std::uint64_t executions = 0;
    for (const auto &[pc, entry] : profile.entries()) {
        EXPECT_TRUE(seen.insert(pc).second) << "pc " << pc << " twice";
        const auto it = reference.find(pc);
        ASSERT_NE(it, reference.end()) << "unexpected pc " << pc;
        EXPECT_EQ(entry.executions, it->second.executions);
        EXPECT_EQ(entry.mispredictions, it->second.mispredictions);
        EXPECT_EQ(entry.takenCount, it->second.takenCount);
        executions += entry.executions;
    }
    EXPECT_EQ(seen.size(), reference.size());
    EXPECT_EQ(profile.totalExecutions(), executions);
}

TEST(StaticProfileTest, AtAndFindAgree)
{
    StaticBranchProfile profile;
    const ReferenceProfile reference = recordManyBranches(profile);
    const auto &entries = profile.entries();
    for (const auto &[pc, expected] : reference) {
        const auto it = entries.find(pc);
        ASSERT_NE(it, entries.end()) << "pc " << pc;
        EXPECT_EQ(it->first, pc);
        EXPECT_EQ(&it->second, &entries.at(pc));
        EXPECT_EQ(it->second.executions, expected.executions);
    }
    // Absent PCs, including ones sharing a present PC's low 16 bits.
    for (const std::uint64_t pc :
         {std::uint64_t{0x4A8C} | (std::uint64_t{4096} << 16),
          std::uint64_t{0x400002}, std::uint64_t{1}}) {
        EXPECT_EQ(entries.find(pc), entries.end()) << "pc " << pc;
        EXPECT_THROW(entries.at(pc), std::out_of_range) << "pc " << pc;
    }
    const StaticBranchProfile empty;
    EXPECT_EQ(empty.entries().find(0), empty.entries().end());
    EXPECT_EQ(empty.entries().begin(), empty.entries().end());
    EXPECT_THROW(empty.entries().at(0), std::out_of_range);
}

TEST(StaticProfileTest, CheckpointIsTheSortedKeyEncoding)
{
    StaticBranchProfile profile;
    const ReferenceProfile reference = recordManyBranches(profile);

    // The encoding: the count, then (pc, executions, mispredictions,
    // taken count) per branch in ascending PC order.
    StateWriter expected;
    expected.putU64(reference.size());
    for (const auto &[pc, entry] : reference) {
        expected.putU64(pc);
        expected.putU64(entry.executions);
        expected.putU64(entry.mispredictions);
        expected.putU64(entry.takenCount);
    }

    StateWriter saved;
    profile.saveState(saved);
    EXPECT_EQ(saved.bytes(), expected.bytes());

    StaticBranchProfile restored;
    restored.record(0x1234, true); // replaced by the load
    StateReader in(saved.bytes());
    restored.loadState(in);
    EXPECT_TRUE(in.atEnd());
    EXPECT_EQ(restored.size(), reference.size());
    EXPECT_EQ(restored.entries().find(0x1234), restored.entries().end());

    StateWriter again;
    restored.saveState(again);
    EXPECT_EQ(again.bytes(), expected.bytes());
}

} // namespace
} // namespace confsim
