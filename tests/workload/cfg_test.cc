/** @file Structural tests for the synthetic CFG builder. */

#include "workload/synthetic_cfg.h"

#include <set>

#include <gtest/gtest.h>

#include "workload/workload_generator.h"

namespace confsim {
namespace {

BenchmarkProfile
testProfile(unsigned blocks = 200, std::uint64_t seed = 7)
{
    BenchmarkProfile p;
    p.name = "test";
    p.targetBlocks = blocks;
    p.seed = seed;
    p.mix = BehaviorMix{0.4, 0.1, 0.02, 0.3, 0.05, 0.1};
    return p;
}

TEST(SyntheticCfgTest, ReachesTargetBlockCount)
{
    SyntheticCfg cfg(testProfile(500));
    EXPECT_GE(cfg.numBlocks(), 500u);
    // Overshoot is bounded by one construct's expansion.
    EXPECT_LT(cfg.numBlocks(), 800u);
}

TEST(SyntheticCfgTest, AllSuccessorsInRange)
{
    SyntheticCfg cfg(testProfile());
    for (std::size_t b = 0; b < cfg.numBlocks(); ++b) {
        EXPECT_LT(cfg.block(b).takenNext, cfg.numBlocks());
        EXPECT_LT(cfg.block(b).fallNext, cfg.numBlocks());
        EXPECT_EQ(cfg.block(b).takenPc,
                  cfg.block(cfg.block(b).takenNext).branchPc);
    }
}

TEST(SyntheticCfgTest, BranchPcsAreUniqueWordAlignedAndAscending)
{
    SyntheticCfg cfg(testProfile());
    std::set<std::uint64_t> pcs;
    std::uint64_t prev = 0;
    for (std::size_t b = 0; b < cfg.numBlocks(); ++b) {
        const std::uint64_t pc = cfg.block(b).branchPc;
        EXPECT_EQ(pc % 4, 0u);
        EXPECT_GT(pc, prev);
        prev = pc;
        pcs.insert(pc);
    }
    EXPECT_EQ(pcs.size(), cfg.numBlocks());
}

TEST(SyntheticCfgTest, DeterministicForSameSeed)
{
    SyntheticCfg a(testProfile(300, 42));
    SyntheticCfg b(testProfile(300, 42));
    ASSERT_EQ(a.numBlocks(), b.numBlocks());
    for (std::size_t i = 0; i < a.numBlocks(); ++i) {
        EXPECT_EQ(a.block(i).branchPc, b.block(i).branchPc);
        EXPECT_EQ(a.block(i).takenNext, b.block(i).takenNext);
        EXPECT_EQ(a.block(i).fallNext, b.block(i).fallNext);
    }
}

TEST(SyntheticCfgTest, DifferentSeedsDiffer)
{
    SyntheticCfg a(testProfile(300, 1));
    SyntheticCfg b(testProfile(300, 2));
    bool differs = a.numBlocks() != b.numBlocks();
    if (!differs) {
        for (std::size_t i = 0; i < a.numBlocks(); ++i) {
            if (a.block(i).takenNext != b.block(i).takenNext) {
                differs = true;
                break;
            }
        }
    }
    EXPECT_TRUE(differs);
}

TEST(SyntheticCfgTest, LoopLatchesHaveBackEdges)
{
    SyntheticCfg cfg(testProfile(400));
    unsigned latches = 0;
    for (std::size_t b = 0; b < cfg.numBlocks(); ++b) {
        const CfgBlock &block = cfg.block(b);
        if (block.isLoopLatch) {
            ++latches;
            EXPECT_LE(block.takenNext, b); // back (or self) edge
        }
    }
    EXPECT_GT(latches, 0u);
}

TEST(SyntheticCfgTest, LastBlockWrapsToEntry)
{
    SyntheticCfg cfg(testProfile());
    const CfgBlock &wrap = cfg.block(cfg.numBlocks() - 1);
    EXPECT_EQ(wrap.takenNext, 0u);
    EXPECT_EQ(wrap.fallNext, 0u);
}

TEST(SyntheticCfgTest, GraphIsConnectedFromEntry)
{
    // Every block must be reachable: the builder only creates forward
    // fall-through chains, forward skips, and back edges, so walk
    // reachability from block 0.
    SyntheticCfg cfg(testProfile(300));
    std::vector<bool> seen(cfg.numBlocks(), false);
    std::vector<std::size_t> stack = {0};
    while (!stack.empty()) {
        const std::size_t b = stack.back();
        stack.pop_back();
        if (seen[b])
            continue;
        seen[b] = true;
        stack.push_back(cfg.block(b).takenNext);
        stack.push_back(cfg.block(b).fallNext);
    }
    std::size_t reachable = 0;
    for (bool s : seen)
        reachable += s;
    // The taken edge of an if skips its then-region, but the fall edge
    // enters it, so everything should be reachable.
    EXPECT_EQ(reachable, cfg.numBlocks());
}

TEST(SyntheticCfgTest, TooFewBlocksIsFatal)
{
    BenchmarkProfile p = testProfile(2);
    EXPECT_THROW(SyntheticCfg{p}, std::runtime_error);
}

TEST(SyntheticCfgTest, EmptyMixIsFatal)
{
    BenchmarkProfile p = testProfile();
    p.mix = BehaviorMix{};
    EXPECT_THROW(SyntheticCfg{p}, std::runtime_error);
}

TEST(SyntheticCfgTest, IbsProfilesAllBuild)
{
    for (const auto &profile : ibsProfiles()) {
        SyntheticCfg cfg(profile);
        EXPECT_GE(cfg.numBlocks(), profile.targetBlocks) << profile.name;
    }
}

TEST(SyntheticCfgTest, SnapshotOfStatefulBlocksEqualsAFullWalk)
{
    std::vector<BenchmarkProfile> profiles = ibsProfiles();
    profiles.push_back(testProfile(400, 9)); // has pattern behaviours
    for (const BenchmarkProfile &profile : profiles) {
        WorkloadGenerator gen(profile, 50'000);
        BranchRecord record;
        for (int i = 0; i < 20'000; ++i)
            ASSERT_TRUE(gen.next(record));
        const SyntheticCfg &cfg = gen.cfg();

        StateWriter every;
        every.putU64(cfg.numBlocks());
        for (std::size_t b = 0; b < cfg.numBlocks(); ++b)
            cfg.block(b).behavior.saveState(every);
        StateWriter walked;
        cfg.saveBehaviorStates(walked);
        EXPECT_EQ(walked.bytes(), every.bytes()) << profile.name;

        // The snapshot restores into a fresh graph and saves the same.
        SyntheticCfg fresh(profile);
        StateReader in(walked.bytes());
        fresh.loadBehaviorStates(in);
        EXPECT_TRUE(in.atEnd()) << profile.name;
        StateWriter again;
        fresh.saveBehaviorStates(again);
        EXPECT_EQ(again.bytes(), walked.bytes()) << profile.name;
    }
}

} // namespace
} // namespace confsim
