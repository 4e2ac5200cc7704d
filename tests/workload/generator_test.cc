/** @file Behavioural tests for the workload generator. */

#include "workload/workload_generator.h"

#include <unordered_map>

#include <gtest/gtest.h>

#include "trace/trace_stats.h"
#include "util/error.h"

namespace confsim {
namespace {

BenchmarkProfile
testProfile()
{
    BenchmarkProfile p;
    p.name = "gen-test";
    p.targetBlocks = 150;
    p.seed = 33;
    p.defaultLength = 5000;
    p.mix = BehaviorMix{0.4, 0.1, 0.02, 0.3, 0.05, 0.1};
    return p;
}

TEST(WorkloadGeneratorTest, ProducesExactlyRequestedLength)
{
    WorkloadGenerator gen(testProfile(), 1234);
    BranchRecord record;
    std::uint64_t n = 0;
    while (gen.next(record))
        ++n;
    EXPECT_EQ(n, 1234u);
    // Exhausted: further next() calls keep returning false.
    EXPECT_FALSE(gen.next(record));
}

TEST(WorkloadGeneratorTest, ZeroLengthUsesProfileDefault)
{
    WorkloadGenerator gen(testProfile(), 0);
    EXPECT_EQ(gen.length(), 5000u);
}

TEST(WorkloadGeneratorTest, AllRecordsAreConditionalWithValidPcs)
{
    WorkloadGenerator gen(testProfile(), 2000);
    BranchRecord record;
    while (gen.next(record)) {
        ASSERT_TRUE(record.isConditional());
        ASSERT_EQ(record.pc % 4, 0u);
        ASSERT_NE(record.pc, 0u);
    }
}

TEST(WorkloadGeneratorTest, DeterministicAcrossInstances)
{
    WorkloadGenerator a(testProfile(), 3000);
    WorkloadGenerator b(testProfile(), 3000);
    BranchRecord ra;
    BranchRecord rb;
    while (a.next(ra)) {
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(ra, rb);
    }
    EXPECT_FALSE(b.next(rb));
}

TEST(WorkloadGeneratorTest, ResetReplaysIdenticalStream)
{
    WorkloadGenerator gen(testProfile(), 2000);
    std::vector<BranchRecord> first;
    BranchRecord record;
    while (gen.next(record))
        first.push_back(record);
    gen.reset();
    std::size_t i = 0;
    while (gen.next(record)) {
        ASSERT_LT(i, first.size());
        ASSERT_EQ(record, first[i]);
        ++i;
    }
    EXPECT_EQ(i, first.size());
}

TEST(WorkloadGeneratorTest, RestoreRejectsABlockPastTheGraph)
{
    // The current block indexes the CFG, so a checkpoint must not set
    // it past the last block.
    WorkloadGenerator gen(testProfile(), 2000);
    BranchRecord record;
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(gen.next(record));
    StateWriter out;
    gen.saveState(out);
    // The block id follows four RNG words and the history word.
    constexpr std::size_t kBlockOffset = 5 * 8;
    const auto num_blocks =
        static_cast<std::uint32_t>(gen.cfg().numBlocks());
    for (const std::uint32_t block : {num_blocks, ~std::uint32_t{0}}) {
        std::vector<std::uint8_t> bytes = out.bytes();
        for (std::size_t i = 0; i < 4; ++i) {
            bytes[kBlockOffset + i] =
                static_cast<std::uint8_t>(block >> (8 * i));
        }
        WorkloadGenerator fresh(testProfile(), 2000);
        StateReader in(bytes);
        try {
            fresh.loadState(in);
            ADD_FAILURE() << "block " << block << " restored";
        } catch (const Error &e) {
            EXPECT_EQ(e.category(), ErrorCategory::kCheckpoint) << block;
        }
    }
    // The unpatched snapshot restores and resumes the same stream.
    WorkloadGenerator fresh(testProfile(), 2000);
    StateReader in(out.bytes());
    fresh.loadState(in);
    EXPECT_TRUE(in.atEnd());
    BranchRecord want;
    BranchRecord got;
    while (gen.next(want)) {
        ASSERT_TRUE(fresh.next(got));
        ASSERT_EQ(got, want);
    }
}

TEST(WorkloadGeneratorTest, TargetMatchesTakenSuccessorPc)
{
    WorkloadGenerator gen(testProfile(), 1000);
    BranchRecord record;
    ASSERT_TRUE(gen.next(record));
    // The target of a record equals some block's branch PC.
    bool found = false;
    for (std::size_t b = 0; b < gen.cfg().numBlocks(); ++b) {
        if (gen.cfg().block(b).branchPc == record.target) {
            found = true;
            break;
        }
    }
    EXPECT_TRUE(found);
}

TEST(WorkloadGeneratorTest, PathFollowsOutcomes)
{
    // Consecutive records must be linked: record i+1's PC is the
    // branch PC of the successor selected by record i's outcome.
    WorkloadGenerator gen(testProfile(), 2000);
    const SyntheticCfg &cfg = gen.cfg();

    // Map branch PC -> block index.
    std::unordered_map<std::uint64_t, std::size_t> pc_to_block;
    for (std::size_t b = 0; b < cfg.numBlocks(); ++b)
        pc_to_block[cfg.block(b).branchPc] = b;

    BranchRecord prev;
    ASSERT_TRUE(gen.next(prev));
    BranchRecord cur;
    while (gen.next(cur)) {
        const CfgBlock &prev_block = cfg.block(pc_to_block.at(prev.pc));
        const std::size_t expected_next =
            prev.taken ? prev_block.takenNext : prev_block.fallNext;
        ASSERT_EQ(cur.pc, cfg.block(expected_next).branchPc);
        prev = cur;
    }
}

TEST(WorkloadGeneratorTest, ExercisesManyStaticBranches)
{
    WorkloadGenerator gen(testProfile(), 50000);
    const TraceStats stats = collectTraceStats(gen);
    // The walk must cover a large share of the program.
    EXPECT_GT(stats.staticBranchCount, gen.cfg().numBlocks() / 2);
    // Both directions must occur.
    EXPECT_GT(stats.takenRate(), 0.2);
    EXPECT_LT(stats.takenRate(), 0.95);
}

TEST(WorkloadGeneratorTest, DifferentProfilesProduceDifferentStreams)
{
    BenchmarkProfile p1 = testProfile();
    BenchmarkProfile p2 = testProfile();
    p2.seed = 34;
    WorkloadGenerator a(p1, 500);
    WorkloadGenerator b(p2, 500);
    BranchRecord ra;
    BranchRecord rb;
    int same = 0;
    int total = 0;
    while (a.next(ra) && b.next(rb)) {
        same += (ra == rb);
        ++total;
    }
    EXPECT_LT(same, total / 2);
}


TEST(WorkloadGeneratorTest, NonConditionalEmissionAddsRealisticCtis)
{
    BenchmarkProfile profile = testProfile();
    profile.emitNonConditional = true;
    WorkloadGenerator gen(profile, 20000);
    const TraceStats stats = collectTraceStats(gen);
    EXPECT_EQ(stats.conditionalCount, 20000u);
    EXPECT_GT(stats.callCount, 0u);
    EXPECT_GT(stats.returnCount, 0u);
    EXPECT_GT(stats.unconditionalCount, 0u);
    // Non-conditional records are a modest minority.
    EXPECT_LT(stats.totalRecords, 20000u * 2u);
}

TEST(WorkloadGeneratorTest, ConditionalStreamUnaffectedByEmissionFlag)
{
    // Toggling emitNonConditional must not change the conditional
    // stream at all (the flag only adds records).
    BenchmarkProfile plain = testProfile();
    BenchmarkProfile rich = testProfile();
    rich.emitNonConditional = true;
    WorkloadGenerator a(plain, 5000);
    WorkloadGenerator b(rich, 5000);
    BranchRecord ra;
    BranchRecord rb;
    while (a.next(ra)) {
        // Skip b's non-conditional records.
        do {
            ASSERT_TRUE(b.next(rb));
        } while (!rb.isConditional());
        ASSERT_EQ(ra, rb);
    }
}
} // namespace
} // namespace confsim
