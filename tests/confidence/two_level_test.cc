/** @file Unit tests for two-level confidence estimators. */

#include "confidence/two_level.h"

#include <gtest/gtest.h>

namespace confsim {
namespace {

BranchContext
context(std::uint64_t pc, std::uint64_t bhr = 0)
{
    BranchContext ctx;
    ctx.pc = pc;
    ctx.bhr = bhr;
    return ctx;
}

TEST(TwoLevelConfidenceTest, StorageSumsBothTables)
{
    // Level 1: 2^8 x 8 bits; level 2: 2^8 x 8 bits.
    TwoLevelConfidence est(IndexScheme::Pc, 256, 8,
                           SecondLevelIndex::Cir, 8);
    EXPECT_EQ(est.storageBits(), 256u * 8u * 2u);
}

TEST(TwoLevelConfidenceTest, SecondLevelSizeIsTwoToFirstCirBits)
{
    // 10-bit level-1 CIRs -> 1024-entry level-2 table of 16-bit CIRs.
    TwoLevelConfidence est(IndexScheme::Pc, 256, 10,
                           SecondLevelIndex::Cir, 16);
    EXPECT_EQ(est.storageBits(), 256u * 10u + 1024u * 16u);
}

TEST(TwoLevelConfidenceTest, BucketComesFromSecondLevel)
{
    TwoLevelConfidence est(IndexScheme::Pc, 256, 8,
                           SecondLevelIndex::Cir, 8,
                           CirReduction::RawPattern, CtInit::Zeros);
    const auto ctx = context(0x1000);
    // Both tables all-zero: level-1 CIR 0 -> level-2 entry 0 -> CIR 0.
    EXPECT_EQ(est.bucketOf(ctx), 0u);
    est.update(ctx, false, true);
    // Level-2 entry 0 recorded the incorrect prediction; the level-1
    // CIR became 1, so the NEXT read indexes level-2 entry 1 (still 0).
    EXPECT_EQ(est.bucketOf(ctx), 0u);
    // Another incorrect: recorded at level-2 entry 1; level-1 -> 0b11.
    est.update(ctx, false, true);
    EXPECT_EQ(est.bucketOf(ctx), 0u);
    // Now revisit: two corrects drive level-1 back through 0b110,
    // 0b1100; reading level-2 entry 0b1100 is untouched -> 0.
    est.update(ctx, true, true);
    EXPECT_EQ(est.bucketOf(ctx), 0u);
}

TEST(TwoLevelConfidenceTest, RecordsHistoryOfFirstLevelPattern)
{
    TwoLevelConfidence est(IndexScheme::Pc, 256, 4,
                           SecondLevelIndex::Cir, 8,
                           CirReduction::RawPattern, CtInit::Zeros);
    const auto ctx = context(0x2000);
    // Drive the level-1 CIR through a repeating 4-step cycle:
    // incorrect, correct, correct, correct => level-1 patterns cycle
    // 0001, 0010, 0100, 1000. The incorrect step of every cycle after
    // the first happens when the level-1 CIR reads 0b1000, so level-2
    // entry 8 accumulates one incorrect (1) bit per cycle.
    for (int cycle = 0; cycle < 3; ++cycle) {
        est.update(ctx, false, true);
        est.update(ctx, true, true);
        est.update(ctx, true, true);
        est.update(ctx, true, true);
    }
    // Level-1 CIR is now 0b1000, so bucketOf reads level-2 entry 8,
    // which saw the incorrect step in cycles 2 and 3: CIR 0b11.
    EXPECT_EQ(est.bucketOf(ctx), 0b11u);
}

TEST(TwoLevelConfidenceTest, VariantsProduceDistinctIndices)
{
    // With a nonzero PC and BHR the three paper variants read
    // different level-2 entries; verify via divergent training.
    for (auto variant :
         {SecondLevelIndex::Cir, SecondLevelIndex::CirXorPc,
          SecondLevelIndex::CirXorBhr,
          SecondLevelIndex::CirXorPcXorBhr}) {
        TwoLevelConfidence est(IndexScheme::PcXorBhr, 256, 8, variant,
                               8, CirReduction::RawPattern,
                               CtInit::Zeros);
        const auto ctx = context(0x1230, 0x55);
        est.update(ctx, false, true);
        // Not asserting specific values — just exercising each path
        // and checking bucket ids stay in range.
        EXPECT_LT(est.bucketOf(ctx), est.numBuckets());
    }
}

TEST(TwoLevelConfidenceTest, OnesCountReductionBucketRange)
{
    TwoLevelConfidence est(IndexScheme::PcXorBhr, 256, 8,
                           SecondLevelIndex::Cir, 12,
                           CirReduction::OnesCount);
    EXPECT_EQ(est.numBuckets(), 13u);
    EXPECT_LE(est.bucketOf(context(0x1000, 0x3)), 12u);
}

TEST(TwoLevelConfidenceTest, OnesInitMakesInitialBucketAllOnes)
{
    TwoLevelConfidence est(IndexScheme::Pc, 256, 8,
                           SecondLevelIndex::Cir, 8,
                           CirReduction::RawPattern, CtInit::Ones);
    EXPECT_EQ(est.bucketOf(context(0x1000)), 0xFFu);
}

TEST(TwoLevelConfidenceTest, ResetRestoresBothTables)
{
    TwoLevelConfidence est(IndexScheme::Pc, 256, 8,
                           SecondLevelIndex::Cir, 8,
                           CirReduction::RawPattern, CtInit::Ones);
    const auto ctx = context(0x1000);
    for (int i = 0; i < 20; ++i)
        est.update(ctx, true, true);
    est.reset();
    EXPECT_EQ(est.bucketOf(ctx), 0xFFu);
}

TEST(TwoLevelConfidenceTest, BadGeometryIsFatal)
{
    EXPECT_THROW(TwoLevelConfidence(IndexScheme::Pc, 256, 25,
                                    SecondLevelIndex::Cir, 8),
                 std::runtime_error);
    EXPECT_THROW(TwoLevelConfidence(IndexScheme::Pc, 256, 8,
                                    SecondLevelIndex::Cir, 32),
                 std::runtime_error);
    // Both levels hold 16-bit CIRs, for either reduction.
    EXPECT_THROW(TwoLevelConfidence(IndexScheme::Pc, 256, 17,
                                    SecondLevelIndex::Cir, 8),
                 std::runtime_error);
    EXPECT_THROW(TwoLevelConfidence(IndexScheme::Pc, 256, 8,
                                    SecondLevelIndex::Cir, 17),
                 std::runtime_error);
    EXPECT_THROW(TwoLevelConfidence(IndexScheme::Pc, 256, 8,
                                    SecondLevelIndex::Cir, 17,
                                    CirReduction::OnesCount),
                 std::runtime_error);
    EXPECT_NO_THROW(TwoLevelConfidence(IndexScheme::Pc, 256, 16,
                                       SecondLevelIndex::Cir, 16));
}

TEST(TwoLevelConfidenceTest, UpdateReturnsThePreUpdateBucket)
{
    // Level 2 is indexed by the level-1 CIR before it shifts, and the
    // returned bucket is that level-2 entry before it shifts.
    TwoLevelConfidence est(IndexScheme::Pc, 256, 4,
                           SecondLevelIndex::Cir, 4,
                           CirReduction::RawPattern, CtInit::Zeros);
    const auto ctx = context(0x1000);
    for (int i = 0; i < 20; ++i) {
        const std::uint64_t bucket = est.bucketOf(ctx);
        ASSERT_EQ(est.update(ctx, i % 3 != 0, true), bucket)
            << "step " << i;
    }
}

TEST(TwoLevelConfidenceTest, NamesMatchPaperNotation)
{
    TwoLevelConfidence est(IndexScheme::PcXorBhr, 256, 8,
                           SecondLevelIndex::CirXorPcXorBhr, 8);
    EXPECT_EQ(est.name(), "2lvl-PCxorBHR-CIRxorPCxorBHR-raw");
    EXPECT_STREQ(toString(SecondLevelIndex::Cir), "CIR");
}

} // namespace
} // namespace confsim
