/** @file Unit tests for the CIR table (CT). */

#include "confidence/cir_table.h"

#include <gtest/gtest.h>

namespace confsim {
namespace {

TEST(CirTableTest, OnesInitSetsEveryBit)
{
    CirTable table(64, 16, CtInit::Ones);
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_EQ(table.read(i), 0xFFFFu);
}

TEST(CirTableTest, ZerosInit)
{
    CirTable table(64, 16, CtInit::Zeros);
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_EQ(table.read(i), 0u);
}

TEST(CirTableTest, LastBitInitSetsOnlyOldestBit)
{
    CirTable table(64, 16, CtInit::LastBit);
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_EQ(table.read(i), 0x8000u);
}

TEST(CirTableTest, RandomInitIsDeterministicPerSeed)
{
    CirTable a(256, 16, CtInit::Random, 42);
    CirTable b(256, 16, CtInit::Random, 42);
    CirTable c(256, 16, CtInit::Random, 43);
    bool all_same_ac = true;
    for (std::size_t i = 0; i < 256; ++i) {
        EXPECT_EQ(a.read(i), b.read(i));
        all_same_ac = all_same_ac && (a.read(i) == c.read(i));
    }
    EXPECT_FALSE(all_same_ac);
}

TEST(CirTableTest, UpdateShiftsInIncorrectAsOne)
{
    CirTable table(16, 8, CtInit::Zeros);
    table.update(3, false); // incorrect -> 1
    EXPECT_EQ(table.read(3), 0b1u);
    table.update(3, true); // correct -> 0
    EXPECT_EQ(table.read(3), 0b10u);
}

TEST(CirTableTest, PaperCirSequence)
{
    // 3 correct, 1 incorrect, 4 correct -> 00010000 (8-bit CIR).
    CirTable table(16, 8, CtInit::Zeros);
    for (int i = 0; i < 3; ++i)
        table.update(0, true);
    table.update(0, false);
    for (int i = 0; i < 4; ++i)
        table.update(0, true);
    EXPECT_EQ(table.read(0), 0b00010000u);
}

TEST(CirTableTest, EntriesAreIndependent)
{
    CirTable table(16, 8, CtInit::Zeros);
    table.update(1, false);
    EXPECT_EQ(table.read(1), 1u);
    EXPECT_EQ(table.read(2), 0u);
}

TEST(CirTableTest, IndexWrapsOnTableSize)
{
    CirTable table(16, 8, CtInit::Zeros);
    table.update(16 + 5, false);
    EXPECT_EQ(table.read(5), 1u);
}

TEST(CirTableTest, CirWidthMasksShiftedBits)
{
    CirTable table(4, 4, CtInit::Ones);
    // Shifting 4 correct predictions into an all-ones 4-bit CIR
    // clears it completely.
    for (int i = 0; i < 4; ++i)
        table.update(0, true);
    EXPECT_EQ(table.read(0), 0u);
}

TEST(CirTableTest, ResetRestoresInitPolicy)
{
    CirTable table(16, 8, CtInit::LastBit);
    table.update(0, true);
    table.update(0, false);
    table.reset();
    EXPECT_EQ(table.read(0), 0x80u);
}

TEST(CirTableTest, StorageBits)
{
    // The paper's CT: 2^16 x 16 bits.
    CirTable table(1 << 16, 16, CtInit::Ones);
    EXPECT_EQ(table.storageBits(), std::uint64_t{1} << 20);
}

TEST(CirTableTest, BadGeometryIsFatal)
{
    EXPECT_THROW(CirTable(100, 16, CtInit::Ones), std::runtime_error);
    EXPECT_THROW(CirTable(64, 0, CtInit::Ones), std::runtime_error);
    EXPECT_THROW(CirTable(64, 65, CtInit::Ones), std::runtime_error);
    // Entries are 16 bits wide: 16 is the widest CIR.
    EXPECT_THROW(CirTable(64, 17, CtInit::Ones), std::runtime_error);
    EXPECT_NO_THROW(CirTable(64, 16, CtInit::Ones));
}

TEST(CirTableTest, SixteenBitCirDropsItsOldestBit)
{
    // A miss followed by 15 hits leaves it in the oldest bit; one more
    // hit shifts it out of the 16-bit entry instead of wrapping.
    CirTable table(4, 16, CtInit::Zeros);
    table.update(0, false);
    for (int i = 0; i < 15; ++i)
        table.update(0, true);
    EXPECT_EQ(table.read(0), 0x8000u);
    table.update(0, true);
    EXPECT_EQ(table.read(0), 0u);

    CirTable ones(4, 16, CtInit::Ones);
    ones.update(0, true);
    EXPECT_EQ(ones.read(0), 0xFFFEu);
    CirTable lastbit(4, 16, CtInit::LastBit);
    lastbit.update(0, false);
    EXPECT_EQ(lastbit.read(0), 1u);
}

TEST(CirTableTest, UpdateReturnsThePreShiftPattern)
{
    CirTable table(16, 8, CtInit::Zeros);
    EXPECT_EQ(table.update(3, false), 0u);
    EXPECT_EQ(table.update(3, true), 1u);
    EXPECT_EQ(table.update(3 + 16, false), 2u); // same entry
    EXPECT_EQ(table.read(3), 5u);
}

TEST(CirTableTest, InitNames)
{
    EXPECT_STREQ(toString(CtInit::Ones), "ones");
    EXPECT_STREQ(toString(CtInit::Zeros), "zeros");
    EXPECT_STREQ(toString(CtInit::Random), "random");
    EXPECT_STREQ(toString(CtInit::LastBit), "lastbit");
}

} // namespace
} // namespace confsim
