/** @file Unit tests for util/bits.h. */

#include "util/bits.h"

#include <vector>

#include <gtest/gtest.h>

namespace confsim {
namespace {

TEST(BitsTest, MaskBasics)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 0x1u);
    EXPECT_EQ(mask(4), 0xFu);
    EXPECT_EQ(mask(16), 0xFFFFu);
    EXPECT_EQ(mask(63), 0x7FFFFFFFFFFFFFFFull);
    EXPECT_EQ(mask(64), ~std::uint64_t{0});
}

TEST(BitsTest, MaskBeyond64SaturatesToAllOnes)
{
    EXPECT_EQ(mask(65), ~std::uint64_t{0});
    EXPECT_EQ(mask(200), ~std::uint64_t{0});
}

TEST(BitsTest, BitsOfExtractsPaperPcField)
{
    // The paper's "bits 17 through 2 of the program counter".
    const std::uint64_t pc = 0x0003FFFCull;
    EXPECT_EQ(bitsOf(pc, 17, 2), 0xFFFFull);
    EXPECT_EQ(bitsOf(0x4ull, 17, 2), 0x1ull);
    EXPECT_EQ(bitsOf(0x40000ull, 17, 2), 0x0ull); // bit 18 excluded
}

TEST(BitsTest, BitsOfSingleBitField)
{
    EXPECT_EQ(bitsOf(0b1010, 3, 3), 1u);
    EXPECT_EQ(bitsOf(0b1010, 2, 2), 0u);
}

TEST(BitsTest, BitOf)
{
    EXPECT_EQ(bitOf(0b100, 2), 1u);
    EXPECT_EQ(bitOf(0b100, 1), 0u);
    EXPECT_EQ(bitOf(~std::uint64_t{0}, 63), 1u);
}

TEST(BitsTest, XorFoldPreservesLowBitsForNarrowValues)
{
    EXPECT_EQ(xorFold(0xAB, 8), 0xABu);
    EXPECT_EQ(xorFold(0xAB, 16), 0xABu);
}

TEST(BitsTest, XorFoldCombinesChunks)
{
    EXPECT_EQ(xorFold(0x1234'5678ull, 16), 0x1234ull ^ 0x5678ull);
    EXPECT_EQ(xorFold(0xFF00'00FFull, 8),
              0xFFull ^ 0x00ull ^ 0x00ull ^ 0xFFull);
}

TEST(BitsTest, XorFoldZeroWidthIsZero)
{
    EXPECT_EQ(xorFold(0x1234, 0), 0u);
}

TEST(BitsTest, Popcount)
{
    EXPECT_EQ(popcount(0), 0u);
    EXPECT_EQ(popcount(0xFFFF), 16u);
    EXPECT_EQ(popcount(0x8000'0000'0000'0001ull), 2u);
}

/** Set bits counted one at a time. */
unsigned
bitByBitCount(std::uint64_t value)
{
    unsigned count = 0;
    for (unsigned bit = 0; bit < 64; ++bit)
        count += static_cast<unsigned>((value >> bit) & 1);
    return count;
}

TEST(BitsTest, PopcountMatchesBitByBitCount)
{
    static_assert(popcount(~std::uint64_t{0}) == 64);
    std::vector<std::uint64_t> values = {
        0, ~std::uint64_t{0},
        0x5555'5555'5555'5555ull, 0xAAAA'AAAA'AAAA'AAAAull,
        0x3333'3333'3333'3333ull, 0xCCCC'CCCC'CCCC'CCCCull,
        0x0F0F'0F0F'0F0F'0F0Full, 0xF0F0'F0F0'F0F0'F0F0ull,
        0x00FF'00FF'00FF'00FFull, 0xFF00'FF00'FF00'FF00ull,
        0x0000'FFFF'0000'FFFFull, 0xFFFF'0000'FFFF'0000ull,
        0x0000'0000'FFFF'FFFFull, 0xFFFF'FFFF'0000'0000ull};
    for (unsigned bit = 0; bit < 64; ++bit) {
        values.push_back(std::uint64_t{1} << bit);
        values.push_back(~(std::uint64_t{1} << bit));
        values.push_back(mask(bit));
    }
    for (const std::uint64_t value : values)
        EXPECT_EQ(popcount(value), bitByBitCount(value)) << std::hex << value;
}

TEST(BitsTest, PowerOfTwoPredicates)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(65536));
    EXPECT_FALSE(isPowerOfTwo(65537));
    EXPECT_TRUE(isPowerOfTwo(std::uint64_t{1} << 63));
}

TEST(BitsTest, Log2Exact)
{
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(2), 1u);
    EXPECT_EQ(log2Exact(65536), 16u);
    EXPECT_EQ(log2Exact(std::uint64_t{1} << 40), 40u);
}

TEST(BitsTest, CeilPowerOfTwo)
{
    EXPECT_EQ(ceilPowerOfTwo(0), 1u);
    EXPECT_EQ(ceilPowerOfTwo(1), 1u);
    EXPECT_EQ(ceilPowerOfTwo(2), 2u);
    EXPECT_EQ(ceilPowerOfTwo(3), 4u);
    EXPECT_EQ(ceilPowerOfTwo(17), 32u);   // a 0..16 counter needs 5 bits
    EXPECT_EQ(ceilPowerOfTwo(65536), 65536u);
}

} // namespace
} // namespace confsim
