/**
 * @file
 * The CRC-32 kernel (util/crc32.h) against a bit-at-a-time oracle.
 *
 * The oracle below is CRC-32 as the standard defines it: reflected
 * polynomial 0xEDB88320, initial value and final XOR 0xFFFFFFFF, one
 * shift per input bit. It shares no table and no code with the
 * kernel, so a wrong slice-table entry, a misordered slice or a
 * mishandled tail in the kernel cannot also be in the oracle. The
 * cases read every entry of every slice table, reach every tail length
 * and every alignment of the 8-byte step, and split an input across
 * update() calls in every way.
 */

#include "util/crc32.h"

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace confsim {
namespace {

/** CRC-32 one bit at a time, straight from the polynomial. */
std::uint32_t
oracleCrc32(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t state = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        state ^= data[i];
        for (int bit = 0; bit < 8; ++bit) {
            const std::uint32_t low = state & 1u;
            state >>= 1;
            if (low != 0)
                state ^= 0xEDB88320u;
        }
    }
    return ~state;
}

/** @p size bytes from splitmix64 (independent of src/util/rng). */
std::vector<std::uint8_t>
noiseBytes(std::size_t size, std::uint64_t seed)
{
    std::vector<std::uint8_t> out(size);
    for (std::uint8_t &byte : out) {
        seed += 0x9E3779B97F4A7C15u;
        std::uint64_t z = seed;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
        byte = static_cast<std::uint8_t>(z ^ (z >> 31));
    }
    return out;
}

TEST(Crc32OracleTest, OracleGivesTheCheckValue)
{
    const char *check = "123456789";
    EXPECT_EQ(oracleCrc32(reinterpret_cast<const std::uint8_t *>(check), 9),
              0xCBF43926u);
}

TEST(Crc32OracleTest, EveryLengthAtEveryOffset)
{
    const std::vector<std::uint8_t> data = noiseBytes(256 + 8, 1);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t length = 0; length <= 256; ++length) {
            const std::uint8_t *p = data.data() + offset;
            ASSERT_EQ(crc32(p, length), oracleCrc32(p, length))
                << "offset " << offset << " length " << length;
        }
    }
}

TEST(Crc32OracleTest, EveryByteValueFillReadsEveryTableEntry)
{
    // In an input's first 8-byte block, byte j indexes slice 7 - j:
    // bytes 0-3 after the XOR with the initial state (~v), bytes 4-7
    // as they are (v). A fill of one value v therefore reads entry v
    // or ~v of every slice, and the 256 fills read every entry of
    // every table; the later blocks and the 3-byte tail add
    // state-dependent reads and the bytewise loop.
    for (unsigned v = 0; v < 256; ++v) {
        for (const std::size_t length : {8u, 16u, 27u}) {
            const std::vector<std::uint8_t> data(
                length, static_cast<std::uint8_t>(v));
            ASSERT_EQ(crc32(data.data(), length),
                      oracleCrc32(data.data(), length))
                << "fill " << v << " length " << length;
        }
    }
}

TEST(Crc32OracleTest, IncrementalSplitsAtEveryOffset)
{
    const std::vector<std::uint8_t> data = noiseBytes(64, 2);
    const std::uint32_t want = oracleCrc32(data.data(), data.size());
    // Every pair of cut points i <= j: three update() calls of
    // lengths i, j - i and 64 - j (empty pieces included).
    for (std::size_t i = 0; i <= data.size(); ++i) {
        for (std::size_t j = i; j <= data.size(); ++j) {
            Crc32 crc;
            crc.update(data.data(), i);
            crc.update(data.data() + i, j - i);
            crc.update(data.data() + j, data.size() - j);
            ASSERT_EQ(crc.value(), want) << "cuts " << i << ", " << j;
        }
    }
}

TEST(Crc32OracleTest, SingleByteUpdatesBetweenBlocks)
{
    const std::vector<std::uint8_t> data = noiseBytes(64, 3);
    for (std::size_t at = 0; at < data.size(); ++at) {
        Crc32 crc;
        crc.update(data.data(), at);
        crc.update(data[at]);
        crc.update(data.data() + at + 1, data.size() - at - 1);
        ASSERT_EQ(crc.value(), oracleCrc32(data.data(), data.size()))
            << "byte update at " << at;
    }
}

} // namespace
} // namespace confsim
