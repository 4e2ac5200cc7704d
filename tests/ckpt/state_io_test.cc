/**
 * @file
 * StateWriter/StateReader round-trip and integrity-guard tests: every
 * scalar type survives a round trip bit-exactly, truncated buffers are
 * rejected, and expectU64 guards fire on mismatch.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "ckpt/state_io.h"

namespace confsim {
namespace {

TEST(StateIoTest, ScalarsRoundTrip)
{
    StateWriter out;
    out.putU8(0xAB);
    out.putU16(0xBEEF);
    out.putU32(0xDEADBEEFu);
    out.putU64(0x0123456789ABCDEFull);
    out.putBool(true);
    out.putBool(false);
    out.putString("hello, checkpoint");
    out.putString("");

    StateReader in(out.bytes());
    EXPECT_EQ(in.getU8(), 0xAB);
    EXPECT_EQ(in.getU16(), 0xBEEF);
    EXPECT_EQ(in.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(in.getU64(), 0x0123456789ABCDEFull);
    EXPECT_TRUE(in.getBool());
    EXPECT_FALSE(in.getBool());
    EXPECT_EQ(in.getString(), "hello, checkpoint");
    EXPECT_EQ(in.getString(), "");
    EXPECT_TRUE(in.atEnd());
}

TEST(StateIoTest, DoublesRoundTripBitExactly)
{
    const double values[] = {0.0,
                             -0.0,
                             1.0 / 3.0,
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
    StateWriter out;
    for (const double v : values)
        out.putF64(v);
    StateReader in(out.bytes());
    for (const double v : values) {
        const double got = in.getF64();
        std::uint64_t want_bits = 0;
        std::uint64_t got_bits = 0;
        std::memcpy(&want_bits, &v, sizeof v);
        std::memcpy(&got_bits, &got, sizeof got);
        EXPECT_EQ(got_bits, want_bits);
    }
    EXPECT_TRUE(in.atEnd());
}

TEST(StateIoTest, LittleEndianEncoding)
{
    StateWriter out;
    out.putU32(0x01020304u);
    ASSERT_EQ(out.bytes().size(), 4u);
    EXPECT_EQ(out.bytes()[0], 0x04);
    EXPECT_EQ(out.bytes()[1], 0x03);
    EXPECT_EQ(out.bytes()[2], 0x02);
    EXPECT_EQ(out.bytes()[3], 0x01);
}

TEST(StateIoTest, EveryWidthIsLittleEndian)
{
    StateWriter out;
    out.putU16(0x0102u);
    out.putU64(0x0102030405060708ull);
    const std::vector<std::uint8_t> want = {0x02, 0x01, 0x08, 0x07,
                                            0x06, 0x05, 0x04, 0x03,
                                            0x02, 0x01};
    EXPECT_EQ(out.bytes(), want);

    StateReader in(out.bytes());
    EXPECT_EQ(in.getU16(), 0x0102u);
    // A value that does not fit fails before consuming any of it.
    StateReader truncated(out.bytes().data() + 2, 7);
    EXPECT_THROW(truncated.getU64(), std::runtime_error);
    EXPECT_EQ(truncated.remaining(), 7u);
    EXPECT_EQ(in.getU64(), 0x0102030405060708ull);
    EXPECT_TRUE(in.atEnd());
}

TEST(StateIoTest, TruncatedBufferThrows)
{
    StateWriter out;
    out.putU32(42);
    StateReader in(out.bytes());
    EXPECT_THROW(in.getU64(), std::runtime_error);
}

TEST(StateIoTest, ExpectU64GuardsMismatch)
{
    StateWriter out;
    out.putU64(16);
    {
        StateReader in(out.bytes());
        EXPECT_NO_THROW(in.expectU64(16, "table size"));
    }
    {
        StateReader in(out.bytes());
        EXPECT_THROW(in.expectU64(32, "table size"),
                     std::runtime_error);
    }
}

TEST(StateIoTest, TakeMovesBufferOut)
{
    StateWriter out;
    out.putU16(7);
    const std::vector<std::uint8_t> bytes = out.take();
    EXPECT_EQ(bytes.size(), 2u);
}

} // namespace
} // namespace confsim
