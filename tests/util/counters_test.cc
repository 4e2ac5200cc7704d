/** @file Unit tests for the saturating counter. */

#include "util/saturating_counter.h"

#include <gtest/gtest.h>

namespace confsim {
namespace {

TEST(SaturatingCounterTest, SaturatesHigh)
{
    SaturatingCounter c(3, 2);
    EXPECT_EQ(c.step(true), 3u);
    EXPECT_EQ(c.step(true), 3u);
    EXPECT_TRUE(c.isMax());
}

TEST(SaturatingCounterTest, SaturatesLow)
{
    SaturatingCounter c(3, 1);
    EXPECT_EQ(c.step(false), 0u);
    EXPECT_EQ(c.step(false), 0u);
    EXPECT_TRUE(c.isMin());
}

TEST(SaturatingCounterTest, InitialValueClamped)
{
    SaturatingCounter c(3, 99);
    EXPECT_EQ(c.value(), 3u);
}

TEST(SaturatingCounterTest, TwoBitPredictionThreshold)
{
    // Standard 2-bit scheme: 0, 1 -> not taken; 2, 3 -> taken.
    SaturatingCounter c(3, 0);
    EXPECT_FALSE(c.predictsTaken());
    c.step(true);
    EXPECT_FALSE(c.predictsTaken());
    c.step(true);
    EXPECT_TRUE(c.predictsTaken());
    c.step(true);
    EXPECT_TRUE(c.predictsTaken());
}

TEST(SaturatingCounterTest, WeaklyTakenIsTaken)
{
    // "Weakly taken" init (value 2 of 0..3) must predict taken, as the
    // paper initializes its predictor tables.
    SaturatingCounter c(3, 2);
    EXPECT_TRUE(c.predictsTaken());
}

TEST(SaturatingCounterTest, SetClamps)
{
    SaturatingCounter c(16, 0);
    c.set(20);
    EXPECT_EQ(c.value(), 16u);
    c.set(5);
    EXPECT_EQ(c.value(), 5u);
}

TEST(SaturatingCounterTest, ZeroToSixteenRange)
{
    // The paper's confidence counters count 0..16.
    SaturatingCounter c(16, 0);
    for (int i = 0; i < 16; ++i)
        c.step(true);
    EXPECT_TRUE(c.isMax());
    EXPECT_EQ(c.value(), 16u);
}

TEST(SaturatingCounterTest, ByteStorageSaturatesAt255)
{
    // Value and ceiling are one byte each: 255 is the widest ceiling,
    // and the value must clamp there rather than wrap to 0.
    SaturatingCounter c(255, 250);
    for (int i = 0; i < 10; ++i)
        c.step(true);
    EXPECT_EQ(c.value(), 255u);
    EXPECT_TRUE(c.isMax());
    EXPECT_TRUE(c.predictsTaken());
    c.set(1000);
    EXPECT_EQ(c.value(), 255u);
    for (int i = 0; i < 300; ++i)
        c.step(false);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_TRUE(c.isMin());
    EXPECT_EQ(SaturatingCounter(255, 999).value(), 255u);
    EXPECT_EQ(sizeof(SaturatingCounter), 2u);
}

TEST(SaturatingCounterTest, StepMovesOneTowardItsDirectionAndSaturates)
{
    for (std::uint32_t max = 1; max <= 255; ++max) {
        for (std::uint32_t value = 0; value <= max; ++value) {
            for (const bool up : {false, true}) {
                SaturatingCounter c(max, value);
                const std::uint32_t want =
                    up ? (value == max ? max : value + 1)
                       : (value == 0 ? 0 : value - 1);
                EXPECT_EQ(c.step(up), want);
                EXPECT_EQ(c.value(), want);
            }
        }
    }
}

TEST(SaturatingCounterTest, RejectsCeilingOutsideOneByte)
{
    EXPECT_THROW(SaturatingCounter(0), std::runtime_error);
    EXPECT_THROW(SaturatingCounter(256), std::runtime_error);
    EXPECT_THROW(SaturatingCounter(1u << 20, 3), std::runtime_error);
}

} // namespace
} // namespace confsim
