/** @file Unit tests for the ideal-reduction operating point. */

#include "metrics/operating_point.h"

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace confsim {
namespace {

constexpr double kFractions[] = {0.05, 0.2, 0.5};

void
expectBitEqual(const OperatingPoint &a, const OperatingPoint &b)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.coverage),
              std::bit_cast<std::uint64_t>(b.coverage));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.lowFraction),
              std::bit_cast<std::uint64_t>(b.lowFraction));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.pvn),
              std::bit_cast<std::uint64_t>(b.pvn));
}

/**
 * Dense stats with unreferenced buckets, all-correct buckets (rate-0
 * ties), buckets sharing a rate, and one dominant bucket. When the
 * dominant bucket is all correct, it holds most of the mass, so the
 * low set at 50% grows into the rate-0 buckets, where a zero-ref entry
 * would sort among them.
 */
BucketStats
randomStats(Rng &rng)
{
    const std::uint64_t num_buckets = 16 + rng.nextBelow(500);
    BucketStats stats(num_buckets);
    for (std::uint64_t b = 0; b < num_buckets; ++b) {
        const std::uint64_t kind = rng.nextBelow(10);
        if (kind < 3)
            continue; // unreferenced
        const std::uint64_t refs = 1 + rng.nextBelow(40);
        std::uint64_t misses = 0;
        if (kind == 3)
            misses = 0; // all correct
        else if (kind == 4)
            misses = refs / 2; // a shared rate of about one half
        else
            misses = rng.nextBelow(refs + 1);
        for (std::uint64_t i = 0; i < refs; ++i)
            stats.record(b, i < misses);
    }
    const std::uint64_t dominant = rng.nextBelow(num_buckets);
    const bool dominant_correct = rng.nextBelow(2) == 0;
    for (int i = 0; i < 5000; ++i)
        stats.record(dominant, !dominant_correct && i % 7 == 0);
    return stats;
}

/** @p stats' non-empty buckets, zero-ref entries added, shuffled. */
std::vector<KeyedBucketCounts>
shuffledKeyed(const BucketStats &stats, Rng &rng)
{
    std::vector<KeyedBucketCounts> keyed = stats.nonEmpty();
    for (std::uint64_t b = 0; b < stats.numBuckets(); ++b) {
        if (stats[b].refs <= 0.0)
            keyed.push_back({b, BucketCounts{}});
    }
    for (std::size_t i = keyed.size(); i > 1; --i)
        std::swap(keyed[i - 1], keyed[rng.nextBelow(i)]);
    return keyed;
}

TEST(OperatingPointTest, KeyedCountsMatchDenseStatsInAnyOrder)
{
    Rng rng(17);
    for (int trial = 0; trial < 40; ++trial) {
        const BucketStats counted = randomStats(rng);
        // Weighted masses are not integers; compositing and
        // stratified sampling score those.
        BucketStats weighted(counted.numBuckets());
        weighted.addWeighted(counted, 1.0 / 3.0);
        for (const BucketStats &stats : {counted, weighted}) {
            for (const double fraction : kFractions) {
                SCOPED_TRACE(testing::Message()
                             << "trial " << trial << ", fraction "
                             << fraction);
                const OperatingPoint dense =
                    operatingPointAt(stats, fraction);
                const OperatingPoint keyed = operatingPointAt(
                    shuffledKeyed(stats, rng), fraction);
                expectBitEqual(dense, keyed);
                EXPECT_GT(dense.coverage, 0.0);
                EXPECT_GT(dense.lowFraction, 0.0);
            }
        }
    }
}

TEST(OperatingPointTest, EmptyCountsScoreZero)
{
    const BucketStats empty(16);
    Rng rng(3);
    for (const double fraction : kFractions) {
        const OperatingPoint dense = operatingPointAt(empty, fraction);
        const OperatingPoint keyed =
            operatingPointAt(shuffledKeyed(empty, rng), fraction);
        expectBitEqual(dense, keyed);
        expectBitEqual(dense, OperatingPoint{});
        expectBitEqual(
            operatingPointAt(std::vector<KeyedBucketCounts>{}, fraction),
            OperatingPoint{});
    }
}

} // namespace
} // namespace confsim
