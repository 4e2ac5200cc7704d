/** @file Unit tests for per-bucket statistics and compositing. */

#include "metrics/bucket_stats.h"

#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/confidence_curve.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace confsim {
namespace {

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/** A double-accumulator bank, written without BucketStats. */
struct ReferenceBank
{
    std::vector<double> refs;
    std::vector<double> mispredicts;
};

/** Record the same pseudo-random stream into @p stats and a reference. */
ReferenceBank
recordStream(BucketStats &stats, std::uint64_t seed, int records)
{
    ReferenceBank ref{std::vector<double>(stats.numBuckets(), 0.0),
                      std::vector<double>(stats.numBuckets(), 0.0)};
    Rng rng(seed);
    for (int i = 0; i < records; ++i) {
        const std::uint64_t bucket = rng.nextBelow(stats.numBuckets());
        const bool mispredicted = rng.nextBernoulli(0.1);
        stats.record(bucket, mispredicted);
        ref.refs[bucket] += 1.0;
        ref.mispredicts[bucket] += static_cast<double>(mispredicted);
    }
    return ref;
}

/**
 * A bank of @p buckets in which @p touched distinct, randomly chosen
 * buckets (and the last bucket too, if @p last) each record 1-40
 * predictions.
 */
BucketStats
touchedBank(std::uint64_t buckets, std::uint64_t touched,
            std::uint64_t seed, bool last = false)
{
    BucketStats bank(buckets);
    Rng rng(seed);
    std::vector<std::uint64_t> ids(buckets);
    std::iota(ids.begin(), ids.end(), std::uint64_t{0});
    // A partial Fisher-Yates shuffle: ids[0, touched) is the subset.
    for (std::uint64_t i = 0; i < touched; ++i)
        std::swap(ids[i], ids[i + rng.nextBelow(buckets - i)]);
    if (last)
        ids.insert(ids.begin() + static_cast<std::ptrdiff_t>(touched),
                   buckets - 1);
    for (std::uint64_t i = 0; i < touched + (last ? 1 : 0); ++i) {
        const std::uint64_t records = 1 + rng.nextBelow(40);
        for (std::uint64_t r = 0; r < records; ++r)
            bank.record(ids[i], rng.nextBernoulli(0.2));
    }
    return bank;
}

/** @return @p stats packed (a copy; @p stats keeps its form). */
BucketStats
packedCopy(const BucketStats &stats)
{
    BucketStats packed = stats;
    packed.pack();
    return packed;
}

std::vector<std::uint8_t>
savedBytes(const BucketStats &stats)
{
    StateWriter out;
    stats.saveState(out);
    return out.bytes();
}

/** Every reader of @p got returns the same bits as of @p want. */
void
expectSameReads(const BucketStats &got, const BucketStats &want)
{
    ASSERT_EQ(got.numBuckets(), want.numBuckets());
    for (std::uint64_t b = 0; b < want.numBuckets(); ++b) {
        ASSERT_EQ(bitsOf(got[b].refs), bitsOf(want[b].refs)) << b;
        ASSERT_EQ(bitsOf(got[b].mispredicts), bitsOf(want[b].mispredicts))
            << b;
    }
    const std::vector<KeyedBucketCounts> got_keyed = got.nonEmpty();
    const std::vector<KeyedBucketCounts> want_keyed = want.nonEmpty();
    ASSERT_EQ(got_keyed.size(), want_keyed.size());
    for (std::size_t i = 0; i < want_keyed.size(); ++i) {
        EXPECT_EQ(got_keyed[i].bucket, want_keyed[i].bucket);
        EXPECT_EQ(bitsOf(got_keyed[i].counts.refs),
                  bitsOf(want_keyed[i].counts.refs));
        EXPECT_EQ(bitsOf(got_keyed[i].counts.mispredicts),
                  bitsOf(want_keyed[i].counts.mispredicts));
    }
    EXPECT_EQ(bitsOf(got.totalRefs()), bitsOf(want.totalRefs()));
    EXPECT_EQ(bitsOf(got.totalMispredicts()),
              bitsOf(want.totalMispredicts()));
    EXPECT_EQ(savedBytes(got), savedBytes(want));
    const ConfidenceCurve got_curve = ConfidenceCurve::fromBucketStats(got);
    const ConfidenceCurve want_curve =
        ConfidenceCurve::fromBucketStats(want);
    ASSERT_EQ(got_curve.points().size(), want_curve.points().size());
    for (std::size_t i = 0; i < want_curve.points().size(); ++i) {
        const CurvePoint &g = got_curve.points()[i];
        const CurvePoint &w = want_curve.points()[i];
        EXPECT_EQ(g.bucket, w.bucket);
        EXPECT_EQ(bitsOf(g.bucketRate), bitsOf(w.bucketRate));
        EXPECT_EQ(bitsOf(g.refFraction), bitsOf(w.refFraction));
        EXPECT_EQ(bitsOf(g.mispredFraction), bitsOf(w.mispredFraction));
    }
}

/** One packing case: a bank shape and how many buckets it touched. */
struct PackCase
{
    std::string name;
    std::uint64_t buckets;
    std::uint64_t touched;
    bool last;
};

std::vector<PackCase>
packCases()
{
    std::vector<PackCase> cases;
    // Spread over the paper's 16-bit space (about one per word), and
    // crowded into two words plus two buckets.
    for (const std::uint64_t touched : {0, 1, 63, 64, 65}) {
        cases.push_back({"sparse-" + std::to_string(touched), 65536,
                         touched, false});
        cases.push_back({"crowded-" + std::to_string(touched), 130,
                         touched, false});
    }
    cases.push_back({"every-bucket", 1000, 1000, false});
    cases.push_back({"last-bucket", 65536, 40, true});
    cases.push_back({"17-buckets", 17, 9, false});
    return cases;
}

TEST(BucketStatsTest, RecordAccumulates)
{
    BucketStats stats(4);
    stats.record(1, false);
    stats.record(1, true);
    stats.record(1, true);
    EXPECT_DOUBLE_EQ(stats[1].refs, 3.0);
    EXPECT_DOUBLE_EQ(stats[1].mispredicts, 2.0);
    EXPECT_NEAR(stats[1].rate(), 2.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats[0].refs, 0.0);
}

TEST(BucketStatsTest, Totals)
{
    BucketStats stats(4);
    stats.record(0, true);
    stats.record(1, false);
    stats.record(2, true);
    EXPECT_DOUBLE_EQ(stats.totalRefs(), 3.0);
    EXPECT_DOUBLE_EQ(stats.totalMispredicts(), 2.0);
    EXPECT_NEAR(stats.overallRate(), 2.0 / 3.0, 1e-12);
}

TEST(BucketStatsTest, EmptyRateIsZero)
{
    BucketStats stats(4);
    EXPECT_DOUBLE_EQ(stats.overallRate(), 0.0);
    EXPECT_DOUBLE_EQ(stats[2].rate(), 0.0);
}

TEST(BucketStatsTest, NonEmptySkipsUnreferencedBuckets)
{
    BucketStats stats(8);
    stats.record(3, true);
    stats.record(6, false);
    const auto keyed = stats.nonEmpty();
    ASSERT_EQ(keyed.size(), 2u);
    EXPECT_EQ(keyed[0].bucket, 3u);
    EXPECT_EQ(keyed[1].bucket, 6u);
}

TEST(BucketStatsTest, AddWeightedScales)
{
    BucketStats a(2);
    a.record(0, true);
    a.record(1, false);
    BucketStats b(2);
    b.record(0, false);
    b.addWeighted(a, 2.0);
    EXPECT_DOUBLE_EQ(b[0].refs, 3.0);
    EXPECT_DOUBLE_EQ(b[0].mispredicts, 2.0);
    EXPECT_DOUBLE_EQ(b[1].refs, 2.0);
}

TEST(BucketStatsTest, MismatchedMergeIsFatal)
{
    BucketStats a(2);
    BucketStats b(3);
    EXPECT_THROW(a.addWeighted(b, 1.0), std::runtime_error);
}

TEST(BucketStatsTest, ZeroBucketsIsFatal)
{
    EXPECT_THROW(BucketStats(0), std::runtime_error);
}

TEST(BucketStatsTest, ClearZeroes)
{
    BucketStats stats(2);
    stats.record(0, true);
    stats.clear();
    EXPECT_DOUBLE_EQ(stats.totalRefs(), 0.0);
}

TEST(BucketStatsTest, RecordedTalliesReadBackAsTheSameDoubles)
{
    BucketStats stats(64);
    const ReferenceBank ref = recordStream(stats, 7, 5000);
    EXPECT_FALSE(stats.weighted());
    double total = 0.0;
    for (std::uint64_t b = 0; b < stats.numBuckets(); ++b) {
        EXPECT_EQ(bitsOf(stats[b].refs), bitsOf(ref.refs[b]));
        EXPECT_EQ(bitsOf(stats[b].mispredicts), bitsOf(ref.mispredicts[b]));
        total += ref.refs[b];
    }
    EXPECT_EQ(bitsOf(stats.totalRefs()), bitsOf(total));
}

TEST(BucketStatsTest, AddWeightedIntoARecordedBankKeepsItsCounts)
{
    BucketStats bank(3);
    bank.record(0, true);
    bank.record(0, false);
    bank.record(2, false);
    BucketStats other(3);
    other.record(0, true);
    other.record(1, true);
    bank.addWeighted(other, 0.3);
    EXPECT_TRUE(bank.weighted());
    EXPECT_FALSE(other.weighted());
    EXPECT_EQ(bitsOf(bank[0].refs), bitsOf(2.0 + 1.0 * 0.3));
    EXPECT_EQ(bitsOf(bank[0].mispredicts), bitsOf(1.0 + 1.0 * 0.3));
    EXPECT_EQ(bitsOf(bank[1].refs), bitsOf(0.0 + 1.0 * 0.3));
    EXPECT_EQ(bitsOf(bank[2].refs), bitsOf(1.0 + 0.0 * 0.3));
    // Recording into a weighted bank adds whole counts to its masses.
    bank.record(1, false);
    EXPECT_EQ(bitsOf(bank[1].refs), bitsOf(0.3 + 1.0));
}

TEST(BucketStatsTest, ClearReturnsAWeightedBankToCounts)
{
    BucketStats bank(2);
    BucketStats other(2);
    other.record(1, true);
    bank.addWeighted(other, 0.5);
    ASSERT_TRUE(bank.weighted());
    bank.clear();
    EXPECT_FALSE(bank.weighted());
    EXPECT_EQ(bank.numBuckets(), 2u);
    EXPECT_DOUBLE_EQ(bank.totalRefs(), 0.0);
    bank.record(1, true);
    EXPECT_DOUBLE_EQ(bank[1].refs, 1.0);
    EXPECT_DOUBLE_EQ(bank[1].mispredicts, 1.0);
}

TEST(BucketStatsTest, SavedTalliesKeepTheDoubleEncoding)
{
    BucketStats stats(8);
    stats.record(5, true);
    stats.record(5, false);
    stats.record(1, false);
    StateWriter expected;
    expected.putU64(8);
    expected.putU64(2);
    expected.putU64(1);
    expected.putF64(1.0);
    expected.putF64(0.0);
    expected.putU64(5);
    expected.putF64(2.0);
    expected.putF64(1.0);
    StateWriter out;
    stats.saveState(out);
    EXPECT_EQ(out.bytes(), expected.bytes());
}

TEST(BucketStatsTest, IntegralPayloadRestoresToTallies)
{
    StateWriter payload;
    payload.putU64(4);
    payload.putU64(2);
    payload.putU64(0);
    payload.putF64(4294967295.0); // the largest tally
    payload.putF64(3.0);
    payload.putU64(3);
    payload.putF64(7.0);
    payload.putF64(0.0);
    BucketStats stats(4);
    stats.addWeighted(stats, 1.0); // start from the other form
    StateReader in(payload.bytes());
    stats.loadState(in);
    EXPECT_TRUE(in.atEnd());
    EXPECT_FALSE(stats.weighted());
    EXPECT_DOUBLE_EQ(stats[0].refs, 4294967295.0);
    EXPECT_DOUBLE_EQ(stats[0].mispredicts, 3.0);
    EXPECT_DOUBLE_EQ(stats[3].refs, 7.0);
    EXPECT_DOUBLE_EQ(stats[1].refs, 0.0);
    StateWriter again;
    stats.saveState(again);
    EXPECT_EQ(again.bytes(), payload.bytes());
}

TEST(BucketStatsTest, NonIntegralPayloadRestoresToDoubles)
{
    // A mass too large for a tally, and one negative zero.
    for (const double odd : {2.5, 4294967296.0, -0.0}) {
        StateWriter payload;
        payload.putU64(2);
        payload.putU64(1);
        payload.putU64(1);
        payload.putF64(odd);
        payload.putF64(1.0);
        BucketStats stats(2);
        StateReader in(payload.bytes());
        stats.loadState(in);
        EXPECT_TRUE(stats.weighted()) << odd;
        EXPECT_EQ(bitsOf(stats[1].refs), bitsOf(odd));
        StateWriter again;
        stats.saveState(again);
        EXPECT_EQ(again.bytes(), payload.bytes()) << odd;
    }
}

TEST(BucketStatsTest, CompositePayloadRoundTripsBitExactly)
{
    BucketStats a(16);
    recordStream(a, 3, 900);
    EqualWeightComposite composite(16);
    composite.add(a);
    StateWriter out;
    composite.result().saveState(out);
    BucketStats restored(16);
    StateReader in(out.bytes());
    restored.loadState(in);
    EXPECT_TRUE(restored.weighted());
    for (std::uint64_t b = 0; b < 16; ++b) {
        EXPECT_EQ(bitsOf(restored[b].refs),
                  bitsOf(composite.result()[b].refs));
        EXPECT_EQ(bitsOf(restored[b].mispredicts),
                  bitsOf(composite.result()[b].mispredicts));
    }
}

TEST(BucketStatsTest, OutOfRangeBucketInPayloadIsFatal)
{
    StateWriter payload;
    payload.putU64(2);
    payload.putU64(1);
    payload.putU64(2);
    payload.putF64(1.0);
    payload.putF64(0.0);
    BucketStats stats(2);
    StateReader in(payload.bytes());
    EXPECT_THROW(stats.loadState(in), std::runtime_error);
}

/**
 * The packed form, built bucket by bucket: a presence bit per listed
 * bucket, the listed count before each 64-bucket word, and the listed
 * buckets' counts in bucket order.
 */
struct ReferencePack
{
    std::vector<std::uint64_t> present;
    std::vector<std::uint64_t> rank;
    std::vector<BucketCounts> entries;

    explicit ReferencePack(const BucketStats &dense)
        : present((dense.numBuckets() + 63) / 64),
          rank(present.size())
    {
        for (std::uint64_t b = 0; b < dense.numBuckets(); ++b) {
            if (b % 64 == 0)
                rank[b / 64] = entries.size();
            const BucketCounts counts = dense[b];
            if (counts.refs != 0.0 || counts.mispredicts != 0.0) {
                present[b / 64] |= std::uint64_t{1} << (b % 64);
                entries.push_back(counts);
            }
        }
    }

    /** @return bucket @p b's counts, read through the pack. */
    BucketCounts
    operator[](std::uint64_t b) const
    {
        const std::uint64_t word = present[b / 64];
        if ((word >> (b % 64) & 1) == 0)
            return {};
        std::uint64_t before = 0;
        for (std::uint64_t i = 0; i < b % 64; ++i)
            before += word >> i & 1;
        return entries[rank[b / 64] + before];
    }
};

TEST(BucketStatsTest, PackMatchesAScalarReferencePack)
{
    std::vector<std::pair<std::string, BucketStats>> banks;
    banks.emplace_back("empty", BucketStats(65536));
    banks.emplace_back("full", touchedBank(65536, 65536, 21));
    BucketStats alternating(65536);
    for (std::uint64_t b = 0; b < 65536; b += 2) {
        for (std::uint64_t r = 0; r < 1 + b % 5; ++r)
            alternating.record(b, r % 3 == 0);
    }
    banks.emplace_back("alternating", std::move(alternating));
    banks.emplace_back("17-buckets", touchedBank(17, 9, 22, true));
    for (const auto &[name, dense] : banks) {
        SCOPED_TRACE(name);
        const ReferencePack reference(dense);
        const BucketStats packed = packedCopy(dense);
        ASSERT_TRUE(packed.packed());
        for (std::uint64_t b = 0; b < dense.numBuckets(); ++b) {
            ASSERT_EQ(bitsOf(packed[b].refs), bitsOf(reference[b].refs))
                << b;
            ASSERT_EQ(bitsOf(packed[b].mispredicts),
                      bitsOf(reference[b].mispredicts))
                << b;
        }
        const std::vector<KeyedBucketCounts> listed = packed.nonEmpty();
        ASSERT_EQ(listed.size(), reference.entries.size());
        for (std::size_t i = 0; i < listed.size(); ++i) {
            EXPECT_EQ(bitsOf(listed[i].counts.refs),
                      bitsOf(reference.entries[i].refs));
            EXPECT_EQ(bitsOf(listed[i].counts.mispredicts),
                      bitsOf(reference.entries[i].mispredicts));
        }
        expectSameReads(packed, dense);
    }
}

TEST(PackedBucketStatsTest, EveryReaderSeesTheDenseBank)
{
    std::uint64_t seed = 100;
    for (const PackCase &c : packCases()) {
        SCOPED_TRACE(c.name);
        const BucketStats dense = touchedBank(c.buckets, c.touched, ++seed,
                                              c.last);
        const BucketStats packed = packedCopy(dense);
        EXPECT_FALSE(dense.packed());
        EXPECT_TRUE(packed.packed());
        EXPECT_FALSE(packed.weighted());
        expectSameReads(packed, dense);
    }
}

TEST(PackedBucketStatsTest, CompositeOverPackedInputsEqualsDense)
{
    for (const std::uint64_t buckets : {std::uint64_t{65536},
                                        std::uint64_t{17}}) {
        SCOPED_TRACE(buckets);
        std::vector<BucketStats> dense;
        for (std::uint64_t i = 0; i < 3; ++i)
            dense.push_back(touchedBank(buckets, buckets / (2 + i), 7 + i));
        EqualWeightComposite from_dense(buckets);
        EqualWeightComposite from_packed(buckets);
        for (const BucketStats &bank : dense) {
            from_dense.add(bank);
            from_packed.add(packedCopy(bank));
        }
        EXPECT_TRUE(from_packed.result().weighted());
        expectSameReads(from_packed.result(), from_dense.result());
    }
}

TEST(PackedBucketStatsTest, RecordIntoAPackedBankExpandsIt)
{
    BucketStats dense = touchedBank(300, 65, 5);
    BucketStats packed = packedCopy(dense);
    const std::vector<KeyedBucketCounts> touched = dense.nonEmpty();
    // Into a touched bucket, an untouched one and the last one.
    for (const std::uint64_t bucket :
         {touched.front().bucket, touched.back().bucket + 1,
          std::uint64_t{299}}) {
        dense.record(bucket, true);
        packed.record(bucket, true);
    }
    EXPECT_FALSE(packed.packed());
    EXPECT_FALSE(packed.weighted());
    expectSameReads(packed, dense);
    packed.record(7, false); // dense tallies again: the fast path
    dense.record(7, false);
    expectSameReads(packed, dense);
}

TEST(PackedBucketStatsTest, AddWeightedIntoAPackedBankEqualsDense)
{
    const BucketStats other = touchedBank(200, 70, 9);
    for (const bool other_packed : {false, true}) {
        SCOPED_TRACE(other_packed);
        BucketStats dense = touchedBank(200, 64, 8);
        BucketStats packed = packedCopy(dense);
        const BucketStats &source = other_packed ? packedCopy(other) : other;
        dense.addWeighted(other, 0.3);
        packed.addWeighted(source, 0.3);
        EXPECT_FALSE(packed.packed());
        EXPECT_TRUE(packed.weighted());
        expectSameReads(packed, dense);
    }
}

TEST(PackedBucketStatsTest, ClearReturnsAPackedBankToDenseTallies)
{
    BucketStats packed = packedCopy(touchedBank(130, 65, 4));
    packed.clear();
    EXPECT_FALSE(packed.packed());
    EXPECT_FALSE(packed.weighted());
    expectSameReads(packed, BucketStats(130));
    packed.record(129, true);
    EXPECT_DOUBLE_EQ(packed[129].mispredicts, 1.0);
}

TEST(PackedBucketStatsTest, PackLeavesOtherFormsAlone)
{
    BucketStats composite(64);
    composite.addWeighted(touchedBank(64, 10, 3), 0.5);
    const std::vector<std::uint8_t> before = savedBytes(composite);
    composite.pack();
    EXPECT_TRUE(composite.weighted());
    EXPECT_FALSE(composite.packed());
    EXPECT_EQ(savedBytes(composite), before);

    BucketStats packed = packedCopy(touchedBank(64, 10, 3));
    const std::vector<std::uint8_t> packed_bytes = savedBytes(packed);
    packed.pack();
    EXPECT_TRUE(packed.packed());
    EXPECT_EQ(savedBytes(packed), packed_bytes);
}

TEST(PackedBucketStatsTest, PackedPayloadRestoresToDenseTallies)
{
    const BucketStats dense = touchedBank(65536, 65, 12, true);
    const BucketStats packed = packedCopy(dense);
    BucketStats restored(65536);
    const std::vector<std::uint8_t> bytes = savedBytes(packed);
    StateReader in(bytes);
    restored.loadState(in);
    EXPECT_TRUE(in.atEnd());
    EXPECT_FALSE(restored.packed());
    EXPECT_FALSE(restored.weighted());
    expectSameReads(restored, dense);
}

TEST(SparseBucketStatsTest, RecordAndAggregate)
{
    SparseBucketStats stats;
    stats.record(0xDEADBEEF, true);
    stats.record(0xDEADBEEF, false);
    stats.recordAggregate(0x42, 10.0, 3.0);
    EXPECT_EQ(stats.size(), 2u);
    EXPECT_DOUBLE_EQ(stats.totalRefs(), 12.0);
    EXPECT_DOUBLE_EQ(stats.totalMispredicts(), 4.0);
}

TEST(SparseBucketStatsTest, AddWeighted)
{
    SparseBucketStats a;
    a.recordAggregate(1, 100.0, 10.0);
    SparseBucketStats b;
    b.recordAggregate(1, 1.0, 1.0);
    b.recordAggregate(2, 5.0, 0.0);
    a.addWeighted(b, 10.0);
    EXPECT_DOUBLE_EQ(a.totalRefs(), 100.0 + 10.0 + 50.0);
    EXPECT_DOUBLE_EQ(a.totalMispredicts(), 10.0 + 10.0);
    EXPECT_EQ(a.size(), 2u);
}

/** @return the bytes a hex string spells. */
std::vector<std::uint8_t>
fromHex(const std::string &hex)
{
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(static_cast<std::uint8_t>(
            std::stoul(hex.substr(i, 2), nullptr, 16)));
    return out;
}

std::vector<std::uint8_t>
savedBytes(const SparseBucketStats &stats)
{
    StateWriter out;
    stats.saveState(out);
    return out.bytes();
}

/** Every key's counts, keyed for comparison. */
std::map<std::uint64_t, std::pair<double, double>>
keyedCounts(const SparseBucketStats &stats)
{
    std::map<std::uint64_t, std::pair<double, double>> out;
    for (const KeyedBucketCounts &entry : stats.nonEmpty()) {
        EXPECT_TRUE(out.emplace(entry.bucket,
                                std::make_pair(entry.counts.refs,
                                               entry.counts.mispredicts))
                        .second)
            << "key " << entry.bucket << " listed twice";
    }
    return out;
}

/**
 * Recorded from the unordered_map implementation this table replaced:
 * the sorted-key payload of a few keys, among them 0 and a
 * benchmark-tagged PC.
 */
TEST(SparseBucketStatsTest, SaveStateBytesArePinned)
{
    SparseBucketStats stats;
    stats.record(0xDEADBEEF, true);
    stats.record(0xDEADBEEF, false);
    stats.recordAggregate(0x42, 10.0, 3.0);
    stats.recordAggregate((std::uint64_t{3} << 48) | 0x400100, 0.5, 0.25);
    stats.record(0, false);
    EXPECT_EQ(savedBytes(stats),
              fromHex("0400000000000000"
                      "0000000000000000000000000000f03f0000000000000000"
                      "420000000000000000000000000024400000000000000840"
                      "efbeadde000000000000000000000040000000000000f03f"
                      "0001400000000300000000000000e03f000000000000d03f"));
}

/** 5,000 keys grow the index from 64 to 16,384 buckets. */
TEST(SparseBucketStatsTest, GrowsThroughSeveralRehashes)
{
    SparseBucketStats stats;
    std::vector<std::uint64_t> keys;
    std::uint64_t x = 12345;
    for (int i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        keys.push_back(x);
        for (std::uint64_t r = 0; r <= x % 7; ++r)
            stats.record(x, x % 3 == 0);
    }
    EXPECT_EQ(stats.size(), 5000u);
    EXPECT_EQ(stats.totalRefs(), 19721.0);
    EXPECT_EQ(stats.totalMispredicts(), 6612.0);
    // Size and CRC of the payload the unordered_map implementation
    // wrote for the same records.
    const std::vector<std::uint8_t> bytes = savedBytes(stats);
    EXPECT_EQ(bytes.size(), 120'008u);
    EXPECT_EQ(crc32(bytes.data(), bytes.size()), 0x9DA4B11Du);

    // Every key is found again after the last rehash: one more
    // record each adds no key and one reference.
    const auto before = keyedCounts(stats);
    for (const std::uint64_t key : keys)
        stats.record(key, false);
    EXPECT_EQ(stats.size(), 5000u);
    const auto after = keyedCounts(stats);
    ASSERT_EQ(after.size(), before.size());
    for (const auto &[key, counts] : before) {
        EXPECT_EQ(after.at(key).first, counts.first + 1.0) << key;
        EXPECT_EQ(after.at(key).second, counts.second) << key;
    }
}

TEST(SparseBucketStatsTest, LookupsAfterEachRehashFindEveryKey)
{
    // Keys shaped like the suite's tagged PCs, plus the extremes.
    std::vector<std::uint64_t> keys = {0, ~std::uint64_t{0}};
    for (std::uint64_t i = 0; i < 300; ++i)
        keys.push_back(((i % 9) << 48) | (0x400000 + 4 * i));
    SparseBucketStats stats;
    std::map<std::uint64_t, std::pair<double, double>> want;
    for (std::size_t n = 0; n < keys.size(); ++n) {
        const double refs = static_cast<double>(n + 1);
        stats.recordAggregate(keys[n], refs, 1.0);
        want[keys[n]] = {refs, 1.0};
        // Past 32, 64, 128 and 256 keys the index doubles; every key
        // so far must still resolve to its own entry.
        if (n == 32 || n == 64 || n == 128 || n == 256) {
            for (std::size_t k = 0; k <= n; ++k)
                stats.recordAggregate(keys[k], 0.0, 0.0);
            EXPECT_EQ(stats.size(), n + 1);
            EXPECT_EQ(keyedCounts(stats), want) << "after " << n + 1;
        }
    }
    EXPECT_EQ(keyedCounts(stats), want);
}

TEST(SparseBucketStatsTest, NonEmptyListsKeysInFirstSeenOrder)
{
    SparseBucketStats stats;
    const std::vector<std::uint64_t> keys = {900, 3, 0x7FFF'0000'0000, 42};
    for (const std::uint64_t key : keys)
        stats.record(key, false);
    stats.record(3, true);
    std::vector<std::uint64_t> listed;
    for (const KeyedBucketCounts &entry : stats.nonEmpty())
        listed.push_back(entry.bucket);
    EXPECT_EQ(listed, keys);
}

/**
 * The suite composite: each benchmark's keys carry its own tag, so
 * every composite entry is one product. Bytes recorded from the
 * unordered_map implementation.
 */
TEST(SparseBucketStatsTest, AddWeightedOverDisjointKeys)
{
    SparseBucketStats a;
    a.recordAggregate(0x100, 3.0, 1.0);
    a.recordAggregate(0x104, 7.0, 0.0);
    SparseBucketStats b;
    b.recordAggregate((std::uint64_t{1} << 48) | 0x100, 5.0, 5.0);
    SparseBucketStats composite;
    composite.addWeighted(a, 1e6 / 10.0);
    composite.addWeighted(b, 1e6 / 5.0);
    EXPECT_EQ(composite.size(), 3u);
    EXPECT_EQ(savedBytes(composite),
              fromHex("0300000000000000"
                      "000100000000000000000000804f124100000000006af840"
                      "040100000000000000000000c05c25410000000000000000"
                      "00010000000001000000000080842e410000000080842e41"));
}

TEST(SparseBucketStatsTest, LoadStateRestoresTheSameBytes)
{
    SparseBucketStats stats;
    for (std::uint64_t i = 0; i < 200; ++i)
        stats.recordAggregate(i * 0x1000'0001ull, 1.0 + i, 0.5 * i);
    const std::vector<std::uint8_t> bytes = savedBytes(stats);
    SparseBucketStats restored;
    restored.record(7, true); // replaced by the restore
    StateReader in(bytes);
    restored.loadState(in);
    EXPECT_TRUE(in.atEnd());
    EXPECT_EQ(restored.size(), 200u);
    EXPECT_EQ(savedBytes(restored), bytes);
    EXPECT_EQ(keyedCounts(restored), keyedCounts(stats));
}

TEST(EqualWeightCompositeTest, EachComponentContributesEqualMass)
{
    // Benchmark A: 100 branches, all in bucket 0, 10% misses.
    BucketStats a(2);
    for (int i = 0; i < 100; ++i)
        a.record(0, i < 10);
    // Benchmark B: 10000 branches, all in bucket 1, 1% misses.
    BucketStats b(2);
    for (int i = 0; i < 10000; ++i)
        b.record(1, i < 100);

    EqualWeightComposite composite(2);
    composite.add(a);
    composite.add(b);
    const BucketStats &out = composite.result();
    // Despite B having 100x the raw branches, both buckets carry the
    // same reference mass.
    EXPECT_NEAR(out[0].refs, out[1].refs, 1e-6);
    // Rates are preserved per component.
    EXPECT_NEAR(out[0].rate(), 0.10, 1e-12);
    EXPECT_NEAR(out[1].rate(), 0.01, 1e-12);
    // Composite rate = average of the two rates (the paper's
    // equal-weight averaging).
    EXPECT_NEAR(out.overallRate(), 0.055, 1e-9);
}

TEST(EqualWeightCompositeTest, MatchesADoubleAccumulatorBitForBit)
{
    constexpr std::uint64_t kBuckets = 256;
    std::vector<BucketStats> banks;
    std::vector<ReferenceBank> refs;
    const int records[] = {4000, 25000, 700};
    for (std::uint64_t i = 0; i < 3; ++i) {
        banks.emplace_back(kBuckets);
        refs.push_back(recordStream(banks.back(), 11 + i, records[i]));
    }

    // Section 1.2's rule over the doubles the old accumulator held:
    // each benchmark scaled to a total mass of 1e6, summed in order.
    std::vector<double> want_refs(kBuckets, 0.0);
    std::vector<double> want_misses(kBuckets, 0.0);
    for (const ReferenceBank &ref : refs) {
        double total = 0.0;
        for (const double r : ref.refs)
            total += r;
        const double weight = 1e6 / total;
        for (std::uint64_t b = 0; b < kBuckets; ++b) {
            want_refs[b] += ref.refs[b] * weight;
            want_misses[b] += ref.mispredicts[b] * weight;
        }
    }

    EqualWeightComposite composite(kBuckets);
    for (const BucketStats &bank : banks)
        composite.add(bank);
    const BucketStats out = std::move(composite).result();
    EXPECT_TRUE(out.weighted());
    for (std::uint64_t b = 0; b < kBuckets; ++b) {
        EXPECT_EQ(bitsOf(out[b].refs), bitsOf(want_refs[b])) << b;
        EXPECT_EQ(bitsOf(out[b].mispredicts), bitsOf(want_misses[b])) << b;
    }
}

TEST(EqualWeightCompositeTest, EmptyComponentIsFatal)
{
    EqualWeightComposite composite(2);
    BucketStats empty(2);
    EXPECT_THROW(composite.add(empty), std::runtime_error);
}

} // namespace
} // namespace confsim
