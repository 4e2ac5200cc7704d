#include "metrics/bucket_stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "ckpt/state_helpers.h"

#include "util/status.h"

namespace confsim {

namespace {

/**
 * Sum one field over a bank. Integer tallies add up in 64 bits: every
 * partial sum is an integer below 2^53, so the result is the double an
 * accumulation of the converted tallies gives, bit for bit.
 */
template <typename Total, typename Entry, typename Field>
double
sumOf(const std::vector<Entry> &entries, Field Entry::*field)
{
    Total total = 0;
    for (const Entry &entry : entries)
        total += entry.*field;
    return static_cast<double>(total);
}

/** @return true iff @p v converts to a tally and back bit for bit. */
bool
isTally(double v)
{
    return v >= 0.0 && v < 4294967296.0 && v == std::floor(v) &&
           !std::signbit(v);
}

} // namespace

BucketStats::BucketStats(std::uint64_t num_buckets)
    : numBuckets_(num_buckets), tallies_(num_buckets)
{
    if (num_buckets == 0)
        fatal("BucketStats requires at least one bucket");
}

template <typename Visit>
void
BucketStats::forEachListed(Visit &&visit) const
{
    if (packed()) {
        std::size_t next = 0;
        for (std::size_t w = 0; w < present_.size(); ++w) {
            for (std::uint64_t bits = present_[w]; bits != 0;
                 bits &= bits - 1) {
                visit(w * 64 + static_cast<std::uint64_t>(
                                   std::countr_zero(bits)),
                      countsOf(packed_[next++]));
            }
        }
        return;
    }
    for (std::uint64_t bucket = 0; bucket < numBuckets_; ++bucket) {
        const BucketCounts counts = (*this)[bucket];
        if (counts.refs != 0.0 || counts.mispredicts != 0.0)
            visit(bucket, counts);
    }
}

void
BucketStats::release()
{
    std::vector<Tally>().swap(tallies_);
    std::vector<BucketCounts>().swap(masses_);
    std::vector<std::uint64_t>().swap(present_);
    std::vector<std::uint32_t>().swap(rank_);
    std::vector<Tally>().swap(packed_);
}

void
BucketStats::recordSlow(std::uint64_t bucket, bool mispredicted)
{
    if (masses_.empty()) {
        // Packed: expand back to dense tallies, then record as usual.
        std::vector<Tally> tallies(numBuckets_);
        std::size_t next = 0;
        forEachListed([&](std::uint64_t b, const BucketCounts &) {
            tallies[b] = packed_[next++];
        });
        release();
        tallies_ = std::move(tallies);
        record(bucket, mispredicted);
        return;
    }
    BucketCounts &entry = masses_[bucket];
    entry.refs += 1.0;
    entry.mispredicts += static_cast<double>(mispredicted);
}

void
BucketStats::pack()
{
    if (tallies_.empty() || numBuckets_ > (std::uint64_t{1} << 32))
        return;
    // Each presence word comes from compares and its rank from a
    // popcount, so no step branches on a tally; the copy then visits
    // only the listed buckets.
    const std::size_t words = (numBuckets_ + 63) / 64;
    std::vector<std::uint64_t> present(words);
    std::vector<std::uint32_t> rank(words);
    std::uint32_t listed = 0;
    for (std::size_t w = 0; w < words; ++w) {
        const Tally *word = tallies_.data() + w * 64;
        const std::size_t width =
            std::min<std::uint64_t>(64, numBuckets_ - w * 64);
        std::uint64_t bits = 0;
        for (std::size_t i = 0; i < width; ++i) {
            const bool touched = (word[i].refs | word[i].mispredicts) != 0;
            bits |= static_cast<std::uint64_t>(touched) << i;
        }
        present[w] = bits;
        rank[w] = listed;
        listed += static_cast<std::uint32_t>(popcount(bits));
    }
    std::vector<Tally> entries;
    entries.reserve(listed);
    for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = present[w]; bits != 0; bits &= bits - 1) {
            entries.push_back(
                tallies_[w * 64 + static_cast<std::size_t>(
                                      std::countr_zero(bits))]);
        }
    }
    release();
    present_ = std::move(present);
    rank_ = std::move(rank);
    packed_ = std::move(entries);
}

void
BucketStats::addWeighted(const BucketStats &other, double weight)
{
    if (other.numBuckets() != numBuckets())
        fatal("cannot merge BucketStats with different bucket spaces");
    if (masses_.empty()) {
        std::vector<BucketCounts> masses(numBuckets_);
        forEachListed([&](std::uint64_t bucket, const BucketCounts &counts) {
            masses[bucket] = counts;
        });
        release();
        masses_ = std::move(masses);
    }
    other.forEachListed(
        [&](std::uint64_t bucket, const BucketCounts &counts) {
            masses_[bucket].refs += counts.refs * weight;
            masses_[bucket].mispredicts += counts.mispredicts * weight;
        });
}

double
BucketStats::totalRefs() const
{
    if (!masses_.empty())
        return sumOf<double>(masses_, &BucketCounts::refs);
    return sumOf<std::uint64_t>(packed() ? packed_ : tallies_, &Tally::refs);
}

double
BucketStats::totalMispredicts() const
{
    if (!masses_.empty())
        return sumOf<double>(masses_, &BucketCounts::mispredicts);
    return sumOf<std::uint64_t>(packed() ? packed_ : tallies_,
                                &Tally::mispredicts);
}

std::vector<KeyedBucketCounts>
BucketStats::nonEmpty() const
{
    std::vector<KeyedBucketCounts> out;
    forEachListed([&](std::uint64_t bucket, const BucketCounts &counts) {
        if (counts.refs > 0.0)
            out.push_back({bucket, counts});
    });
    return out;
}

void
BucketStats::clear()
{
    release();
    tallies_.assign(numBuckets_, Tally{});
}

void
SparseBucketStats::addWeighted(const SparseBucketStats &other,
                               double weight)
{
    for (const auto &[bucket, entry] : other.counts_) {
        auto &mine = counts_[bucket];
        mine.refs += entry.refs * weight;
        mine.mispredicts += entry.mispredicts * weight;
    }
}

double
SparseBucketStats::totalRefs() const
{
    double total = 0.0;
    for (const auto &[bucket, entry] : counts_)
        total += entry.refs;
    return total;
}

double
SparseBucketStats::totalMispredicts() const
{
    double total = 0.0;
    for (const auto &[bucket, entry] : counts_)
        total += entry.mispredicts;
    return total;
}

std::vector<KeyedBucketCounts>
SparseBucketStats::nonEmpty() const
{
    std::vector<KeyedBucketCounts> out;
    out.reserve(counts_.size());
    for (const auto &[bucket, entry] : counts_)
        out.push_back({bucket, entry});
    return out;
}

EqualWeightComposite::EqualWeightComposite(std::uint64_t num_buckets)
    : composite_(num_buckets)
{}

void
EqualWeightComposite::add(const BucketStats &benchmark_stats)
{
    const double refs = benchmark_stats.totalRefs();
    if (refs <= 0.0)
        fatal("cannot composite a benchmark with zero references");
    // Scale every component to the same total dynamic-branch mass.
    constexpr double kCommonMass = 1e6;
    composite_.addWeighted(benchmark_stats, kCommonMass / refs);
}


void
BucketStats::saveState(StateWriter &out) const
{
    out.putU64(numBuckets());
    std::uint64_t listed = 0;
    forEachListed([&](std::uint64_t, const BucketCounts &) { ++listed; });
    out.putU64(listed);
    forEachListed([&](std::uint64_t bucket, const BucketCounts &counts) {
        out.putU64(bucket);
        out.putF64(counts.refs);
        out.putF64(counts.mispredicts);
    });
}

void
BucketStats::loadState(StateReader &in)
{
    const std::uint64_t num_buckets = numBuckets();
    in.expectU64(num_buckets, "bucket-space size");
    const std::uint64_t non_empty = in.getU64();
    // Each entry is 24 payload bytes, which bounds a corrupt count.
    std::vector<KeyedBucketCounts> entries;
    entries.reserve(std::min<std::uint64_t>(non_empty, in.remaining() / 24));
    bool tallies = true;
    for (std::uint64_t i = 0; i < non_empty; ++i) {
        KeyedBucketCounts entry;
        entry.bucket = in.getU64();
        if (entry.bucket >= num_buckets)
            fatal("bucket id out of range in checkpoint");
        entry.counts.refs = in.getF64();
        entry.counts.mispredicts = in.getF64();
        tallies = tallies && isTally(entry.counts.refs) &&
                  isTally(entry.counts.mispredicts);
        entries.push_back(entry);
    }

    if (tallies) {
        clear();
        for (const KeyedBucketCounts &entry : entries) {
            tallies_[entry.bucket] = {
                static_cast<std::uint32_t>(entry.counts.refs),
                static_cast<std::uint32_t>(entry.counts.mispredicts)};
        }
        return;
    }
    release();
    masses_.assign(num_buckets, BucketCounts{});
    for (const KeyedBucketCounts &entry : entries)
        masses_[entry.bucket] = entry.counts;
}

void
SparseBucketStats::saveState(StateWriter &out) const
{
    saveSortedMap(out, counts_,
                  [](StateWriter &w, const BucketCounts &entry) {
                      w.putF64(entry.refs);
                      w.putF64(entry.mispredicts);
                  });
}

void
SparseBucketStats::loadState(StateReader &in)
{
    loadMap(in, counts_, [](StateReader &r) {
        BucketCounts entry;
        entry.refs = r.getF64();
        entry.mispredicts = r.getF64();
        return entry;
    });
}

} // namespace confsim
