#include "metrics/bucket_stats.h"

#include <algorithm>
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
    : tallies_(num_buckets)
{
    if (num_buckets == 0)
        fatal("BucketStats requires at least one bucket");
}

void
BucketStats::recordMass(std::uint64_t bucket, bool mispredicted)
{
    BucketCounts &entry = masses_[bucket];
    entry.refs += 1.0;
    entry.mispredicts += static_cast<double>(mispredicted);
}

void
BucketStats::addWeighted(const BucketStats &other, double weight)
{
    if (other.numBuckets() != numBuckets())
        fatal("cannot merge BucketStats with different bucket spaces");
    if (masses_.empty()) {
        masses_.reserve(tallies_.size());
        for (const Tally &entry : tallies_) {
            masses_.push_back({static_cast<double>(entry.refs),
                               static_cast<double>(entry.mispredicts)});
        }
        std::vector<Tally>().swap(tallies_);
    }
    for (std::size_t b = 0; b < masses_.size(); ++b) {
        const BucketCounts add = other[b];
        masses_[b].refs += add.refs * weight;
        masses_[b].mispredicts += add.mispredicts * weight;
    }
}

double
BucketStats::totalRefs() const
{
    return masses_.empty()
               ? sumOf<std::uint64_t>(tallies_, &Tally::refs)
               : sumOf<double>(masses_, &BucketCounts::refs);
}

double
BucketStats::totalMispredicts() const
{
    return masses_.empty()
               ? sumOf<std::uint64_t>(tallies_, &Tally::mispredicts)
               : sumOf<double>(masses_, &BucketCounts::mispredicts);
}

std::vector<KeyedBucketCounts>
BucketStats::nonEmpty() const
{
    std::vector<KeyedBucketCounts> out;
    for (std::uint64_t b = 0; b < numBuckets(); ++b) {
        const BucketCounts counts = (*this)[b];
        if (counts.refs > 0.0)
            out.push_back({b, counts});
    }
    return out;
}

void
BucketStats::clear()
{
    const std::uint64_t num_buckets = numBuckets();
    std::vector<BucketCounts>().swap(masses_);
    tallies_.assign(num_buckets, Tally{});
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
    const auto listed = [](const BucketCounts &entry) {
        return entry.refs != 0.0 || entry.mispredicts != 0.0;
    };
    out.putU64(numBuckets());
    std::uint64_t non_empty = 0;
    for (std::uint64_t bucket = 0; bucket < numBuckets(); ++bucket)
        non_empty += listed((*this)[bucket]);
    out.putU64(non_empty);
    for (std::uint64_t bucket = 0; bucket < numBuckets(); ++bucket) {
        const BucketCounts entry = (*this)[bucket];
        if (!listed(entry))
            continue;
        out.putU64(bucket);
        out.putF64(entry.refs);
        out.putF64(entry.mispredicts);
    }
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
    std::vector<Tally>().swap(tallies_);
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
