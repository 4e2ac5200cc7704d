/**
 * @file
 * Per-bucket prediction statistics.
 *
 * The paper's entire evaluation methodology reduces to: for every bucket
 * a confidence mechanism can emit (CIR pattern, counter value, static
 * branch), count how often the bucket was read and how many of those
 * predictions were wrong; then sort buckets by misprediction rate. This
 * file provides the accumulators, including the equal-dynamic-branch
 * weighting used to composite benchmarks (Section 1.2: results are
 * averaged "so that each benchmark, in effect, executes the same number
 * of conditional branches").
 *
 * A bank that record() fills holds each bucket as two 4-byte integer
 * tallies (8 B a bucket); a finished bank keeps the tallies of only the
 * buckets it touched; a bank that addWeighted() has written into, a
 * composite, holds two doubles. Readers see doubles in every form, and
 * a tally converts to exactly the double an accumulator of 1.0
 * increments would hold, so the form never changes a result.
 */

#ifndef CONFSIM_METRICS_BUCKET_STATS_H
#define CONFSIM_METRICS_BUCKET_STATS_H

#include <cstdint>
#include <utility>
#include <vector>

#include "ckpt/state_io.h"
#include "util/bits.h"
#include "util/flat_map.h"

namespace confsim {

/** References and mispredictions attributed to one bucket. */
struct BucketCounts
{
    double refs = 0.0;
    double mispredicts = 0.0;

    /** @return misprediction rate (0 for an unreferenced bucket). */
    double
    rate() const
    {
        return refs <= 0.0 ? 0.0 : mispredicts / refs;
    }
};

/** A (bucket id, counts) pair; the unit curve construction consumes. */
struct KeyedBucketCounts
{
    std::uint64_t bucket = 0;
    BucketCounts counts;
};

/**
 * Dense accumulator for estimators with a bounded bucket space.
 *
 * Its form follows from how it was filled:
 *  - dense tallies while record() writes it: two uint32_t per bucket;
 *  - packed tallies once pack() has run (the replay kernel packs every
 *    bank it hands over): one presence bit per bucket, the count of
 *    listed buckets before each 64-bucket word, and the listed
 *    buckets' tallies in bucket order, so a bank that touched 1 in 8
 *    of its buckets takes 15% of the dense bytes;
 *  - dense doubles once addWeighted() has written it (a composite).
 *
 * Every reader works on every form. record() or addWeighted() into a
 * packed bank first expands it to dense tallies, and clear() returns
 * any bank to them. A tally holds at most 2^32 - 1; the replay kernel
 * refuses a run before any of its banks could record more branches
 * than that (ReplayKernel::replay).
 */
class BucketStats
{
  public:
    /** @param num_buckets One past the largest bucket id. */
    explicit BucketStats(std::uint64_t num_buckets);

    /**
     * Record one prediction in @p bucket. Adds the flag rather than
     * branching on it: the host does not branch on the simulated
     * outcome.
     */
    void
    record(std::uint64_t bucket, bool mispredicted)
    {
        if (tallies_.empty()) [[unlikely]] {
            recordSlow(bucket, mispredicted);
            return;
        }
        Tally &entry = tallies_[bucket];
        ++entry.refs;
        entry.mispredicts += mispredicted;
    }

    /**
     * Merge @p other scaled by @p weight (for compositing). This bank
     * holds doubles from here on. Only @p other's listed buckets are
     * read: an untouched one would add 0 * weight, which changes no
     * mass but -0.0 (for a finite weight).
     */
    void addWeighted(const BucketStats &other, double weight);

    /** @return counts of bucket @p bucket. */
    BucketCounts
    operator[](std::uint64_t bucket) const
    {
        if (!tallies_.empty())
            return countsOf(tallies_[bucket]);
        if (!masses_.empty())
            return masses_[bucket];
        const std::uint64_t word = present_[bucket / 64];
        const std::uint64_t bit = std::uint64_t{1} << (bucket % 64);
        if ((word & bit) == 0)
            return {};
        return countsOf(packed_[rank_[bucket / 64] +
                                popcount(word & (bit - 1))]);
    }

    /** @return bucket-space size. */
    std::uint64_t numBuckets() const { return numBuckets_; }

    /** @return true iff the bank holds doubles (addWeighted() wrote it). */
    bool weighted() const { return !masses_.empty(); }

    /**
     * Keep only the listed buckets' tallies: those with a non-zero
     * count, which are the ones saveState() writes. A no-op unless the
     * bank holds dense tallies (and on a bank of more than 2^32
     * buckets, whose word ranks would not fit 32 bits).
     */
    void pack();

    /** @return true iff the bank holds packed tallies (pack() ran). */
    bool packed() const { return !present_.empty(); }

    /** @return sum of refs over all buckets. */
    double totalRefs() const;

    /** @return sum of mispredictions over all buckets. */
    double totalMispredicts() const;

    /** @return overall misprediction rate. */
    double
    overallRate() const
    {
        const double refs = totalRefs();
        return refs <= 0.0 ? 0.0 : totalMispredicts() / refs;
    }

    /** @return all non-empty buckets with their ids. */
    std::vector<KeyedBucketCounts> nonEmpty() const;

    /** Zero all counts; the bank holds dense tallies again. */
    void clear();

    /**
     * Checkpoint the accumulated counts. Sparse encoding (only
     * non-empty buckets) with the bucket-space size as a guard; every
     * count travels as a double's bit pattern, so restores are
     * bit-exact in every form.
     */
    void saveState(StateWriter &out) const;

    /**
     * Restore a saveState() snapshot into a same-sized stats. A
     * snapshot whose counts are all integers below 2^32 restores to
     * dense tallies; any other (a composite's) restores to doubles.
     */
    void loadState(StateReader &in);

  private:
    /** One bucket of a bank record() fills. */
    struct Tally
    {
        std::uint32_t refs = 0;
        std::uint32_t mispredicts = 0;
    };

    static BucketCounts
    countsOf(Tally entry)
    {
        return {static_cast<double>(entry.refs),
                static_cast<double>(entry.mispredicts)};
    }

    void recordSlow(std::uint64_t bucket, bool mispredicted);

    /** Call @p visit(bucket, counts) on each listed bucket, in order. */
    template <typename Visit> void forEachListed(Visit &&visit) const;

    /** Free every form's storage (the bank is then in no form). */
    void release();

    std::uint64_t numBuckets_;
    /** Exactly one form is held: tallies_ sized (dense tallies),
     *  masses_ sized (doubles), or present_ sized (packed). */
    std::vector<Tally> tallies_;
    std::vector<BucketCounts> masses_;
    /** Packed: bit b % 64 of word b / 64 is set iff bucket b is listed. */
    std::vector<std::uint64_t> present_;
    /** Packed: listed buckets before each word of present_. */
    std::vector<std::uint32_t> rank_;
    /** Packed: the listed buckets' tallies, in bucket order. */
    std::vector<Tally> packed_;
};

/**
 * Sparse accumulator for unbounded keys (per-PC static profiling), on
 * the flat map the static branch profile uses.
 */
class SparseBucketStats
{
  public:
    /** Record one prediction in @p bucket (as BucketStats::record). */
    void
    record(std::uint64_t bucket, bool mispredicted)
    {
        auto &entry = counts_[bucket];
        entry.refs += 1.0;
        entry.mispredicts += static_cast<double>(mispredicted);
    }

    /** Add pre-aggregated counts to @p bucket. */
    void
    recordAggregate(std::uint64_t bucket, double refs, double mispredicts)
    {
        auto &entry = counts_[bucket];
        entry.refs += refs;
        entry.mispredicts += mispredicts;
    }

    /** Merge @p other scaled by @p weight. */
    void addWeighted(const SparseBucketStats &other, double weight);

    /** @return number of distinct buckets seen. */
    std::size_t size() const { return counts_.size(); }

    double totalRefs() const;
    double totalMispredicts() const;

    /** @return all buckets with their ids, in first-seen order. */
    std::vector<KeyedBucketCounts> nonEmpty() const;

    void clear() { counts_.clear(); }

    /** Checkpoint the accumulated counts (sorted-key encoding). */
    void saveState(StateWriter &out) const;

    /** Restore a saveState() snapshot, replacing current counts. */
    void loadState(StateReader &in);

  private:
    FlatMap<BucketCounts> counts_;
};

/**
 * Equal-weight compositor: give each added component the same total
 * reference mass (Section 1.2's averaging rule). Works for both dense
 * stats (same bucket space) and keyed lists.
 */
class EqualWeightComposite
{
  public:
    /** @param num_buckets Bucket-space size of the dense composite. */
    explicit EqualWeightComposite(std::uint64_t num_buckets);

    /**
     * Add one benchmark's stats; it will be scaled so its total refs
     * equal the common mass (1e6 by convention — only ratios matter).
     */
    void add(const BucketStats &benchmark_stats);

    /** @return the composite (valid after >= 1 add). */
    const BucketStats &result() const & { return composite_; }

    /** @return the composite, moved out of a finished compositor. */
    BucketStats result() && { return std::move(composite_); }

  private:
    BucketStats composite_;
};

} // namespace confsim

#endif // CONFSIM_METRICS_BUCKET_STATS_H
