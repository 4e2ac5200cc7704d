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
 * A bank that only record() has filled holds each bucket as two 4-byte
 * integer tallies (8 B a bucket); a bank that addWeighted() has written
 * into, a composite, holds two doubles. Readers see doubles either way,
 * and a tally converts to exactly the double an accumulator of 1.0
 * increments would hold, so the form never changes a result.
 */

#ifndef CONFSIM_METRICS_BUCKET_STATS_H
#define CONFSIM_METRICS_BUCKET_STATS_H

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ckpt/state_io.h"

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
 * Its form follows from how it was filled: integer tallies while only
 * record() has written it, doubles once addWeighted() has (clear()
 * returns it to tallies). A tally holds at most 2^32 - 1; the replay
 * kernel refuses a run before any of its banks could record more
 * branches than that (ReplayKernel::replay).
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
        if (!masses_.empty()) [[unlikely]] {
            recordMass(bucket, mispredicted);
            return;
        }
        Tally &entry = tallies_[bucket];
        ++entry.refs;
        entry.mispredicts += mispredicted;
    }

    /**
     * Merge @p other scaled by @p weight (for compositing). This bank
     * holds doubles from here on.
     */
    void addWeighted(const BucketStats &other, double weight);

    /** @return counts of bucket @p bucket. */
    BucketCounts
    operator[](std::uint64_t bucket) const
    {
        if (!masses_.empty())
            return masses_[bucket];
        const Tally entry = tallies_[bucket];
        return {static_cast<double>(entry.refs),
                static_cast<double>(entry.mispredicts)};
    }

    /** @return bucket-space size. */
    std::uint64_t
    numBuckets() const
    {
        return masses_.empty() ? tallies_.size() : masses_.size();
    }

    /** @return true iff the bank holds doubles (addWeighted() wrote it). */
    bool weighted() const { return !masses_.empty(); }

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

    /** Zero all counts; the bank holds tallies again. */
    void clear();

    /**
     * Checkpoint the accumulated counts. Sparse encoding (only
     * non-empty buckets) with the bucket-space size as a guard; every
     * count travels as a double's bit pattern, so restores are
     * bit-exact in either form.
     */
    void saveState(StateWriter &out) const;

    /**
     * Restore a saveState() snapshot into a same-sized stats. A
     * snapshot whose counts are all integers below 2^32 restores to
     * tallies; any other (a composite's) restores to doubles.
     */
    void loadState(StateReader &in);

  private:
    /** One bucket of a bank only record() has filled. */
    struct Tally
    {
        std::uint32_t refs = 0;
        std::uint32_t mispredicts = 0;
    };

    void recordMass(std::uint64_t bucket, bool mispredicted);

    /** Exactly one of the two is sized: tallies_ until addWeighted(). */
    std::vector<Tally> tallies_;
    std::vector<BucketCounts> masses_;
};

/** Sparse accumulator for unbounded keys (per-PC static profiling). */
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

    /** @return all buckets with their ids (unordered). */
    std::vector<KeyedBucketCounts> nonEmpty() const;

    void clear() { counts_.clear(); }

    /** Checkpoint the accumulated counts (sorted-key encoding). */
    void saveState(StateWriter &out) const;

    /** Restore a saveState() snapshot, replacing current counts. */
    void loadState(StateReader &in);

  private:
    std::unordered_map<std::uint64_t, BucketCounts> counts_;
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
