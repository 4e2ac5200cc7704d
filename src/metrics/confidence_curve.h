/**
 * @file
 * The paper's evaluation curve: cumulative percent of mispredictions
 * (Y) versus cumulative percent of dynamic branches (X), accumulated
 * down the list of buckets sorted by misprediction rate, highest first
 * (Sections 2 and 4).
 *
 * Each point corresponds to one bucket and defines a candidate
 * high/low-confidence partition: everything at or above the point's
 * bucket in the sorted order is the low-confidence set. "The steeper
 * the initial slope and the farther to the left the knee occurs, the
 * better."
 */

#ifndef CONFSIM_METRICS_CONFIDENCE_CURVE_H
#define CONFSIM_METRICS_CONFIDENCE_CURVE_H

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/state_io.h"
#include "metrics/bucket_stats.h"

namespace confsim {

/** One point of the cumulative curve (one bucket of the sorted list). */
struct CurvePoint
{
    std::uint64_t bucket = 0;   //!< bucket id this point corresponds to
    double bucketRate = 0.0;    //!< the bucket's own misprediction rate
    double refFraction = 0.0;   //!< cumulative refs fraction (X), 0..1
    double mispredFraction = 0.0; //!< cumulative mispred fraction (Y)
};

/**
 * Drop the zero-ref entries of @p counts and sort the rest worst-first:
 * misprediction rate descending, ties broken by bucket id ascending
 * (a total order, since ids are distinct). Every curve accumulates in
 * this order. Each entry's rate is computed once, not per comparison.
 */
void sortWorstFirst(std::vector<KeyedBucketCounts> &counts);

/** Sorted cumulative misprediction-coverage curve. */
class ConfidenceCurve
{
  public:
    /**
     * Build the curve from per-bucket counts: sortWorstFirst(), then
     * accumulate.
     */
    static ConfidenceCurve
    fromCounts(std::vector<KeyedBucketCounts> counts);

    /** Build the curve from counts already in sortWorstFirst() order. */
    static ConfidenceCurve
    fromSorted(const std::vector<KeyedBucketCounts> &counts);

    /** Convenience: build from a dense accumulator. */
    static ConfidenceCurve fromBucketStats(const BucketStats &stats);

    /** Convenience: build from a sparse accumulator. */
    static ConfidenceCurve
    fromSparseStats(const SparseBucketStats &stats);

    /** @return curve points in sorted accumulation order. */
    const std::vector<CurvePoint> &points() const { return points_; }

    /**
     * Fraction of mispredictions covered by a low-confidence set
     * containing @p ref_fraction of dynamic branches, linearly
     * interpolated between curve points (the paper reads off values
     * such as "20 percent of the branches concentrate 89 percent of
     * the mispredictions" this way).
     */
    double mispredCoverageAt(double ref_fraction) const;

    /**
     * The smallest ref fraction whose low-confidence set covers at
     * least @p mispred_fraction of mispredictions (inverse reading).
     * @return 1.0 if the coverage is never reached; 0.0 on an empty
     *         curve (symmetric with mispredCoverageAt).
     */
    double refFractionForCoverage(double mispred_fraction) const;

    /**
     * Buckets forming the low-confidence set at the given operating
     * point: the sorted prefix needed to reach @p ref_fraction of
     * references. This is the idealized "reduction function" of
     * Section 4 (the returned buckets are its minterms).
     */
    std::vector<std::uint64_t>
    lowBucketsForRefFraction(double ref_fraction) const;

    /**
     * Same set as a dense mask sized @p num_buckets, ready for
     * BinaryConfidenceSignal.
     */
    std::vector<bool>
    lowBucketMaskForRefFraction(double ref_fraction,
                                std::uint64_t num_buckets) const;

    /**
     * Area under the coverage curve in [0, 1]^2 (trapezoidal). A single
     * scalar for regression-style comparisons: higher is better; 0.5 is
     * the no-information diagonal.
     */
    double areaUnderCurve() const;

    /** Thin the curve for plotting: keep points whose X or Y moved by
     *  at least @p min_delta (the paper plots points differing by
     *  2.5%). Endpoints are always kept. */
    std::vector<CurvePoint> thinnedPoints(double min_delta) const;

    /** @return total reference mass the curve was built from. */
    double totalRefs() const { return totalRefs_; }

    /** @return total misprediction mass. */
    double totalMispredicts() const { return totalMispredicts_; }

    /** Checkpoint the curve (points + totals, bit-exact doubles). */
    void saveState(StateWriter &out) const;

    /** Restore a saveState() snapshot, replacing this curve. */
    void loadState(StateReader &in);

  private:
    std::vector<CurvePoint> points_;
    double totalRefs_ = 0.0;
    double totalMispredicts_ = 0.0;
};

} // namespace confsim

#endif // CONFSIM_METRICS_CONFIDENCE_CURVE_H
