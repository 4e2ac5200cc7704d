/**
 * @file
 * The paper's ideal-reduction operating point, as a reusable metric.
 *
 * Several consumers score an estimator by the same recipe: order its
 * buckets worst-first by misprediction rate (the paper's profile
 * ordering), grow the low-confidence set toward a target fraction of
 * dynamic branches, and report the coverage, the realized low-set
 * size, and PVN at that point. This used to live in
 * bench/native_confidence.cc; the sampling engine needs it too (its
 * per-subsample coverage/PVN estimates), so it lives here once.
 */

#ifndef CONFSIM_METRICS_OPERATING_POINT_H
#define CONFSIM_METRICS_OPERATING_POINT_H

#include <vector>

#include "metrics/bucket_stats.h"

namespace confsim {

/** An estimator scored at one low-set operating point. */
struct OperatingPoint
{
    /** Fraction of mispredictions inside the target low set (read off
     *  the cumulative confidence curve at the target fraction). */
    double coverage = 0.0;

    /** Realized low-set size as a fraction of dynamic branches. */
    double lowFraction = 0.0;

    /** Predictive value of a negative (low-confidence) prediction. */
    double pvn = 0.0;
};

/**
 * Score per-bucket counts at the @p ref_fraction operating point. The
 * discrete low set grows worst-bucket-first toward the target,
 * stopping at whichever side of the boundary is closer — a single huge
 * bucket (the all-weak state) must not balloon the set to most of the
 * trace. Zero-ref entries are dropped, and empty counts score zero
 * everywhere. Bucket ids must be distinct; their order does not
 * matter, because ties in rate break on bucket id. Weighted counts
 * (e.g. composite or stratified masses) are fine: only rates and
 * relative masses matter.
 */
OperatingPoint operatingPointAt(std::vector<KeyedBucketCounts> keyed,
                                double ref_fraction);

/** Score @p stats' non-empty buckets (see the keyed overload). */
inline OperatingPoint
operatingPointAt(const BucketStats &stats, double ref_fraction)
{
    return operatingPointAt(stats.nonEmpty(), ref_fraction);
}

/** The paper's canonical 20%-of-branches operating point. */
inline OperatingPoint
operatingPointAt20(const BucketStats &stats)
{
    return operatingPointAt(stats, 0.2);
}

} // namespace confsim

#endif // CONFSIM_METRICS_OPERATING_POINT_H
