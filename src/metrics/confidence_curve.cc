#include "metrics/confidence_curve.h"

#include "ckpt/state_io.h"

#include <algorithm>

#include "util/status.h"

namespace confsim {

void
sortWorstFirst(std::vector<KeyedBucketCounts> &counts)
{
    struct Ranked
    {
        double rate;
        KeyedBucketCounts entry;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(counts.size());
    for (const KeyedBucketCounts &entry : counts) {
        if (entry.counts.refs <= 0.0)
            continue;
        ranked.push_back({entry.counts.rate(), entry});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked &a, const Ranked &b) {
                  if (a.rate != b.rate)
                      return a.rate > b.rate;
                  return a.entry.bucket < b.entry.bucket;
              });
    counts.clear();
    for (const Ranked &r : ranked)
        counts.push_back(r.entry);
}

ConfidenceCurve
ConfidenceCurve::fromCounts(std::vector<KeyedBucketCounts> counts)
{
    sortWorstFirst(counts);
    return fromSorted(counts);
}

ConfidenceCurve
ConfidenceCurve::fromSorted(const std::vector<KeyedBucketCounts> &counts)
{
    ConfidenceCurve curve;
    for (const auto &entry : counts) {
        curve.totalRefs_ += entry.counts.refs;
        curve.totalMispredicts_ += entry.counts.mispredicts;
    }

    double refs_so_far = 0.0;
    double mispredicts_so_far = 0.0;
    curve.points_.reserve(counts.size());
    for (const auto &entry : counts) {
        refs_so_far += entry.counts.refs;
        mispredicts_so_far += entry.counts.mispredicts;
        CurvePoint point;
        point.bucket = entry.bucket;
        point.bucketRate = entry.counts.rate();
        point.refFraction =
            curve.totalRefs_ > 0.0 ? refs_so_far / curve.totalRefs_
                                   : 0.0;
        point.mispredFraction =
            curve.totalMispredicts_ > 0.0
                ? mispredicts_so_far / curve.totalMispredicts_
                : 0.0;
        curve.points_.push_back(point);
    }
    return curve;
}

ConfidenceCurve
ConfidenceCurve::fromBucketStats(const BucketStats &stats)
{
    return fromCounts(stats.nonEmpty());
}

ConfidenceCurve
ConfidenceCurve::fromSparseStats(const SparseBucketStats &stats)
{
    return fromCounts(stats.nonEmpty());
}

double
ConfidenceCurve::mispredCoverageAt(double ref_fraction) const
{
    if (points_.empty())
        return 0.0;
    if (ref_fraction <= 0.0)
        return 0.0;

    // Piecewise-linear through (0,0) and each point.
    double prev_x = 0.0;
    double prev_y = 0.0;
    for (const auto &point : points_) {
        if (ref_fraction <= point.refFraction) {
            const double span = point.refFraction - prev_x;
            if (span <= 0.0)
                return point.mispredFraction;
            const double t = (ref_fraction - prev_x) / span;
            return prev_y + t * (point.mispredFraction - prev_y);
        }
        prev_x = point.refFraction;
        prev_y = point.mispredFraction;
    }
    return points_.back().mispredFraction;
}

double
ConfidenceCurve::refFractionForCoverage(double mispred_fraction) const
{
    // Mirror mispredCoverageAt: an empty curve recorded nothing, so
    // no branch fraction is needed for any coverage target (reading
    // in either direction returns 0 on empty), and coverage targets
    // at or below zero are met by the empty low set — symmetric with
    // mispredCoverageAt clamping ref_fraction <= 0 to coverage 0
    // instead of extrapolating below the origin.
    if (points_.empty() || mispred_fraction <= 0.0)
        return 0.0;

    double prev_x = 0.0;
    double prev_y = 0.0;
    for (const auto &point : points_) {
        if (mispred_fraction <= point.mispredFraction) {
            const double span = point.mispredFraction - prev_y;
            // A plateau (run of zero-mispredict buckets) is flat in Y:
            // the target was already reached at the previous point, so
            // the smallest sufficient branch fraction is prev_x — not
            // this point's refFraction, which would overshoot by the
            // width of the plateau.
            if (span <= 0.0)
                return prev_x;
            const double t = (mispred_fraction - prev_y) / span;
            return prev_x + t * (point.refFraction - prev_x);
        }
        prev_x = point.refFraction;
        prev_y = point.mispredFraction;
    }
    return 1.0;
}

std::vector<std::uint64_t>
ConfidenceCurve::lowBucketsForRefFraction(double ref_fraction) const
{
    std::vector<std::uint64_t> low;
    double prev_ref = 0.0;
    for (const auto &point : points_) {
        if (prev_ref >= ref_fraction)
            break;
        low.push_back(point.bucket);
        prev_ref = point.refFraction;
    }
    return low;
}

std::vector<bool>
ConfidenceCurve::lowBucketMaskForRefFraction(
    double ref_fraction, std::uint64_t num_buckets) const
{
    std::vector<bool> mask(num_buckets, false);
    for (std::uint64_t bucket : lowBucketsForRefFraction(ref_fraction)) {
        if (bucket >= num_buckets)
            fatal("curve bucket id exceeds estimator bucket space");
        mask[bucket] = true;
    }
    return mask;
}

double
ConfidenceCurve::areaUnderCurve() const
{
    double area = 0.0;
    double prev_x = 0.0;
    double prev_y = 0.0;
    for (const auto &point : points_) {
        area += (point.refFraction - prev_x) *
                (point.mispredFraction + prev_y) / 2.0;
        prev_x = point.refFraction;
        prev_y = point.mispredFraction;
    }
    // Close the polygon to (1, 1): the remaining branches contribute the
    // remaining mispredictions linearly.
    area += (1.0 - prev_x) * (1.0 + prev_y) / 2.0;
    return area;
}

std::vector<CurvePoint>
ConfidenceCurve::thinnedPoints(double min_delta) const
{
    std::vector<CurvePoint> out;
    double last_x = -1.0;
    double last_y = -1.0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
        const auto &point = points_[i];
        const bool endpoint = (i == 0 || i + 1 == points_.size());
        if (endpoint || point.refFraction - last_x >= min_delta ||
            point.mispredFraction - last_y >= min_delta) {
            out.push_back(point);
            last_x = point.refFraction;
            last_y = point.mispredFraction;
        }
    }
    return out;
}


void
ConfidenceCurve::saveState(StateWriter &out) const
{
    out.putU64(points_.size());
    for (const CurvePoint &point : points_) {
        out.putU64(point.bucket);
        out.putF64(point.bucketRate);
        out.putF64(point.refFraction);
        out.putF64(point.mispredFraction);
    }
    out.putF64(totalRefs_);
    out.putF64(totalMispredicts_);
}

void
ConfidenceCurve::loadState(StateReader &in)
{
    points_.assign(in.getU64(), CurvePoint{});
    for (CurvePoint &point : points_) {
        point.bucket = in.getU64();
        point.bucketRate = in.getF64();
        point.refFraction = in.getF64();
        point.mispredFraction = in.getF64();
    }
    totalRefs_ = in.getF64();
    totalMispredicts_ = in.getF64();
}

} // namespace confsim
