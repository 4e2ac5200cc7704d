#include "metrics/operating_point.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "metrics/classification_metrics.h"
#include "metrics/confidence_curve.h"

namespace confsim {

OperatingPoint
operatingPointAt(std::vector<KeyedBucketCounts> keyed, double ref_fraction)
{
    sortWorstFirst(keyed);
    OperatingPoint point;
    point.coverage =
        ConfidenceCurve::fromSorted(keyed).mispredCoverageAt(ref_fraction);

    double total_refs = 0.0;
    std::uint64_t max_bucket = 0;
    for (const auto &k : keyed) {
        total_refs += k.counts.refs;
        max_bucket = std::max(max_bucket, k.bucket);
    }
    if (total_refs <= 0.0)
        return point;

    // Grow the set toward the target, stopping at whichever side of
    // the boundary is closer.
    const double target = ref_fraction * total_refs;
    std::vector<bool> low(max_bucket + 1, false);
    double low_refs = 0.0;
    for (const auto &k : keyed) {
        const double with = low_refs + k.counts.refs;
        if (std::abs(with - target) >= std::abs(low_refs - target))
            break;
        low[k.bucket] = true;
        low_refs = with;
    }
    const ClassificationMetrics metrics =
        computeMetrics(confusionFromBuckets(keyed, low));
    point.lowFraction = metrics.lowFraction;
    point.pvn = metrics.pvn;
    return point;
}

} // namespace confsim
