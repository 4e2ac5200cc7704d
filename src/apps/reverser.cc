#include "apps/reverser.h"

namespace confsim {

ReverserResult
runReverser(const BucketStats &stats, double rate_threshold,
            double min_bucket_refs)
{
    ReverserResult result;
    result.branches = static_cast<std::uint64_t>(stats.totalRefs());
    result.baseMispredicts =
        static_cast<std::uint64_t>(stats.totalMispredicts());
    result.reversedMispredicts = result.baseMispredicts;
    for (std::uint64_t b = 0; b < stats.numBuckets(); ++b) {
        const BucketCounts counts = stats[b];
        if (counts.refs < min_bucket_refs ||
            counts.rate() <= rate_threshold)
            continue;
        // Reversal turns the bucket's misses into hits and its hits
        // into misses.
        const auto refs = static_cast<std::uint64_t>(counts.refs);
        const auto misses = static_cast<std::uint64_t>(counts.mispredicts);
        result.reversalBuckets.push_back(b);
        result.reversals += refs;
        result.reversedMispredicts =
            result.reversedMispredicts - misses + (refs - misses);
    }
    return result;
}

} // namespace confsim
