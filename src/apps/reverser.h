/**
 * @file
 * Branch prediction reverser (paper Section 1, application 4).
 *
 * "If the confidence in a branch prediction can be determined to be
 * less than 50%, then the prediction should be reversed."
 *
 * A profile of per-bucket accuracy of a confidence estimator picks the
 * reversal set: the buckets whose measured misprediction rate exceeds
 * 50%. Inverting the predictions in those buckets changes nothing the
 * predictor or estimator learns (both train on the outcome and on the
 * base prediction's correctness), so a second replay with reversal
 * would see the same buckets: each reversed bucket's misses become
 * hits and its hits misses. The study is therefore arithmetic over
 * the bucket statistics of one plain replay.
 *
 * The paper conjectures this application and our Table-1 data shows why
 * it is hard: even the least-confident resetting-counter bucket
 * mispredicts well under 50% with a strong underlying predictor, so the
 * reversal set is usually empty there. Weaker predictors or raw-CIR
 * buckets can expose reversible buckets; the bench sweeps both.
 */

#ifndef CONFSIM_APPS_REVERSER_H
#define CONFSIM_APPS_REVERSER_H

#include <cstdint>
#include <vector>

#include "metrics/bucket_stats.h"

namespace confsim {

/** Results of a reverser study. */
struct ReverserResult
{
    std::uint64_t branches = 0;
    std::uint64_t baseMispredicts = 0;     //!< without reversal
    std::uint64_t reversedMispredicts = 0; //!< with reversal
    std::uint64_t reversals = 0;           //!< predictions inverted
    std::vector<std::uint64_t> reversalBuckets; //!< buckets inverted

    double baseRate() const
    {
        return branches == 0
                   ? 0.0
                   : static_cast<double>(baseMispredicts) / branches;
    }

    double reversedRate() const
    {
        return branches == 0 ? 0.0
                             : static_cast<double>(reversedMispredicts) /
                                   branches;
    }
};

/**
 * Run the reverser study over one estimator's bucket statistics.
 *
 * @param stats Per-bucket references and mispredictions of a plain
 *        replay (every branch recorded once).
 * @param rate_threshold Buckets with a misprediction rate strictly
 *        above this are reversed (0.5 per the paper's rule).
 * @param min_bucket_refs Ignore buckets with fewer references (noise
 *        guard).
 */
ReverserResult runReverser(const BucketStats &stats,
                           double rate_threshold = 0.5,
                           double min_bucket_refs = 100.0);

} // namespace confsim

#endif // CONFSIM_APPS_REVERSER_H
