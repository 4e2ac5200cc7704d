/**
 * @file
 * Composite confidence estimation — cross-product buckets of two
 * constituent estimators.
 *
 * The paper closes by noting the confidence design space is "probably
 * as large as for branch prediction" and that other methods "can (and
 * should) be explored". A natural next step is combining orthogonal
 * confidence sources: e.g. a resetting counter (recent correctness at
 * this context) with a counter-strength estimator (how one-sided the
 * branch's outcomes are). The composite's bucket is the pair
 * (bucketA, bucketB), encoded as bucketA * numBucketsB + bucketB, so
 * the ideal-reduction methodology applies unchanged: profiling sorts
 * the pairs by measured misprediction rate and any operating point can
 * use genuinely two-dimensional information.
 *
 * bench/ablation_estimators quantifies the gain over each constituent.
 */

#ifndef CONFSIM_CONFIDENCE_COMPOSITE_CONFIDENCE_H
#define CONFSIM_CONFIDENCE_COMPOSITE_CONFIDENCE_H

#include <memory>

#include "confidence/confidence_estimator.h"

namespace confsim {

/** Cross-product combination of two estimators. */
class CompositeConfidence : public ConfidenceEstimator
{
  public:
    /**
     * @param first Constituent A (owned).
     * @param second Constituent B (owned).
     *
     * The combined bucket space is numBucketsA * numBucketsB and must
     * stay practical (<= 2^24).
     */
    CompositeConfidence(std::unique_ptr<ConfidenceEstimator> first,
                        std::unique_ptr<ConfidenceEstimator> second);

    std::uint64_t bucketOf(const BranchContext &ctx) const override;
    std::uint64_t update(const BranchContext &ctx, bool correct,
                         bool taken) override;
    std::uint64_t numBuckets() const override;
    std::uint64_t storageBits() const override;
    std::string name() const override;
    void reset() override;
    /** Binds both constituents. */
    void bindPredictor(const BranchPredictor &predictor) override;

    bool checkpointable() const override;
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;
    /** Pairs are not totally ordered even if both parts are. */
    bool bucketsAreOrdered() const override { return false; }

    /** Split a composite bucket id back into (first, second). */
    std::pair<std::uint64_t, std::uint64_t>
    splitBucket(std::uint64_t bucket) const;

    /** @return constituent A (for tests/reports). */
    const ConfidenceEstimator &first() const { return *first_; }
    /** @return constituent B. */
    const ConfidenceEstimator &second() const { return *second_; }

  private:
    std::unique_ptr<ConfidenceEstimator> first_;
    std::unique_ptr<ConfidenceEstimator> second_;
};

} // namespace confsim

#endif // CONFSIM_CONFIDENCE_COMPOSITE_CONFIDENCE_H
