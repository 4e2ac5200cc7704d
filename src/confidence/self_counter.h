/**
 * @file
 * Counter-strength confidence (paper Section 1.1, citing [9] J. E.
 * Smith 1981: "a proposal for assigning confidence levels to different
 * counter values in predictors based on saturating counters").
 *
 * The estimator keeps a shadow table of up/down saturating counters
 * trained on branch outcomes (like a bimodal predictor) and reports
 * the counter's *strength* — its distance from the taken/not-taken
 * decision boundary — as the confidence bucket. A strongly saturated
 * counter (0 or max) means the branch has been consistently one-sided,
 * i.e. high confidence; a counter hovering at the boundary means low
 * confidence.
 *
 * Included as the historical baseline the paper's CIR-based methods
 * improve upon; bench/ablation_estimators compares them.
 */

#ifndef CONFSIM_CONFIDENCE_SELF_COUNTER_H
#define CONFSIM_CONFIDENCE_SELF_COUNTER_H

#include <vector>

#include "confidence/confidence_estimator.h"
#include "confidence/index_scheme.h"

namespace confsim {

/**
 * Shadow-counter strength estimator. Bucket = distance of the shadow
 * counter from the decision boundary, in [0, 2^(bits-1)]; larger =
 * higher confidence (ordered buckets).
 */
class SelfCounterConfidence : public ConfidenceEstimator
{
  public:
    /**
     * @param scheme Shadow-table index formation (PC in Smith's
     *        original proposal; any scheme is allowed).
     * @param num_entries Shadow table size (power of two).
     * @param counter_bits Shadow counter width (2..6). Wider counters
     *        give more strength levels: buckets 0..2^(bits-1).
     */
    SelfCounterConfidence(IndexScheme scheme, std::size_t num_entries,
                          unsigned counter_bits = 3);

    std::uint64_t bucketOf(const BranchContext &ctx) const override;

    /**
     * Train the shadow counter. Unlike the CIR-based estimators, this
     * estimator learns from the branch *outcome* (@p taken), not from
     * the main predictor's correctness.
     */
    std::uint64_t update(const BranchContext &ctx, bool correct,
                         bool taken) override;

    std::uint64_t numBuckets() const override;
    std::uint64_t storageBits() const override;
    std::string name() const override;
    void reset() override;

    bool checkpointable() const override { return true; }
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;
    bool bucketsAreOrdered() const override { return true; }

    /** @return the shadow counter's current direction guess. */
    bool shadowPredictsTaken(const BranchContext &ctx) const;

  private:
    std::uint64_t indexOf(const BranchContext &ctx) const;
    std::uint64_t strengthOf(std::uint32_t counter) const;

    IndexScheme scheme_;
    unsigned counterBits_;
    unsigned indexBits_;
    std::uint32_t maxValue_;
    std::uint32_t initialValue_;
    std::vector<std::uint32_t> counters_;
};

} // namespace confsim

#endif // CONFSIM_CONFIDENCE_SELF_COUNTER_H
