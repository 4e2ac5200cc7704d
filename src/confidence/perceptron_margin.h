/**
 * @file
 * Perceptron margin confidence as a ConfidenceEstimator.
 *
 * The perceptron's dot product is a graded vote: |margin| measures how
 * emphatically the weights agree on a direction, and theta is the
 * scale on which the training rule itself judges "confident enough to
 * stop learning". Quantizing |margin| against theta therefore yields
 * a natural multi-level confidence signal — level 0 is a coin-flip,
 * the top level is a margin beyond theta.
 *
 * Like TageProviderConfidence, this estimator reads the predictor it
 * is bound to (bindPredictor()): bucketOf() takes the bound
 * perceptron's marginOf(), the dot product predict() just memoized,
 * and update() does nothing. An unbound estimator returns bucket 0.
 *
 * Buckets are monotone in |margin| by construction (ordered):
 * bucket = min(|margin| * levels / (theta + 1), levels - 1).
 */

#ifndef CONFSIM_CONFIDENCE_PERCEPTRON_MARGIN_H
#define CONFSIM_CONFIDENCE_PERCEPTRON_MARGIN_H

#include "confidence/confidence_estimator.h"
#include "predictor/perceptron.h"

namespace confsim {

/** |dot product| vs. theta, quantized into ordered levels. */
class PerceptronMarginConfidence : public ConfidenceEstimator
{
  public:
    /** @param num_levels Confidence levels (buckets), >= 2. */
    explicit PerceptronMarginConfidence(unsigned num_levels = 8);

    std::uint64_t bucketOf(const BranchContext &ctx) const override;

    /**
     * Nothing to train: the bound predictor trains itself. Returns
     * bucketOf(), so it must run before the predictor's own update.
     */
    std::uint64_t update(const BranchContext &ctx, bool correct,
                         bool taken) override;

    std::uint64_t numBuckets() const override;

    /** 0: the signal is the predictor's own state. */
    std::uint64_t storageBits() const override { return 0; }
    std::string name() const override;
    void reset() override {}

    /**
     * Read @p predictor's margin from now on. @throws Error{kConfig}
     * unless it is a PerceptronPredictor.
     */
    void bindPredictor(const BranchPredictor &predictor) override;

    bool checkpointable() const override { return true; }
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;
    /** 2: the payload is the geometry (1 held a perceptron replica). */
    std::uint32_t stateVersion() const override { return 2; }
    bool bucketsAreOrdered() const override { return true; }

    /** Quantize a margin value to its bucket (tests). */
    std::uint64_t bucketForMargin(std::int64_t margin) const;

  private:
    unsigned numLevels_;
    const PerceptronPredictor *predictor_ = nullptr;
};

} // namespace confsim

#endif // CONFSIM_CONFIDENCE_PERCEPTRON_MARGIN_H
