/**
 * @file
 * TAGE's built-in confidence signal as a ConfidenceEstimator.
 *
 * TAGE assigns confidence for free: the provider counter's distance
 * from its weak boundary says how settled the entry is, and agreement
 * between the provider and the alternate prediction corroborates it
 * (cf. scarab's weight_conf level mechanism, which likewise grades
 * predictions into confidence levels from predictor-internal state).
 *
 * The estimator owns no structure of its own: bindPredictor() pairs it
 * with the TagePredictor whose predictions it grades, and bucketOf()
 * reads that predictor's predictDetail() — the lookup predict() just
 * memoized, so confidence costs no second TAGE lookup. update() does
 * nothing; the predictor trains itself. An unbound estimator returns
 * bucket 0.
 *
 * Bucket = 2 * providerStrength + (provider agrees with alt), so
 * larger buckets mean stronger, corroborated predictions (ordered).
 */

#ifndef CONFSIM_CONFIDENCE_TAGE_CONFIDENCE_H
#define CONFSIM_CONFIDENCE_TAGE_CONFIDENCE_H

#include "confidence/confidence_estimator.h"
#include "predictor/tage.h"

namespace confsim {

/** Provider-strength + provider/alt-agreement confidence. */
class TageProviderConfidence : public ConfidenceEstimator
{
  public:
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
     * Read @p predictor's provider from now on. @throws Error{kConfig}
     * unless it is a TagePredictor.
     */
    void bindPredictor(const BranchPredictor &predictor) override;

    bool checkpointable() const override { return true; }
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;
    /** 2: the payload is the counter width (1 held a TAGE replica). */
    std::uint32_t stateVersion() const override { return 2; }
    bool bucketsAreOrdered() const override { return true; }

  private:
    const TagePredictor *predictor_ = nullptr;
};

} // namespace confsim

#endif // CONFSIM_CONFIDENCE_TAGE_CONFIDENCE_H
