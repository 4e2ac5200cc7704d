/**
 * @file
 * Alias-free reference estimator.
 *
 * Section 5.3 attributes the small-table losses to aliasing: "If any
 * branch accessing the same table entry suffers a misprediction, then
 * the counter resets... aliased counters are likely to spend more of
 * their time in the non-saturated state." To *quantify* that claim,
 * this estimator keeps one resetting counter per distinct full index
 * value (no truncation, hash-map backed) — i.e. an infinitely large
 * CT. Comparing it against finite tables isolates pure aliasing loss
 * from everything else (bench/ablation_aliasing).
 *
 * Simulation-only: storageBits() reports the bits an ideal table with
 * one entry per *observed* context would need, which is unbounded in
 * hardware terms.
 */

#ifndef CONFSIM_CONFIDENCE_UNALIASED_H
#define CONFSIM_CONFIDENCE_UNALIASED_H

#include <unordered_map>

#include "confidence/confidence_estimator.h"
#include "confidence/index_scheme.h"
#include "confidence/one_level.h"

namespace confsim {

/** Infinite-table counter confidence (aliasing-free reference). */
class UnaliasedCounterConfidence : public ConfidenceEstimator
{
  public:
    /**
     * @param scheme Index formation; computed at full 32-bit width so
     *        distinct (PC, history) contexts never collide.
     * @param kind Counter style.
     * @param max_value Saturation ceiling (16 in the paper).
     */
    UnaliasedCounterConfidence(IndexScheme scheme, CounterKind kind,
                               std::uint32_t max_value = 16);

    std::uint64_t bucketOf(const BranchContext &ctx) const override;
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

    /** @return number of distinct contexts observed so far. */
    std::size_t observedContexts() const { return counters_.size(); }

  private:
    std::uint64_t keyOf(const BranchContext &ctx) const;

    IndexScheme scheme_;
    CounterKind kind_;
    std::uint32_t maxValue_;
    std::unordered_map<std::uint64_t, std::uint32_t> counters_;
};

} // namespace confsim

#endif // CONFSIM_CONFIDENCE_UNALIASED_H
