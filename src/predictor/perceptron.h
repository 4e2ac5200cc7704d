/**
 * @file
 * Perceptron branch predictor [Jiménez & Lin 2001].
 *
 * A table of weight vectors is indexed by PC; the prediction is the
 * sign of the dot product of the selected weights with the global
 * history (outcomes mapped to ±1) plus a bias weight. Training bumps
 * each weight toward agreement with the outcome, but only when the
 * prediction was wrong or the dot product's magnitude — the *margin* —
 * was at most the threshold theta. Jiménez's tuned theta is
 * floor(1.93 h + 14) for history length h.
 *
 * The margin is a natural multi-level confidence signal: |margin| far
 * above theta means the weights agree emphatically, while a margin
 * near zero flags a coin-flip. confidence/perceptron_margin.h exposes
 * this to the paper's coverage/PVN methodology.
 *
 * The dot product is computed once per branch: marginOf() memoizes its
 * last result keyed by PC, so predict(), wouldTrain()/update() and a
 * bound margin estimator share one sum; update(), reset() and
 * loadState() invalidate it.
 */

#ifndef CONFSIM_PREDICTOR_PERCEPTRON_H
#define CONFSIM_PREDICTOR_PERCEPTRON_H

#include <cstdint>
#include <vector>

#include "predictor/branch_predictor.h"
#include "predictor/history_register.h"

namespace confsim {

/** Geometry knobs for PerceptronPredictor. */
struct PerceptronConfig
{
    /** Weight-vector rows (power of two). */
    std::size_t numRows = std::size_t{1} << 9;

    /** Global-history depth, 1..64. */
    unsigned historyBits = 24;

    /** Per-weight width; weights clamp to the signed range of this
     *  many bits (8 bits -> [-128, 127]). */
    unsigned weightBits = 8;

    /** The default paper-scale configuration. */
    static PerceptronConfig makeDefault() { return PerceptronConfig{}; }

    /** A small geometry for unit/differential tests. */
    static PerceptronConfig makeSmall();

    /** Jiménez's tuned training threshold: floor(1.93 h + 14). */
    std::int64_t theta() const
    {
        return static_cast<std::int64_t>(1.93 * historyBits + 14.0);
    }
};

/** PC-indexed weight-table predictor with margin confidence hooks. */
class PerceptronPredictor : public BranchPredictor
{
  public:
    explicit PerceptronPredictor(
        PerceptronConfig config = PerceptronConfig::makeDefault());

    bool predict(std::uint64_t pc) const override;
    void update(std::uint64_t pc, bool taken) override;
    std::uint64_t storageBits() const override;
    std::string name() const override;
    void reset() override;

    bool checkpointable() const override { return true; }
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;

    /** The signed dot product for @p pc under the current history;
     *  the prediction is marginOf(pc) >= 0. */
    std::int64_t marginOf(std::uint64_t pc) const;

    /** The training threshold theta. */
    std::int64_t theta() const { return config_.theta(); }

    /** True iff update(pc, taken) would adjust the weights now:
     *  mispredict, or |margin| <= theta. */
    bool wouldTrain(std::uint64_t pc, bool taken) const;

    // --- white-box introspection (property tests) -------------------
    const PerceptronConfig &config() const { return config_; }
    std::int32_t weightAt(std::uint64_t row, unsigned i) const;
    std::uint64_t rowOf(std::uint64_t pc) const;
    std::uint64_t historyValue() const { return history_.value(); }

  private:
    std::int32_t clampWeight(std::int64_t w) const;

    PerceptronConfig config_;
    unsigned rowBits_; //!< log2(numRows)
    /** Flattened rows of (bias + historyBits) weights each. */
    std::vector<std::int32_t> weights_;
    HistoryRegister history_;
    std::int32_t weightMax_;
    std::int32_t weightMin_;

    /** The last marginOf() result. Memoizing makes predict() write,
     *  so one predictor instance belongs to one thread. */
    mutable std::uint64_t memoPc_ = 0;
    mutable std::int64_t memoMargin_ = 0;
    mutable bool memoValid_ = false;
};

} // namespace confsim

#endif // CONFSIM_PREDICTOR_PERCEPTRON_H
