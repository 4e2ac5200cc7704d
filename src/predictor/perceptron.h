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
 * Fixed geometry: 512 rows, 24 history bits and 8-bit weights, as
 * compile-time constants (every caller builds this one geometry), so
 * theta = floor(1.93 * 24 + 14) = 60. Each row is 32 int8_t: the bias,
 * the 24 history weights, then zero padding. With the sign vector
 * signs[i] = history bit i ? +1 : -1 (newest first), the margin is
 * w[0] + sum w[i+1] * signs[i], and training clamps w += signs * t
 * over the row (the bias with sign +1), with t = +1 (taken), -1 (not
 * taken) or 0 (no training): no data-dependent branch, and both loops
 * vectorize at the baseline ISA. The sign bytes are read from the
 * history register eight at a time through a 256-entry table rather
 * than kept in a buffer, whose per-branch shift would make the next
 * dot product wait for the store.
 *
 * The dot product is computed once per branch: marginOf() memoizes its
 * last result keyed by PC, so predict(), wouldTrain()/update() and a
 * bound margin estimator share one sum; update(), reset() and
 * loadState() invalidate it.
 */

#ifndef CONFSIM_PREDICTOR_PERCEPTRON_H
#define CONFSIM_PREDICTOR_PERCEPTRON_H

#include <array>
#include <cstdint>

#include "predictor/branch_predictor.h"

namespace confsim {

/** PC-indexed weight-table predictor with margin confidence hooks. */
class PerceptronPredictor : public BranchPredictor
{
  public:
    /** log2 of the weight-vector rows. */
    static constexpr unsigned kRowBits = 9;
    static constexpr std::size_t kRows = std::size_t{1} << kRowBits;
    /** Global-history depth. */
    static constexpr unsigned kHistoryBits = 24;
    /** Per-weight width: weights clamp to [-128, 127]. */
    static constexpr unsigned kWeightBits = 8;
    /** Jiménez's tuned training threshold: floor(1.93 h + 14). */
    static constexpr std::int64_t kTheta =
        static_cast<std::int64_t>(1.93 * kHistoryBits + 14.0);

    PerceptronPredictor() = default;

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

    /** True iff update(pc, taken) would adjust the weights now:
     *  mispredict, or |margin| <= theta. */
    bool wouldTrain(std::uint64_t pc, bool taken) const;

    // --- white-box introspection (property tests) -------------------
    /** Weight @p i of @p row: 0 is the bias, 1 + j history bit j's. */
    std::int32_t weightAt(std::uint64_t row, unsigned i) const;
    std::uint64_t rowOf(std::uint64_t pc) const;
    std::uint64_t historyValue() const { return history_; }

  private:
    /** Bytes per row: the bias, kHistoryBits weights, and zero padding
     *  to 32. */
    static constexpr std::size_t kRowBytes = 32;
    using Row = std::array<std::int8_t, kRowBytes>;

    alignas(kRowBytes) std::array<Row, kRows> rows_{};
    /** Global history, newest outcome in bit 0. */
    std::uint64_t history_ = 0;

    /** The last marginOf() result. Memoizing makes predict() write,
     *  so one predictor instance belongs to one thread. */
    mutable std::uint64_t memoPc_ = 0;
    mutable std::uint16_t memoRow_ = 0;
    mutable std::int32_t memoMargin_ = 0;
    mutable bool memoValid_ = false;
};

} // namespace confsim

#endif // CONFSIM_PREDICTOR_PERCEPTRON_H
