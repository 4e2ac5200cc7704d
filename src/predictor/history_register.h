/**
 * @file
 * Global branch history register (BHR).
 *
 * A thin wrapper over ShiftRegister with branch-outcome naming. Shared by
 * history-based predictors and by the simulation driver, which maintains
 * the architectural BHR and global CIR the confidence mechanisms index
 * with (paper Fig. 3). FoldedHistory keeps an XOR fold of such a
 * history current incrementally.
 */

#ifndef CONFSIM_PREDICTOR_HISTORY_REGISTER_H
#define CONFSIM_PREDICTOR_HISTORY_REGISTER_H

#include "util/shift_register.h"

namespace confsim {

/** Global branch history: 1 = taken, 0 = not taken; newest bit is LSB. */
class HistoryRegister
{
  public:
    /** @param width History depth in bits (1..64). */
    explicit HistoryRegister(unsigned width)
        : reg_(width, 0)
    {}

    /** Record a resolved branch outcome. */
    void recordOutcome(bool taken) { reg_.shiftIn(taken); }

    /** @return the history pattern, right-justified. */
    std::uint64_t value() const { return reg_.value(); }

    /** Restore a value() snapshot (checkpoint resume). */
    void setValue(std::uint64_t v) { reg_.set(v); }

    /** @return history depth in bits. */
    unsigned width() const { return reg_.width(); }

    /** Clear all history. */
    void reset() { reg_.clear(); }

  private:
    ShiftRegister reg_;
};

/**
 * The newest `length` bits of a global history, XOR-folded down to
 * `width` bits and kept current in O(1) per outcome — the circular
 * shift register TAGE hardware uses instead of re-folding long
 * histories on every lookup [Seznec & Michaud 2006].
 *
 * Invariant: value() == xorFold(history & mask(length), width) for the
 * history register it shadows, provided every outcome shifted into
 * that register is also passed to update().
 */
class FoldedHistory
{
  public:
    /**
     * @param length History bits folded (1..64).
     * @param width Folded width in bits (0..63); 0 folds to 0.
     */
    FoldedHistory(unsigned length, unsigned width)
        : length_(length), width_(width),
          outPoint_(width == 0 ? 0 : length % width), mask_(mask(width))
    {}

    /**
     * Shift in one outcome.
     *
     * @param newest The outcome entering the history.
     * @param evicted Bit length-1 of the history *before* the shift:
     *        the bit that leaves the folded window.
     */
    void
    update(bool newest, bool evicted)
    {
        if (width_ == 0)
            return;
        // Shift left; the bit pushed to position `width` wraps to 0.
        std::uint64_t v = (value_ << 1) | (newest ? 1 : 0);
        v ^= std::uint64_t{evicted ? 1u : 0u} << outPoint_;
        v ^= v >> width_;
        value_ = v & mask_;
    }

    /** Recompute from a full history value (reset, checkpoint load). */
    void
    rebuild(std::uint64_t history)
    {
        value_ = xorFold(history & mask(length_), width_);
    }

    /** @return the folded history, right-justified in width bits. */
    std::uint64_t value() const { return value_; }

  private:
    unsigned length_;
    unsigned width_;
    unsigned outPoint_; //!< where the evicted bit sits after the shift
    std::uint64_t mask_;
    std::uint64_t value_ = 0;
};

} // namespace confsim

#endif // CONFSIM_PREDICTOR_HISTORY_REGISTER_H
