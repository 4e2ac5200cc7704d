/**
 * @file
 * Global branch history register (BHR).
 *
 * A thin wrapper over ShiftRegister with branch-outcome naming. Shared by
 * history-based predictors and by the simulation driver, which maintains
 * the architectural BHR and global CIR the confidence mechanisms index
 * with (paper Fig. 3).
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

} // namespace confsim

#endif // CONFSIM_PREDICTOR_HISTORY_REGISTER_H
