/**
 * @file
 * Saturating up/down counter.
 *
 * Two uses in this codebase mirror the paper exactly:
 *  - 2-bit counters in the branch predictor tables ("weakly taken" init),
 *  - 0..16 saturating counters used as a compressed CIR reduction
 *    (Section 5.1, "Saturating Counters").
 */

#ifndef CONFSIM_UTIL_SATURATING_COUNTER_H
#define CONFSIM_UTIL_SATURATING_COUNTER_H

#include <cstdint>

#include "util/status.h"

namespace confsim {

/**
 * An integer counter clamped to [0, max]. step() saturates at the
 * extremes instead of wrapping.
 *
 * The maximum is a runtime parameter (not a template parameter) because
 * the paper sweeps counter ranges (0..15 vs 0..16) and experiments
 * configure them dynamically. Value and ceiling are one byte each, so a
 * 64K-entry predictor table spans 128 KiB; every counter in the paper
 * (and every configured one) is at most 8 bits wide.
 */
class SaturatingCounter
{
  public:
    /**
     * @param max Saturation ceiling (inclusive); must be in [1, 255].
     * @param initial Starting value; clamped to [0, max].
     */
    explicit SaturatingCounter(std::uint32_t max, std::uint32_t initial = 0)
        : max_(static_cast<std::uint8_t>(max)),
          value_(static_cast<std::uint8_t>(initial > max ? max : initial))
    {
        if (max == 0 || max > 255)
            fatal("SaturatingCounter max must be in [1, 255]");
    }

    /**
     * Train toward max if @p up, else toward 0, saturating at both
     * ends. The direction is data, not a branch: the host does not
     * branch on a simulated outcome it cannot learn.
     * @return the new value.
     */
    std::uint32_t
    step(bool up)
    {
        value_ += up & (value_ < max_);
        value_ -= !up & (value_ > 0);
        return value_;
    }

    /** @return current value in [0, max]. */
    std::uint32_t value() const { return value_; }

    /** @return the saturation ceiling. */
    std::uint32_t max() const { return max_; }

    /** @return true iff saturated high. */
    bool isMax() const { return value_ == max_; }

    /** @return true iff saturated low. */
    bool isMin() const { return value_ == 0; }

    /** Force the value (clamped to [0, max]); used by initialization. */
    void
    set(std::uint32_t value)
    {
        value_ = static_cast<std::uint8_t>(value > max_ ? max_ : value);
    }

    /**
     * For a prediction counter: the taken/not-taken decision. Values in
     * the upper half (>= (max + 1) / 2) predict taken, matching the
     * standard 2-bit scheme where 2 and 3 are "taken".
     */
    bool predictsTaken() const { return value_ >= (max_ + 1) / 2; }

  private:
    std::uint8_t max_;
    std::uint8_t value_;
};

} // namespace confsim

#endif // CONFSIM_UTIL_SATURATING_COUNTER_H
