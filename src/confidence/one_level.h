/**
 * @file
 * One-level dynamic confidence mechanisms (paper Section 3.1, Fig. 3).
 *
 * Two estimator families:
 *
 *  - OneLevelCirConfidence: the CT holds full n-bit CIRs. The bucket is
 *    either the raw pattern (feeding the profiled "ideal" reduction of
 *    Section 4) or the pattern's ones count (the practical ones-count
 *    reduction of Section 5.1).
 *
 *  - OneLevelCounterConfidence: the CT holds compressed entries — a
 *    saturating or resetting 0..max counter per entry (Section 5.1),
 *    giving the logarithmic storage reduction the paper recommends. The
 *    bucket is the counter value read at prediction time.
 */

#ifndef CONFSIM_CONFIDENCE_ONE_LEVEL_H
#define CONFSIM_CONFIDENCE_ONE_LEVEL_H

#include <vector>

#include "confidence/cir_table.h"
#include "confidence/confidence_estimator.h"
#include "confidence/index_scheme.h"

namespace confsim {

/** Combinational function applied to a CIR read from the CT. */
enum class CirReduction
{
    RawPattern, //!< bucket = the CIR itself (ideal-reduction profiling)
    OnesCount,  //!< bucket = popcount(CIR)
};

/** @return "raw" or "ones". */
const char *toString(CirReduction reduction);

/** One-level confidence mechanism with full CIRs in the table. */
class OneLevelCirConfidence : public ConfidenceEstimator
{
  public:
    /**
     * @param scheme CT index formation.
     * @param num_entries CT size (power of two); 2^16 in the paper.
     * @param cir_bits CIR width, 1..16; 16 in the paper.
     * @param reduction Bucket function.
     * @param init CT initialization (paper default: all ones).
     */
    OneLevelCirConfidence(IndexScheme scheme, std::size_t num_entries,
                          unsigned cir_bits, CirReduction reduction,
                          CtInit init = CtInit::Ones);

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
    bool bucketsAreOrdered() const override;

    /** @return the raw CIR the current context reads (for tests). */
    std::uint64_t readCir(const BranchContext &ctx) const;

  private:
    /** @return @p cir's bucket under the configured reduction. */
    std::uint64_t reduce(std::uint64_t cir) const;

    IndexScheme scheme_;
    CirTable table_;
    CirReduction reduction_;
};

/** Counter style for compressed CT entries. */
enum class CounterKind
{
    Saturating, //!< up on correct, down on incorrect (Section 5.1)
    Resetting,  //!< up on correct, reset to 0 on incorrect (Section 5.1)
    HalfReset,  //!< up on correct, halve on incorrect — a middle point
                //!< between the paper's two reductions: one miss costs
                //!< half the accumulated confidence instead of all of
                //!< it, softening the aliasing amplification of full
                //!< resets at the price of a muddier low end
};

/** @return "sat", "reset" or "halfreset". */
const char *toString(CounterKind kind);

/**
 * One training step of a @p kind confidence counter with ceiling @p max:
 * up (saturating) on a correct prediction; down, reset or halved on an
 * incorrect one. Both outcomes are formed and one is selected, so the
 * host does not branch on the simulated prediction's correctness.
 *
 * @return the counter's new value.
 */
inline unsigned
stepCounter(CounterKind kind, unsigned value, unsigned max, bool correct)
{
    const unsigned up = value + (value < max);
    unsigned down = 0; // Resetting
    if (kind == CounterKind::Saturating)
        down = value - (value > 0);
    else if (kind == CounterKind::HalfReset)
        down = value / 2;
    return correct ? up : down;
}

/**
 * One-level confidence mechanism with embedded counters in the table.
 * Bucket = counter value in [0, max]; larger means more recent correct
 * predictions, i.e. higher confidence. Counters are stored one byte
 * each.
 */
class OneLevelCounterConfidence : public ConfidenceEstimator
{
  public:
    /**
     * @param scheme CT index formation.
     * @param num_entries CT size (power of two).
     * @param kind Counter style.
     * @param max_value Saturation ceiling in [1, 255]; 16 in the paper
     *        (matching 16-bit CIRs; a 0..15 counter would be cheaper).
     * @param initial_value Power-on counter value. 0 corresponds to the
     *        paper's recommended all-ones CIR initialization (a counter
     *        that has seen no correct predictions yet).
     */
    OneLevelCounterConfidence(IndexScheme scheme,
                              std::size_t num_entries, CounterKind kind,
                              std::uint32_t max_value = 16,
                              std::uint32_t initial_value = 0);

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

    /** @return the counter ceiling. */
    std::uint32_t maxValue() const { return maxValue_; }

  private:
    IndexScheme scheme_;
    CounterKind kind_;
    std::uint32_t maxValue_;
    std::uint32_t initialValue_;
    unsigned indexBits_;
    unsigned bitsPerCounter_;
    std::vector<std::uint8_t> counters_; //!< one byte per counter
};

} // namespace confsim

#endif // CONFSIM_CONFIDENCE_ONE_LEVEL_H
