/**
 * @file
 * The CIR table (CT) — a direct-mapped table of Correct/Incorrect
 * Registers (paper Fig. 3).
 *
 * Each entry is an n-bit shift register holding the n most recent
 * correct(0)/incorrect(1) indications observed at that entry. The
 * initialization alternatives of Section 5.4 (all ones, all zeros,
 * random, "lastbit") are supported; the paper found all-ones (or any
 * non-zero state) markedly better than all-zeros.
 */

#ifndef CONFSIM_CONFIDENCE_CIR_TABLE_H
#define CONFSIM_CONFIDENCE_CIR_TABLE_H

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/state_io.h"
#include "util/bits.h"

namespace confsim {

/** CT initialization policies (paper Fig. 11). */
enum class CtInit
{
    Ones,    //!< every CIR bit 1 (the paper's recommended default)
    Zeros,   //!< every CIR bit 0 (degrades startup behaviour)
    Random,  //!< uniformly random patterns (deterministic seed)
    LastBit, //!< only the oldest bit set (Section 5.4 proposal)
};

/** @return short name: "ones", "zeros", "random", "lastbit". */
const char *toString(CtInit init);

/**
 * Direct-mapped table of n-bit CIRs stored as packed 16-bit integers.
 *
 * Stored packed (rather than as ShiftRegister objects) because the
 * 2^16-entry tables of the paper are hot simulation state: 2 B per
 * entry, so the paper's 64K-entry CT spans 128 KiB. Widths are capped
 * at 16, the paper's CIR length and the widest any configuration uses.
 */
class CirTable
{
  public:
    /**
     * @param num_entries Table size (power of two).
     * @param cir_bits CIR width n, 1..16 (16 in the paper).
     * @param init Initialization policy.
     * @param seed Seed for the Random policy.
     */
    CirTable(std::size_t num_entries, unsigned cir_bits, CtInit init,
             std::uint64_t seed = 0xC1C1C1C1);

    /** @return the CIR pattern at @p index (low index bits used). */
    std::uint64_t
    read(std::uint64_t index) const
    {
        return entries_[index & indexMask_];
    }

    /**
     * Shift the latest correctness indication into entry @p index; the
     * oldest bit falls off.
     *
     * @param index Table index.
     * @param correct true iff the prediction was correct; stored as a 0
     *        bit (the paper's convention: 1 = incorrect).
     * @return the entry's pattern before the shift (what read() saw).
     */
    std::uint64_t
    update(std::uint64_t index, bool correct)
    {
        std::uint16_t &entry = entries_[index & indexMask_];
        const std::uint16_t before = entry;
        entry = static_cast<std::uint16_t>(
            ((unsigned{before} << 1) | unsigned{!correct}) & cirMask_);
        return before;
    }

    /** @return number of entries. */
    std::size_t size() const { return entries_.size(); }

    /** @return CIR width in bits. */
    unsigned cirBits() const { return cirBits_; }

    /** @return log2(size()). */
    unsigned indexBits() const { return indexBits_; }

    /** @return total storage in bits. */
    std::uint64_t
    storageBits() const
    {
        return static_cast<std::uint64_t>(entries_.size()) * cirBits_;
    }

    /** Reinitialize all entries per the configured policy. */
    void reset();

    /** Checkpoint the packed CIR contents (size/width-guarded). */
    void saveState(StateWriter &out) const;

    /** Restore a saveState() snapshot into a same-shape table. */
    void loadState(StateReader &in);

  private:
    std::vector<std::uint16_t> entries_;
    unsigned cirBits_;
    unsigned cirMask_;
    unsigned indexBits_;
    std::uint64_t indexMask_;
    CtInit init_;
    std::uint64_t seed_;
};

} // namespace confsim

#endif // CONFSIM_CONFIDENCE_CIR_TABLE_H
