/**
 * @file
 * Bit-manipulation helpers used throughout the simulator: contiguous
 * bit-field extraction, masks, XOR folding, and popcount. All helpers are
 * constexpr and operate on std::uint64_t so that program counters, history
 * registers, and CIR patterns share one set of primitives.
 */

#ifndef CONFSIM_UTIL_BITS_H
#define CONFSIM_UTIL_BITS_H

#include <bit>
#include <cstdint>

namespace confsim {

/**
 * Produce a mask with the low @p n bits set.
 *
 * @param n Number of low-order bits to set; must be <= 64.
 * @return (1 << n) - 1, computed without undefined behaviour for n == 64.
 */
constexpr std::uint64_t
mask(unsigned n)
{
    return n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
}

/**
 * Extract the bit field [lo, hi] (inclusive on both ends) of @p value.
 *
 * Mirrors the paper's usage such as "bits 17 through 2 of the program
 * counter": bitsOf(pc, 17, 2).
 *
 * @param value Source word.
 * @param hi Most-significant bit position of the field.
 * @param lo Least-significant bit position of the field.
 * @return The field, right-justified.
 */
constexpr std::uint64_t
bitsOf(std::uint64_t value, unsigned hi, unsigned lo)
{
    return (value >> lo) & mask(hi - lo + 1);
}

/** Extract a single bit of @p value. @return 0 or 1. */
constexpr std::uint64_t
bitOf(std::uint64_t value, unsigned pos)
{
    return (value >> pos) & 1;
}

/**
 * Fold @p value down to @p width bits by XORing successive width-bit
 * chunks together. Used to hash wide values (e.g. a 32-bit PC) into a
 * narrow table index while preserving entropy from all input bits.
 */
constexpr std::uint64_t
xorFold(std::uint64_t value, unsigned width)
{
    if (width == 0)
        return 0;
    std::uint64_t out = 0;
    while (value != 0) {
        out ^= value & mask(width);
        value >>= width;
    }
    return out;
}

/**
 * Count the number of set bits (the ones-count reduction, a packed
 * bank's rank). A branch-free SWAR count: on a baseline x86-64 target
 * (no POPCNT) std::popcount is a call into libgcc, this is a handful
 * of inline shifts, masks and one multiply.
 */
constexpr unsigned
popcount(std::uint64_t value)
{
    value -= (value >> 1) & 0x5555555555555555u;
    value = (value & 0x3333333333333333u) +
            ((value >> 2) & 0x3333333333333333u);
    value = (value + (value >> 4)) & 0x0F0F0F0F0F0F0F0Fu;
    return static_cast<unsigned>((value * 0x0101010101010101u) >> 56);
}

/** @return true iff @p value is a power of two (and non-zero). */
constexpr bool
isPowerOfTwo(std::uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/**
 * Integer log2 of a power of two.
 *
 * @pre isPowerOfTwo(value)
 */
constexpr unsigned
log2Exact(std::uint64_t value)
{
    unsigned n = 0;
    while ((value >> n) != 1)
        ++n;
    return n;
}

/** Round @p value up to the next power of two (identity on powers). */
constexpr std::uint64_t
ceilPowerOfTwo(std::uint64_t value)
{
    if (value <= 1)
        return 1;
    return std::uint64_t{1} << (64 - std::countl_zero(value - 1));
}

} // namespace confsim

#endif // CONFSIM_UTIL_BITS_H
