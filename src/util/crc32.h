/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the integrity
 * check under every CBT2 trace chunk and header, every checkpoint
 * component and file, every configuration fingerprint and every run
 * manifest's stream checksum.
 *
 * Header-only, portable C++ (no intrinsics, no target flags). The
 * kernel is slicing-by-8: eight 256-entry tables, built at compile
 * time, fold eight input bytes per step with eight independent lookups
 * instead of eight dependent ones, and the bytewise loop takes the
 * tail. Both forms compute the same CRC, so every stored value stays
 * bit-identical. One-shot and incremental interfaces are provided.
 */

#ifndef CONFSIM_UTIL_CRC32_H
#define CONFSIM_UTIL_CRC32_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace confsim {

namespace detail {

/**
 * Slice tables: [0] is the classic bytewise table, and [k][i] is the
 * state that byte i, absorbed into a zero state, leaves after k more
 * zero bytes, so slice k accounts for a byte that sits k bytes before
 * the end of an 8-byte block.
 */
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables
makeCrc32Tables()
{
    Crc32Tables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t value = i;
        for (int bit = 0; bit < 8; ++bit) {
            value = (value >> 1) ^ ((value & 1) ? 0xEDB88320u : 0u);
        }
        tables[0][i] = value;
    }
    for (std::size_t k = 1; k < tables.size(); ++k) {
        for (std::size_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
        }
    }
    return tables;
}

inline constexpr Crc32Tables kCrc32Tables = makeCrc32Tables();

/** @return the little-endian 32-bit word at @p p (any host). */
inline std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

} // namespace detail

/**
 * Incremental CRC-32 accumulator.
 *
 * Feed bytes with update(); value() may be read at any point and equals
 * the one-shot crc32() of everything fed so far, however the input was
 * split.
 */
class Crc32
{
  public:
    /** Absorb @p size bytes at @p data. */
    void
    update(const void *data, std::size_t size)
    {
        const auto &t = detail::kCrc32Tables;
        const auto *bytes = static_cast<const std::uint8_t *>(data);
        std::uint32_t state = state_;
        for (; size >= 8; bytes += 8, size -= 8) {
            const std::uint32_t lo = state ^ detail::loadLe32(bytes);
            const std::uint32_t hi = detail::loadLe32(bytes + 4);
            state = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
                    t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
                    t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
                    t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
        }
        for (; size != 0; ++bytes, --size)
            state = (state >> 8) ^ t[0][(state ^ *bytes) & 0xFF];
        state_ = state;
    }

    /** Absorb a single byte. */
    void
    update(std::uint8_t byte)
    {
        state_ = (state_ >> 8) ^
                 detail::kCrc32Tables[0][(state_ ^ byte) & 0xFF];
    }

    /** @return the CRC of all bytes absorbed so far. */
    std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

    /** Restore the empty-input state. */
    void reset() { state_ = 0xFFFFFFFFu; }

  private:
    std::uint32_t state_ = 0xFFFFFFFFu;
};

/** One-shot CRC-32 of a byte buffer. */
inline std::uint32_t
crc32(const void *data, std::size_t size)
{
    Crc32 crc;
    crc.update(data, size);
    return crc.value();
}

} // namespace confsim

#endif // CONFSIM_UTIL_CRC32_H
