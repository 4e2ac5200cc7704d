/**
 * @file
 * Byte-level primitives for checkpoint serialization.
 *
 * StateWriter appends fixed-width little-endian values to a growable
 * byte buffer; StateReader consumes them back with hard bounds checks,
 * one append or one check per value. Every multi-byte value is packed
 * explicitly by shifts so the encoding is identical across hosts
 * regardless of endianness, and
 * doubles travel as their IEEE-754 bit patterns so a restored
 * accumulator is bit-exact, not merely "close".
 *
 * Readers fail loudly: running off the end of a payload or reading a
 * mismatched guard value means the checkpoint does not describe the
 * component being restored, and resuming anyway would silently produce
 * wrong results. fatal() (an exception) lets the caller fall back a
 * generation instead.
 */

#ifndef CONFSIM_CKPT_STATE_IO_H
#define CONFSIM_CKPT_STATE_IO_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/status.h"

namespace confsim {

/** Append-only little-endian encoder for component state payloads. */
class StateWriter
{
  public:
    void putU8(std::uint8_t v) { put(v); }
    void putU16(std::uint16_t v) { put(v); }
    void putU32(std::uint32_t v) { put(v); }
    void putU64(std::uint64_t v) { put(v); }

    void putBool(bool v) { putU8(v ? 1 : 0); }

    /** Bit-pattern transport: restored doubles compare bitwise-equal. */
    void putF64(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof v);
        std::memcpy(&bits, &v, sizeof bits);
        putU64(bits);
    }

    void putString(const std::string &s)
    {
        putU32(static_cast<std::uint32_t>(s.size()));
        putBytes(s.data(), s.size());
    }

    void putBytes(const void *data, std::size_t size)
    {
        if (size != 0)
            std::memcpy(extend(size), data, size);
    }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    /** Append @p v's little-endian bytes in one step. */
    template <typename T>
    void
    put(T v)
    {
        std::uint8_t le[sizeof(T)];
        for (std::size_t i = 0; i < sizeof(T); ++i)
            le[i] = static_cast<std::uint8_t>(v >> (8 * i));
        std::memcpy(extend(sizeof(T)), le, sizeof(T));
    }

    /**
     * Lengthen the buffer by @p n bytes; @return where they start.
     * Every append comes here, and only reserveFor() allocates, out
     * of line: when GCC 12 at -O3 sees a vector's reallocation inline
     * with sizes it can fold, it reports false -Warray-bounds and
     * -Wstringop-overflow errors (on putU64(0) after a run of appends,
     * on an insert into a fresh vector). The size is read after any
     * growth, so resize() extends in place by the constant @p n and
     * its zero fill stays inline.
     */
    std::uint8_t *
    extend(std::size_t n)
    {
        if (bytes_.capacity() - bytes_.size() < n) [[unlikely]]
            reserveFor(n);
        const std::size_t at = bytes_.size();
        bytes_.resize(at + n);
        return bytes_.data() + at;
    }

    /** Make room for @p n more bytes, at least doubling the capacity. */
    [[gnu::noinline]] void
    reserveFor(std::size_t n)
    {
        bytes_.reserve(std::max(2 * bytes_.capacity(), bytes_.size() + n));
    }

    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked decoder over a component state payload. */
class StateReader
{
  public:
    StateReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit StateReader(const std::vector<std::uint8_t> &bytes)
        : StateReader(bytes.data(), bytes.size())
    {
    }

    std::uint8_t getU8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint16_t getU16() { return get<std::uint16_t>(); }
    std::uint32_t getU32() { return get<std::uint32_t>(); }
    std::uint64_t getU64() { return get<std::uint64_t>(); }

    bool getBool() { return getU8() != 0; }

    double getF64()
    {
        const std::uint64_t bits = getU64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string getString()
    {
        const std::uint32_t n = getU32();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    /**
     * Consume a u64 and require it to equal @p expected. Guards protect
     * restores against configuration drift: a table serialized at one
     * size must not be poured into a table of another size.
     */
    void expectU64(std::uint64_t expected, const char *what)
    {
        const std::uint64_t got = getU64();
        if (got != expected)
            fatal(ErrorCategory::kCheckpoint, std::string("checkpoint state mismatch for ") + what +
                  ": stored " + std::to_string(got) + ", expected " +
                  std::to_string(expected));
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

  private:
    /** Consume one little-endian value after a single bounds check. */
    template <typename T>
    T
    get()
    {
        need(sizeof(T));
        T v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v = static_cast<T>(v | T{data_[pos_ + i]} << (8 * i));
        pos_ += sizeof(T);
        return v;
    }

    void need(std::size_t n) const
    {
        if (size_ - pos_ < n)
            fatal(ErrorCategory::kCheckpoint, "checkpoint payload truncated: wanted " +
                  std::to_string(n) + " byte(s), " +
                  std::to_string(size_ - pos_) + " left");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace confsim

#endif // CONFSIM_CKPT_STATE_IO_H
