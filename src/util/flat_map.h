/**
 * @file
 * FlatMap: a flat hash table from 64-bit keys to values, shared by
 * the static branch profile's per-PC counts and SparseBucketStats'
 * per-key buckets.
 *
 * Entries sit densely in first-seen order; a flat open-addressing
 * index (power-of-two size, multiplicative hash of the whole key,
 * linear probing, at most half full) maps each key to its position,
 * so a lookup is a multiply, a shift and two loads, with no division
 * and no node to chase.
 */

#ifndef CONFSIM_UTIL_FLAT_MAP_H
#define CONFSIM_UTIL_FLAT_MAP_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/bits.h"

namespace confsim {

/**
 * Map from 64-bit keys to @p Value that reads like a std::unordered_map:
 * range-for over (key, value) pairs, find(), at(), size(), operator[]
 * (insert a value-initialised entry when absent) and clear(). Iteration
 * follows first-seen order; entries are never erased one at a time.
 */
template <typename Value>
class FlatMap
{
  public:
    using key_type = std::uint64_t;
    using value_type = std::pair<std::uint64_t, Value>;
    using const_iterator =
        typename std::vector<value_type>::const_iterator;

    const_iterator begin() const { return slots_.begin(); }
    const_iterator end() const { return slots_.end(); }

    /** @return the entry at @p key, or end(). */
    const_iterator
    find(std::uint64_t key) const
    {
        const std::uint32_t at = lookup(key);
        return at == 0 ? end() : begin() + (at - 1);
    }

    /** @return the value at @p key. @throws std::out_of_range */
    const Value &
    at(std::uint64_t key) const
    {
        const std::uint32_t at = lookup(key);
        if (at == 0)
            throw std::out_of_range("no entry at key " +
                                    std::to_string(key));
        return slots_[at - 1].second;
    }

    /** @return the value at @p key, added value-initialised if absent. */
    Value &
    operator[](std::uint64_t key)
    {
        const std::uint32_t at = lookup(key);
        if (at != 0) [[likely]]
            return slots_[at - 1].second;
        return insert(key);
    }

    /** @return number of keys. */
    std::size_t size() const { return slots_.size(); }

    /** Drop every entry and the index. */
    void clear() { *this = FlatMap{}; }

  private:
    /** @return the index bucket holding @p key, or the free one. */
    std::size_t
    bucketOf(std::uint64_t key) const
    {
        const std::size_t wrap = index_.size() - 1;
        std::size_t i = static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15u) >> shift_);
        while (index_[i] != 0 && slots_[index_[i] - 1].first != key)
            i = (i + 1) & wrap;
        return i;
    }

    /** @return @p key's position + 1, or 0 when absent. */
    std::uint32_t
    lookup(std::uint64_t key) const
    {
        return index_.empty() ? 0 : index_[bucketOf(key)];
    }

    Value &
    insert(std::uint64_t key)
    {
        // Keep the index at most half full (64 buckets at first).
        if (2 * (slots_.size() + 1) > index_.size()) {
            const std::size_t buckets =
                std::max<std::size_t>(64, 2 * index_.size());
            index_.assign(buckets, 0);
            shift_ = 64 - log2Exact(buckets);
            for (std::size_t i = 0; i < slots_.size(); ++i)
                index_[bucketOf(slots_[i].first)] =
                    static_cast<std::uint32_t>(i + 1);
        }
        const std::size_t bucket = bucketOf(key);
        slots_.emplace_back(key, Value{});
        index_[bucket] = static_cast<std::uint32_t>(slots_.size());
        return slots_.back().second;
    }

    std::vector<value_type> slots_;    //!< first-seen order
    std::vector<std::uint32_t> index_; //!< position + 1; 0 = free
    unsigned shift_ = 64;              //!< 64 - log2(index_.size())
};

} // namespace confsim

#endif // CONFSIM_UTIL_FLAT_MAP_H
