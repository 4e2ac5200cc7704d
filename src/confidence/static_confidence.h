/**
 * @file
 * Profile-based static confidence (paper Section 2).
 *
 * The simulation driver profiles each static branch's prediction
 * accuracy under the chosen dynamic predictor (StaticBranchProfile).
 * Ranking static branches by misprediction rate then gives the
 * method's confidence curve: ConfidenceCurve::fromSparseStats over
 * the profile's per-branch counts (fig02's "static" series).
 *
 * The paper treats this method as an optimistic baseline ("perfect
 * profiling": the profile input equals the evaluation input), and so do
 * we.
 */

#ifndef CONFSIM_CONFIDENCE_STATIC_CONFIDENCE_H
#define CONFSIM_CONFIDENCE_STATIC_CONFIDENCE_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ckpt/state_io.h"

namespace confsim {

/** Per-static-branch prediction accuracy profile. */
class StaticBranchProfile
{
  public:
    /** Accumulated counts for one static branch. */
    struct Entry
    {
        std::uint64_t executions = 0;
        std::uint64_t mispredictions = 0;
        std::uint64_t takenCount = 0;

        /** @return misprediction rate (0 when never executed). */
        double
        rate() const
        {
            return executions == 0
                       ? 0.0
                       : static_cast<double>(mispredictions) /
                             static_cast<double>(executions);
        }

        /** @return fraction of executions that were taken. */
        double
        takenRate() const
        {
            return executions == 0
                       ? 0.0
                       : static_cast<double>(takenCount) /
                             static_cast<double>(executions);
        }
    };

    /** One profiled branch: `first` is its PC, `second` its counts. */
    using Slot = std::pair<std::uint64_t, Entry>;

    /**
     * The profiled branches, keyed by PC. They sit densely in
     * first-seen order; a flat open-addressing index (power-of-two
     * size, multiplicative hash of the whole PC, linear probing, at
     * most half full) maps each PC to its position, so a lookup is a
     * multiply, a shift and two loads, with no division and no node
     * to chase.
     *
     * Reads like a const std::unordered_map: range-for over (pc, entry)
     * pairs, find(), at() and size(). Iteration follows first-seen
     * order.
     */
    class Table
    {
      public:
        using key_type = std::uint64_t; //!< for saveSortedMap()
        using const_iterator = std::vector<Slot>::const_iterator;

        const_iterator begin() const { return slots_.begin(); }
        const_iterator end() const { return slots_.end(); }

        /** @return the branch at @p pc, or end(). */
        const_iterator
        find(std::uint64_t pc) const
        {
            const std::uint32_t at = lookup(pc);
            return at == 0 ? end() : begin() + (at - 1);
        }

        /** @return the counts at @p pc. @throws std::out_of_range */
        const Entry &at(std::uint64_t pc) const;

        /** @return number of profiled branches. */
        std::size_t size() const { return slots_.size(); }

      private:
        friend class StaticBranchProfile;

        /** @return the index bucket holding @p pc, or the free one. */
        std::size_t
        bucketOf(std::uint64_t pc) const
        {
            const std::size_t wrap = index_.size() - 1;
            std::size_t i = static_cast<std::size_t>(
                (pc * 0x9E3779B97F4A7C15u) >> shift_);
            while (index_[i] != 0 && slots_[index_[i] - 1].first != pc)
                i = (i + 1) & wrap;
            return i;
        }

        /** @return @p pc's position + 1, or 0 when absent. */
        std::uint32_t
        lookup(std::uint64_t pc) const
        {
            return index_.empty() ? 0 : index_[bucketOf(pc)];
        }

        /** @return the counts at @p pc, added empty if absent. */
        Entry &
        findOrInsert(std::uint64_t pc)
        {
            const std::uint32_t at = lookup(pc);
            if (at != 0) [[likely]]
                return slots_[at - 1].second;
            return insert(pc);
        }

        Entry &insert(std::uint64_t pc);

        std::vector<Slot> slots_;          //!< first-seen order
        std::vector<std::uint32_t> index_; //!< position + 1; 0 = free
        unsigned shift_ = 64;              //!< 64 - log2(index_.size())
    };

    /**
     * Record one dynamic execution of the branch at @p pc. The counts
     * add the flags rather than branching on them.
     */
    void
    record(std::uint64_t pc, bool mispredicted, bool taken = false)
    {
        Entry &entry = entries_.findOrInsert(pc);
        ++entry.executions;
        entry.mispredictions += mispredicted;
        entry.takenCount += taken;
    }

    /** @return per-PC entries. */
    const Table &entries() const { return entries_; }

    /** @return number of profiled static branches. */
    std::size_t size() const { return entries_.size(); }

    /** Checkpoint the accumulated counts (sorted-key encoding). */
    void saveState(StateWriter &out) const;

    /** Restore a saveState() snapshot, replacing current counts. */
    void loadState(StateReader &in);

    /** @return total dynamic executions across all branches. */
    std::uint64_t totalExecutions() const;

    /** @return total mispredictions across all branches. */
    std::uint64_t totalMispredictions() const;

  private:
    Table entries_;
};

} // namespace confsim

#endif // CONFSIM_CONFIDENCE_STATIC_CONFIDENCE_H
