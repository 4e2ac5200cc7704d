/**
 * @file
 * Set-associative, partially-tagged confidence table.
 *
 * Section 5.3 identifies aliasing as the small-table failure mode and
 * notes that resetting counters *amplify* it (one aliased miss resets
 * a whole streak). The classic microarchitectural answer is
 * associativity plus tags: spend some of the storage budget on partial
 * tags so different contexts stop silently sharing counters.
 *
 * This estimator implements an N-way set-associative table of
 * resetting/saturating counters with per-entry partial tags and LRU
 * replacement. A lookup that misses every way allocates (evicting the
 * LRU way) with the power-on counter value; `bucketOf` for a missing
 * context also reports the power-on value, matching the allocate-on-
 * update discipline.
 *
 * bench/ablation_aliasing compares it against direct-mapped tables at
 * equal storage, quantifying when tags pay for themselves.
 */

#ifndef CONFSIM_CONFIDENCE_ASSOCIATIVE_CT_H
#define CONFSIM_CONFIDENCE_ASSOCIATIVE_CT_H

#include <vector>

#include "confidence/confidence_estimator.h"
#include "confidence/index_scheme.h"
#include "confidence/one_level.h"

namespace confsim {

/** N-way set-associative tagged counter confidence table. */
class AssociativeCounterConfidence : public ConfidenceEstimator
{
  public:
    /**
     * @param scheme Index formation (set selection + tag source).
     * @param num_sets Number of sets (power of two).
     * @param ways Associativity (>= 1).
     * @param tag_bits Partial tag width (1..16); tags come from the
     *        index bits above the set-selection field.
     * @param kind Counter style.
     * @param max_value Counter ceiling (16 in the paper's geometry).
     */
    AssociativeCounterConfidence(IndexScheme scheme,
                                 std::size_t num_sets, unsigned ways,
                                 unsigned tag_bits, CounterKind kind,
                                 std::uint32_t max_value = 16);

    /** Counts one lookup (and a tag miss when no way matches). */
    std::uint64_t bucketOf(const BranchContext &ctx) const override;

    /**
     * Counts one lookup too, since it reads the bucket it returns: a
     * replay counts one lookup per branch, and a caller that also calls
     * bucketOf() counts two with the same miss ratio.
     */
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

    /** @return lookups that missed every way (for interference
     *  reporting). */
    std::uint64_t tagMisses() const { return tagMisses_; }

    /** @return total lookups. */
    std::uint64_t lookups() const { return lookups_; }

  private:
    struct Entry
    {
        std::uint16_t tag = 0;
        std::uint8_t counter = 0;
        std::uint8_t lru = 0; //!< age; 0 = most recently used
        bool valid = false;
    };

    /** @return {set index, partial tag} for this context. */
    std::pair<std::uint64_t, std::uint16_t>
    locate(const BranchContext &ctx) const;

    /** Find the way holding @p tag in @p set, or ways_ if absent. */
    unsigned findWay(std::uint64_t set, std::uint16_t tag) const;

    void touch(std::uint64_t set, unsigned way);

    IndexScheme scheme_;
    unsigned setBits_;
    unsigned ways_;
    unsigned tagBits_;
    CounterKind kind_;
    std::uint32_t maxValue_;
    unsigned bitsPerCounter_;
    std::vector<Entry> entries_; //!< num_sets * ways, set-major
    mutable std::uint64_t tagMisses_ = 0;
    mutable std::uint64_t lookups_ = 0;
};

} // namespace confsim

#endif // CONFSIM_CONFIDENCE_ASSOCIATIVE_CT_H
