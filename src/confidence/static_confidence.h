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

#include "ckpt/state_io.h"
#include "util/flat_map.h"

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

    /**
     * The profiled branches, keyed by PC, in first-seen order (the
     * flat open-addressing map SparseBucketStats uses too).
     */
    using Table = FlatMap<Entry>;

    /**
     * Record one dynamic execution of the branch at @p pc. The counts
     * add the flags rather than branching on them.
     */
    void
    record(std::uint64_t pc, bool mispredicted, bool taken = false)
    {
        Entry &entry = entries_[pc];
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
