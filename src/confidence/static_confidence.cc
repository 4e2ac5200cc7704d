#include "confidence/static_confidence.h"

#include "ckpt/state_helpers.h"

namespace confsim {

std::uint64_t
StaticBranchProfile::totalExecutions() const
{
    std::uint64_t total = 0;
    for (const auto &[pc, entry] : entries_)
        total += entry.executions;
    return total;
}

std::uint64_t
StaticBranchProfile::totalMispredictions() const
{
    std::uint64_t total = 0;
    for (const auto &[pc, entry] : entries_)
        total += entry.mispredictions;
    return total;
}

void
StaticBranchProfile::saveState(StateWriter &out) const
{
    saveSortedMap(out, entries_, [](StateWriter &w, const Entry &entry) {
        w.putU64(entry.executions);
        w.putU64(entry.mispredictions);
        w.putU64(entry.takenCount);
    });
}

void
StaticBranchProfile::loadState(StateReader &in)
{
    entries_.clear();
    const std::uint64_t count = in.getU64();
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t pc = in.getU64();
        Entry &entry = entries_[pc];
        entry.executions = in.getU64();
        entry.mispredictions = in.getU64();
        entry.takenCount = in.getU64();
    }
}

} // namespace confsim
