#include "confidence/static_confidence.h"

#include "ckpt/state_helpers.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/bits.h"

namespace confsim {

const StaticBranchProfile::Entry &
StaticBranchProfile::Table::at(std::uint64_t pc) const
{
    const std::uint32_t at = lookup(pc);
    if (at == 0) {
        throw std::out_of_range("static profile has no branch at pc " +
                                std::to_string(pc));
    }
    return slots_[at - 1].second;
}

StaticBranchProfile::Entry &
StaticBranchProfile::Table::insert(std::uint64_t pc)
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
    const std::size_t bucket = bucketOf(pc);
    slots_.emplace_back(pc, Entry{});
    index_[bucket] = static_cast<std::uint32_t>(slots_.size());
    return slots_.back().second;
}

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
    entries_ = Table{};
    const std::uint64_t count = in.getU64();
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t pc = in.getU64();
        Entry &entry = entries_.findOrInsert(pc);
        entry.executions = in.getU64();
        entry.mispredictions = in.getU64();
        entry.takenCount = in.getU64();
    }
}

} // namespace confsim
