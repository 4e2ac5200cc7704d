#include "confidence/unaliased.h"

#include "ckpt/state_helpers.h"

#include "util/bits.h"
#include "util/status.h"

namespace confsim {

UnaliasedCounterConfidence::UnaliasedCounterConfidence(
    IndexScheme scheme, CounterKind kind, std::uint32_t max_value)
    : scheme_(scheme), kind_(kind), maxValue_(max_value)
{
    if (max_value == 0)
        fatal("counter max must be >= 1");
}

std::uint64_t
UnaliasedCounterConfidence::keyOf(const BranchContext &ctx) const
{
    // Full-width index: 32 bits is the widest computeIndex supports
    // and far exceeds any finite CT, so distinct contexts that a real
    // table would fold together stay distinct here.
    return computeIndex(scheme_, ctx, 32);
}

std::uint64_t
UnaliasedCounterConfidence::bucketOf(const BranchContext &ctx) const
{
    const auto it = counters_.find(keyOf(ctx));
    // Unseen context == power-on state (counter 0 = the all-ones-CIR
    // equivalent, as for the finite tables).
    return it == counters_.end() ? 0 : it->second;
}

std::uint64_t
UnaliasedCounterConfidence::update(const BranchContext &ctx,
                                   bool correct, bool)
{
    // An unseen context enters at the power-on value 0.
    std::uint32_t &counter = counters_[keyOf(ctx)];
    const std::uint32_t before = counter;
    counter = stepCounter(kind_, before, maxValue_, correct);
    return before;
}

std::uint64_t
UnaliasedCounterConfidence::numBuckets() const
{
    return static_cast<std::uint64_t>(maxValue_) + 1;
}

std::uint64_t
UnaliasedCounterConfidence::storageBits() const
{
    const unsigned bits_per_counter = log2Exact(
        ceilPowerOfTwo(static_cast<std::uint64_t>(maxValue_) + 1));
    return counters_.size() * bits_per_counter;
}

std::string
UnaliasedCounterConfidence::name() const
{
    return std::string("unaliased-") + toString(scheme_) + "-" +
           toString(kind_) + std::to_string(maxValue_);
}

void
UnaliasedCounterConfidence::reset()
{
    counters_.clear();
}


void
UnaliasedCounterConfidence::saveState(StateWriter &out) const
{
    saveSortedMap(out, counters_, [](StateWriter &w, std::uint32_t c) {
        w.putU32(c);
    });
}

void
UnaliasedCounterConfidence::loadState(StateReader &in)
{
    loadMap(in, counters_, [](StateReader &r) { return r.getU32(); });
}

} // namespace confsim
