#include "confidence/one_level.h"

#include "ckpt/state_io.h"

#include "util/error.h"
#include "util/status.h"

namespace confsim {

const char *
toString(CirReduction reduction)
{
    switch (reduction) {
      case CirReduction::RawPattern: return "raw";
      case CirReduction::OnesCount: return "ones";
    }
    panic("unknown CirReduction");
}

const char *
toString(CounterKind kind)
{
    switch (kind) {
      case CounterKind::Saturating: return "sat";
      case CounterKind::Resetting: return "reset";
      case CounterKind::HalfReset: return "halfreset";
    }
    panic("unknown CounterKind");
}

OneLevelCirConfidence::OneLevelCirConfidence(IndexScheme scheme,
                                             std::size_t num_entries,
                                             unsigned cir_bits,
                                             CirReduction reduction,
                                             CtInit init)
    : scheme_(scheme), table_(num_entries, cir_bits, init),
      reduction_(reduction)
{
    // The table caps CIRs at 16 bits, so even raw patterns form at
    // most a 64K-bucket space.
}

std::uint64_t
OneLevelCirConfidence::readCir(const BranchContext &ctx) const
{
    return table_.read(computeIndex(scheme_, ctx, table_.indexBits()));
}

std::uint64_t
OneLevelCirConfidence::reduce(std::uint64_t cir) const
{
    return reduction_ == CirReduction::OnesCount ? popcount(cir) : cir;
}

std::uint64_t
OneLevelCirConfidence::bucketOf(const BranchContext &ctx) const
{
    return reduce(readCir(ctx));
}

std::uint64_t
OneLevelCirConfidence::update(const BranchContext &ctx, bool correct,
                              bool)
{
    return reduce(table_.update(
        computeIndex(scheme_, ctx, table_.indexBits()), correct));
}

std::uint64_t
OneLevelCirConfidence::numBuckets() const
{
    switch (reduction_) {
      case CirReduction::RawPattern:
        return std::uint64_t{1} << table_.cirBits();
      case CirReduction::OnesCount:
        return table_.cirBits() + 1;
    }
    panic("unknown CirReduction");
}

std::uint64_t
OneLevelCirConfidence::storageBits() const
{
    return table_.storageBits();
}

std::string
OneLevelCirConfidence::name() const
{
    return std::string("1lvl-") + toString(scheme_) + "-cir" +
           std::to_string(table_.cirBits()) + "-" +
           toString(reduction_) + "-" +
           std::to_string(table_.size());
}

void
OneLevelCirConfidence::reset()
{
    table_.reset();
}

bool
OneLevelCirConfidence::bucketsAreOrdered() const
{
    // A larger ones count means MORE recent mispredictions; we expose
    // ordered-ness only for buckets where larger = higher confidence,
    // which holds for neither reduction here (raw patterns are
    // unordered; ones count is inversely ordered). Consumers that want
    // an ordered threshold should use counter estimators or sort by
    // measured rate.
    return false;
}

OneLevelCounterConfidence::OneLevelCounterConfidence(
    IndexScheme scheme, std::size_t num_entries, CounterKind kind,
    std::uint32_t max_value, std::uint32_t initial_value)
    : scheme_(scheme), kind_(kind), maxValue_(max_value),
      initialValue_(initial_value > max_value ? max_value
                                              : initial_value)
{
    if (!isPowerOfTwo(num_entries))
        fatal("confidence counter table size must be a power of two");
    if (max_value == 0 || max_value > 255)
        fatal("confidence counter max must be in [1, 255]");
    indexBits_ = log2Exact(num_entries);
    // Hardware stores ceil(log2(max + 1)) bits per counter.
    bitsPerCounter_ = log2Exact(ceilPowerOfTwo(
        static_cast<std::uint64_t>(max_value) + 1));
    counters_.assign(num_entries,
                     static_cast<std::uint8_t>(initialValue_));
}

std::uint64_t
OneLevelCounterConfidence::bucketOf(const BranchContext &ctx) const
{
    return counters_[computeIndex(scheme_, ctx, indexBits_)];
}

std::uint64_t
OneLevelCounterConfidence::update(const BranchContext &ctx,
                                  bool correct, bool)
{
    std::uint8_t &counter =
        counters_[computeIndex(scheme_, ctx, indexBits_)];
    const std::uint8_t before = counter;
    counter = static_cast<std::uint8_t>(
        stepCounter(kind_, before, maxValue_, correct));
    return before;
}

std::uint64_t
OneLevelCounterConfidence::numBuckets() const
{
    return static_cast<std::uint64_t>(maxValue_) + 1;
}

std::uint64_t
OneLevelCounterConfidence::storageBits() const
{
    return static_cast<std::uint64_t>(counters_.size()) *
           bitsPerCounter_;
}

std::string
OneLevelCounterConfidence::name() const
{
    return std::string("1lvl-") + toString(scheme_) + "-" +
           toString(kind_) + std::to_string(maxValue_) + "-" +
           std::to_string(counters_.size());
}

void
OneLevelCounterConfidence::reset()
{
    counters_.assign(counters_.size(), initialValue_);
}


void
OneLevelCirConfidence::saveState(StateWriter &out) const
{
    table_.saveState(out);
}

void
OneLevelCirConfidence::loadState(StateReader &in)
{
    table_.loadState(in);
}

void
OneLevelCounterConfidence::saveState(StateWriter &out) const
{
    // Counters travel as u32 so checkpoints written by 32-bit tables
    // still restore.
    out.putU64(counters_.size());
    for (const std::uint8_t counter : counters_)
        out.putU32(counter);
}

void
OneLevelCounterConfidence::loadState(StateReader &in)
{
    in.expectU64(counters_.size(), "counter CT size");
    for (std::uint8_t &counter : counters_) {
        const std::uint32_t value = in.getU32();
        if (value > maxValue_) {
            fatal(ErrorCategory::kCheckpoint,
                  "checkpoint confidence counter " +
                      std::to_string(value) + " exceeds its max " +
                      std::to_string(maxValue_));
        }
        counter = static_cast<std::uint8_t>(value);
    }
}

} // namespace confsim
