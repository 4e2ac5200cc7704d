#include "confidence/two_level.h"

#include "ckpt/state_io.h"

#include "util/status.h"

namespace confsim {

const char *
toString(SecondLevelIndex index)
{
    switch (index) {
      case SecondLevelIndex::Cir: return "CIR";
      case SecondLevelIndex::CirXorPc: return "CIRxorPC";
      case SecondLevelIndex::CirXorBhr: return "CIRxorBHR";
      case SecondLevelIndex::CirXorPcXorBhr: return "CIRxorPCxorBHR";
    }
    panic("unknown SecondLevelIndex");
}

TwoLevelConfidence::TwoLevelConfidence(IndexScheme first_scheme,
                                       std::size_t first_entries,
                                       unsigned first_cir_bits,
                                       SecondLevelIndex second_index,
                                       unsigned second_cir_bits,
                                       CirReduction reduction,
                                       CtInit init)
    : firstScheme_(first_scheme),
      firstTable_(first_entries, first_cir_bits, init),
      secondIndex_(second_index),
      secondTable_(std::size_t{1} << first_cir_bits, second_cir_bits,
                   init),
      reduction_(reduction)
{
    // Both tables cap CIRs at 16 bits, so the level-2 table has at
    // most 64K entries and raw patterns at most 64K buckets.
}

std::uint64_t
TwoLevelConfidence::secondIndexOf(const BranchContext &ctx,
                                  std::uint64_t first_cir) const
{
    const unsigned bits = secondTable_.indexBits();
    switch (secondIndex_) {
      case SecondLevelIndex::Cir:
        return first_cir;
      case SecondLevelIndex::CirXorPc:
        return first_cir ^
               computeIndex(IndexScheme::Pc, ctx, bits);
      case SecondLevelIndex::CirXorBhr:
        return first_cir ^
               computeIndex(IndexScheme::Bhr, ctx, bits);
      case SecondLevelIndex::CirXorPcXorBhr:
        return first_cir ^
               computeIndex(IndexScheme::PcXorBhr, ctx, bits);
    }
    panic("unknown SecondLevelIndex");
}

std::uint64_t
TwoLevelConfidence::reduce(std::uint64_t cir) const
{
    return reduction_ == CirReduction::OnesCount ? popcount(cir) : cir;
}

std::uint64_t
TwoLevelConfidence::bucketOf(const BranchContext &ctx) const
{
    const std::uint64_t first_cir = firstTable_.read(
        computeIndex(firstScheme_, ctx, firstTable_.indexBits()));
    return reduce(secondTable_.read(secondIndexOf(ctx, first_cir)));
}

std::uint64_t
TwoLevelConfidence::update(const BranchContext &ctx, bool correct,
                           bool)
{
    // Level 1 shifts after its pre-update pattern has formed the
    // level-2 index (the one bucketOf() saw).
    const std::uint64_t first_cir = firstTable_.update(
        computeIndex(firstScheme_, ctx, firstTable_.indexBits()),
        correct);
    return reduce(
        secondTable_.update(secondIndexOf(ctx, first_cir), correct));
}

std::uint64_t
TwoLevelConfidence::numBuckets() const
{
    switch (reduction_) {
      case CirReduction::RawPattern:
        return std::uint64_t{1} << secondTable_.cirBits();
      case CirReduction::OnesCount:
        return secondTable_.cirBits() + 1;
    }
    panic("unknown CirReduction");
}

std::uint64_t
TwoLevelConfidence::storageBits() const
{
    return firstTable_.storageBits() + secondTable_.storageBits();
}

std::string
TwoLevelConfidence::name() const
{
    return std::string("2lvl-") + toString(firstScheme_) + "-" +
           toString(secondIndex_) + "-" + toString(reduction_);
}

void
TwoLevelConfidence::reset()
{
    firstTable_.reset();
    secondTable_.reset();
}


void
TwoLevelConfidence::saveState(StateWriter &out) const
{
    firstTable_.saveState(out);
    secondTable_.saveState(out);
}

void
TwoLevelConfidence::loadState(StateReader &in)
{
    firstTable_.loadState(in);
    secondTable_.loadState(in);
}

} // namespace confsim
