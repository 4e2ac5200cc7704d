#include "confidence/cir_table.h"

#include "ckpt/state_io.h"

#include "util/error.h"
#include "util/rng.h"
#include "util/status.h"

namespace confsim {

const char *
toString(CtInit init)
{
    switch (init) {
      case CtInit::Ones: return "ones";
      case CtInit::Zeros: return "zeros";
      case CtInit::Random: return "random";
      case CtInit::LastBit: return "lastbit";
    }
    panic("unknown CtInit");
}

CirTable::CirTable(std::size_t num_entries, unsigned cir_bits,
                   CtInit init, std::uint64_t seed)
    : cirBits_(cir_bits), init_(init), seed_(seed)
{
    if (!isPowerOfTwo(num_entries))
        fatal("CIR table size must be a power of two");
    if (cir_bits == 0 || cir_bits > 16)
        fatal("CIR width must be in [1, 16]");
    cirMask_ = static_cast<unsigned>(mask(cir_bits));
    indexBits_ = log2Exact(num_entries);
    indexMask_ = mask(indexBits_);
    entries_.resize(num_entries);
    reset();
}

void
CirTable::reset()
{
    switch (init_) {
      case CtInit::Ones:
        for (auto &entry : entries_)
            entry = mask(cirBits_);
        break;
      case CtInit::Zeros:
        for (auto &entry : entries_)
            entry = 0;
        break;
      case CtInit::Random: {
        Rng rng(seed_);
        for (auto &entry : entries_)
            entry = rng.next() & mask(cirBits_);
        break;
      }
      case CtInit::LastBit:
        for (auto &entry : entries_)
            entry = std::uint64_t{1} << (cirBits_ - 1);
        break;
    }
}


void
CirTable::saveState(StateWriter &out) const
{
    // Entries travel as u64 so checkpoints written by 64-bit tables
    // still restore.
    out.putU64(entries_.size());
    out.putU64(cirBits_);
    for (const std::uint16_t entry : entries_)
        out.putU64(entry);
}

void
CirTable::loadState(StateReader &in)
{
    in.expectU64(entries_.size(), "CIR table size");
    in.expectU64(cirBits_, "CIR width");
    for (std::uint16_t &entry : entries_) {
        const std::uint64_t pattern = in.getU64();
        if (pattern > cirMask_) {
            fatal(ErrorCategory::kCheckpoint,
                  "checkpoint CIR pattern " + std::to_string(pattern) +
                      " exceeds the " + std::to_string(cirBits_) +
                      "-bit width");
        }
        entry = static_cast<std::uint16_t>(pattern);
    }
}

} // namespace confsim
