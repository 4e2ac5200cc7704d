#include "predictor/bimodal.h"

#include "ckpt/state_helpers.h"

#include "util/bits.h"

namespace confsim {

namespace {

/** "Weakly taken" starting value for an n-bit counter: (max + 1) / 2. */
SaturatingCounter
weaklyTakenCounter(unsigned counter_bits)
{
    const auto max = static_cast<std::uint32_t>(mask(counter_bits));
    return SaturatingCounter(max, (max + 1) / 2);
}

} // namespace

BimodalPredictor::BimodalPredictor(std::size_t num_entries,
                                   unsigned counter_bits)
    : table_(num_entries, weaklyTakenCounter(counter_bits), counter_bits),
      counterBits_(counter_bits)
{}

std::uint64_t
BimodalPredictor::indexOf(std::uint64_t pc) const
{
    // Instructions are word aligned; drop the byte-offset bits.
    return pc >> 2;
}

bool
BimodalPredictor::predict(std::uint64_t pc) const
{
    return table_[indexOf(pc)].predictsTaken();
}

void
BimodalPredictor::update(std::uint64_t pc, bool taken)
{
    table_[indexOf(pc)].step(taken);
}

std::uint64_t
BimodalPredictor::storageBits() const
{
    return table_.storageBits();
}

std::string
BimodalPredictor::name() const
{
    return "bimodal-" + std::to_string(table_.size());
}

void
BimodalPredictor::reset()
{
    table_.fill(weaklyTakenCounter(counterBits_));
}


void
BimodalPredictor::saveState(StateWriter &out) const
{
    saveCounterTable(out, table_);
}

void
BimodalPredictor::loadState(StateReader &in)
{
    loadCounterTable(in, table_);
}

} // namespace confsim
