#include "predictor/gselect.h"

#include "ckpt/state_helpers.h"

#include "util/bits.h"
#include "util/status.h"

namespace confsim {

namespace {

SaturatingCounter
weaklyTakenCounter(unsigned counter_bits)
{
    const auto max = static_cast<std::uint32_t>(mask(counter_bits));
    return SaturatingCounter(max, (max + 1) / 2);
}

} // namespace

GselectPredictor::GselectPredictor(std::size_t num_entries,
                                   unsigned history_bits,
                                   unsigned counter_bits)
    : table_(num_entries, weaklyTakenCounter(counter_bits),
             counter_bits),
      history_(history_bits), counterBits_(counter_bits)
{
    if (history_bits >= table_.indexBits())
        fatal("gselect history depth must be less than the index "
              "width (some PC bits must remain)");
}

std::uint64_t
GselectPredictor::indexOf(std::uint64_t pc) const
{
    const unsigned pc_bits = table_.indexBits() - history_.width();
    const std::uint64_t pc_field = bitsOf(pc, pc_bits + 1, 2);
    return pc_field | (history_.value() << pc_bits);
}

bool
GselectPredictor::predict(std::uint64_t pc) const
{
    return table_[indexOf(pc)].predictsTaken();
}

void
GselectPredictor::update(std::uint64_t pc, bool taken)
{
    table_[indexOf(pc)].step(taken);
    history_.recordOutcome(taken);
}

std::uint64_t
GselectPredictor::storageBits() const
{
    return table_.storageBits() + history_.width();
}

std::string
GselectPredictor::name() const
{
    return "gselect-" + std::to_string(table_.size()) + "x" +
           std::to_string(counterBits_) + "b-h" +
           std::to_string(history_.width());
}

void
GselectPredictor::reset()
{
    table_.fill(weaklyTakenCounter(counterBits_));
    history_.reset();
}


void
GselectPredictor::saveState(StateWriter &out) const
{
    saveCounterTable(out, table_);
    out.putU64(history_.value());
}

void
GselectPredictor::loadState(StateReader &in)
{
    loadCounterTable(in, table_);
    history_.setValue(in.getU64());
}

} // namespace confsim
