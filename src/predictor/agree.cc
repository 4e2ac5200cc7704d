#include "predictor/agree.h"

#include "ckpt/state_helpers.h"

#include "util/bits.h"
#include "util/status.h"

namespace confsim {

namespace {

/** Agree counters initialize to "weakly agree". */
SaturatingCounter
weaklyAgreeCounter(unsigned counter_bits)
{
    const auto max = static_cast<std::uint32_t>(mask(counter_bits));
    return SaturatingCounter(max, (max + 1) / 2);
}

} // namespace

AgreePredictor::AgreePredictor(std::size_t num_entries,
                               unsigned history_bits,
                               unsigned counter_bits)
    : agreeTable_(num_entries, weaklyAgreeCounter(counter_bits),
                  counter_bits),
      history_(history_bits), counterBits_(counter_bits)
{
    if (history_bits > agreeTable_.indexBits())
        fatal("agree history depth must not exceed index width");
}

std::uint64_t
AgreePredictor::indexOf(std::uint64_t pc) const
{
    const std::uint64_t pc_field =
        bitsOf(pc, agreeTable_.indexBits() + 1, 2);
    return pc_field ^ history_.value();
}

bool
AgreePredictor::biasOf(std::uint64_t pc) const
{
    const auto it = bias_.find(pc);
    // Unseen branch: predict taken (backward-taken-style optimism).
    return it == bias_.end() ? true : it->second;
}

bool
AgreePredictor::predict(std::uint64_t pc) const
{
    const bool agree = agreeTable_[indexOf(pc)].predictsTaken();
    const bool bias = biasOf(pc);
    return agree ? bias : !bias;
}

void
AgreePredictor::update(std::uint64_t pc, bool taken)
{
    // Set the bias bit at first execution.
    const auto [it, inserted] = bias_.try_emplace(pc, taken);
    const bool bias = it->second;

    agreeTable_[indexOf(pc)].step(taken == bias);
    history_.recordOutcome(taken);
    (void)inserted;
}

std::uint64_t
AgreePredictor::storageBits() const
{
    // Agree counters + history + one bias bit per static branch seen.
    return agreeTable_.storageBits() + history_.width() + bias_.size();
}

std::string
AgreePredictor::name() const
{
    return "agree-" + std::to_string(agreeTable_.size()) + "x" +
           std::to_string(counterBits_) + "b-h" +
           std::to_string(history_.width());
}

void
AgreePredictor::reset()
{
    agreeTable_.fill(weaklyAgreeCounter(counterBits_));
    history_.reset();
    bias_.clear();
}


void
AgreePredictor::saveState(StateWriter &out) const
{
    saveCounterTable(out, agreeTable_);
    out.putU64(history_.value());
    saveSortedMap(out, bias_, [](StateWriter &w, bool bias) {
        w.putBool(bias);
    });
}

void
AgreePredictor::loadState(StateReader &in)
{
    loadCounterTable(in, agreeTable_);
    history_.setValue(in.getU64());
    loadMap(in, bias_, [](StateReader &r) { return r.getBool(); });
}

} // namespace confsim
