#include "predictor/two_level.h"

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

bool
usesPerAddressHistory(TwoLevelScheme scheme)
{
    return scheme == TwoLevelScheme::PAg || scheme == TwoLevelScheme::PAp;
}

bool
usesPerAddressPht(TwoLevelScheme scheme)
{
    return scheme == TwoLevelScheme::GAp || scheme == TwoLevelScheme::PAp;
}

} // namespace

const char *
toString(TwoLevelScheme scheme)
{
    switch (scheme) {
      case TwoLevelScheme::GAg: return "GAg";
      case TwoLevelScheme::GAp: return "GAp";
      case TwoLevelScheme::PAg: return "PAg";
      case TwoLevelScheme::PAp: return "PAp";
    }
    panic("unknown TwoLevelScheme");
}

TwoLevelPredictor::TwoLevelPredictor(TwoLevelScheme scheme,
                                     unsigned history_bits,
                                     std::size_t bhr_entries,
                                     std::size_t pht_sets,
                                     unsigned counter_bits)
    : scheme_(scheme), historyBits_(history_bits),
      counterBits_(counter_bits)
{
    if (history_bits == 0 || history_bits > 24)
        fatal("two-level history depth must be in [1, 24]");
    const std::size_t num_histories =
        usesPerAddressHistory(scheme) ? bhr_entries : 1;
    if (!isPowerOfTwo(num_histories))
        fatal("two-level BHR table size must be a power of two");
    histories_.assign(num_histories, ShiftRegister(history_bits, 0));

    const std::size_t num_phts = usesPerAddressPht(scheme) ? pht_sets : 1;
    if (!isPowerOfTwo(num_phts))
        fatal("two-level PHT set count must be a power of two");
    const std::size_t pht_entries = std::size_t{1} << history_bits;
    phts_.reserve(num_phts);
    for (std::size_t i = 0; i < num_phts; ++i) {
        phts_.emplace_back(pht_entries, weaklyTakenCounter(counter_bits),
                           counter_bits);
    }
}

const ShiftRegister &
TwoLevelPredictor::historyFor(std::uint64_t pc) const
{
    if (histories_.size() == 1)
        return histories_[0];
    return histories_[(pc >> 2) & (histories_.size() - 1)];
}

ShiftRegister &
TwoLevelPredictor::historyFor(std::uint64_t pc)
{
    return const_cast<ShiftRegister &>(
        static_cast<const TwoLevelPredictor *>(this)->historyFor(pc));
}

std::size_t
TwoLevelPredictor::phtSetFor(std::uint64_t pc) const
{
    if (phts_.size() == 1)
        return 0;
    return static_cast<std::size_t>((pc >> 2) & (phts_.size() - 1));
}

const SaturatingCounter &
TwoLevelPredictor::counterFor(std::uint64_t pc) const
{
    return phts_[phtSetFor(pc)][historyFor(pc).value()];
}

SaturatingCounter &
TwoLevelPredictor::counterFor(std::uint64_t pc)
{
    return const_cast<SaturatingCounter &>(
        static_cast<const TwoLevelPredictor *>(this)->counterFor(pc));
}

bool
TwoLevelPredictor::predict(std::uint64_t pc) const
{
    return counterFor(pc).predictsTaken();
}

void
TwoLevelPredictor::update(std::uint64_t pc, bool taken)
{
    counterFor(pc).step(taken);
    historyFor(pc).shiftIn(taken);
}

std::uint64_t
TwoLevelPredictor::storageBits() const
{
    std::uint64_t bits =
        static_cast<std::uint64_t>(histories_.size()) * historyBits_;
    for (const auto &pht : phts_)
        bits += pht.storageBits();
    return bits;
}

std::string
TwoLevelPredictor::name() const
{
    return std::string(toString(scheme_)) + "-h" +
           std::to_string(historyBits_);
}

void
TwoLevelPredictor::reset()
{
    for (auto &history : histories_)
        history.clear();
    for (auto &pht : phts_)
        pht.fill(weaklyTakenCounter(counterBits_));
}


void
TwoLevelPredictor::saveState(StateWriter &out) const
{
    out.putU64(histories_.size());
    for (const auto &history : histories_)
        saveShiftRegister(out, history);
    out.putU64(phts_.size());
    for (const auto &pht : phts_)
        saveCounterTable(out, pht);
}

void
TwoLevelPredictor::loadState(StateReader &in)
{
    in.expectU64(histories_.size(), "two-level history count");
    for (auto &history : histories_)
        loadShiftRegister(in, history);
    in.expectU64(phts_.size(), "two-level PHT count");
    for (auto &pht : phts_)
        loadCounterTable(in, pht);
}

} // namespace confsim
