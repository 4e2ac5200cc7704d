#include "predictor/tage.h"

#include "ckpt/state_helpers.h"

#include "util/bits.h"
#include "util/status.h"

namespace confsim {

namespace {

SaturatingCounter
weaklyTakenBimodal()
{
    return SaturatingCounter(3, 2);
}

} // namespace

TageConfig
TageConfig::makeSmall()
{
    TageConfig c;
    c.bimodalEntries = std::size_t{1} << 8;
    c.taggedEntries = std::size_t{1} << 7;
    c.tagBits = 7;
    c.historyLengths = {4, 9, 18};
    c.agingPeriod = 8192;
    return c;
}

TagePredictor::TagePredictor(TageConfig config)
    : config_(std::move(config)),
      indexBits_(isPowerOfTwo(config_.taggedEntries)
                     ? log2Exact(config_.taggedEntries)
                     : 0),
      bimodal_(config_.bimodalEntries, weaklyTakenBimodal(), 2),
      history_(config_.historyLengths.empty()
                   ? 1
                   : config_.historyLengths.back()),
      useAltOnNa_(static_cast<std::uint32_t>(mask(config_.useAltBits)), 0),
      untilAging_(config_.agingPeriod),
      ctrMax_(static_cast<std::uint8_t>(mask(config_.counterBits))),
      uMax_(static_cast<std::uint8_t>(mask(config_.usefulBits)))
{
    if (config_.historyLengths.empty())
        fatal("TAGE requires at least one tagged table");
    if (!isPowerOfTwo(config_.taggedEntries))
        fatal("TAGE tagged-table size must be a power of two");
    if (config_.tagBits < 2 || config_.tagBits > 16)
        fatal("TAGE tag width must be in [2, 16]");
    if (config_.counterBits < 2 || config_.counterBits > 8)
        fatal("TAGE counter width must be in [2, 8]");
    if (config_.usefulBits < 1 || config_.usefulBits > 8)
        fatal("TAGE useful-counter width must be in [1, 8]");
    unsigned prev = 0;
    for (unsigned len : config_.historyLengths) {
        if (len <= prev || len > 64)
            fatal("TAGE history lengths must be strictly increasing "
                  "and <= 64");
        prev = len;
    }
    tables_.assign(config_.historyLengths.size(),
                   std::vector<TageEntry>(config_.taggedEntries));
    for (unsigned len : config_.historyLengths) {
        indexFold_.emplace_back(len, indexBits_);
        tagFold_.emplace_back(len, config_.tagBits);
        tagFold2_.emplace_back(len, config_.tagBits - 1);
    }
    memo_.index.resize(tables_.size());
    memo_.tag.resize(tables_.size());
}

bool
TagePredictor::ctrTaken(std::uint8_t ctr) const
{
    return ctr >= (ctrMax_ + 1u) / 2;
}

std::uint64_t
TagePredictor::ctrStrength(std::uint8_t ctr) const
{
    const std::uint32_t mid = (ctrMax_ + 1u) / 2;
    return ctr >= mid ? ctr - mid : mid - 1u - ctr;
}

std::uint64_t
TagePredictor::strengthLevels() const
{
    return (std::uint64_t{ctrMax_} + 1) / 2;
}

std::uint64_t
TagePredictor::bimodalIndex(std::uint64_t pc) const
{
    return bitsOf(pc, bimodal_.indexBits() + 1, 2);
}

std::uint64_t
TagePredictor::indexOf(std::size_t table, std::uint64_t pc) const
{
    return lookup(pc).index[table];
}

std::uint16_t
TagePredictor::tagOf(std::size_t table, std::uint64_t pc) const
{
    return lookup(pc).tag[table];
}

const TageEntry &
TagePredictor::entryAt(std::size_t table, std::uint64_t index) const
{
    return tables_[table][index & mask(indexBits_)];
}

const TagePredictor::Lookup &
TagePredictor::lookup(std::uint64_t pc) const
{
    if (memo_.valid && memo_.pc == pc)
        return memo_;

    // Index: two PC folds XOR the table's history fold. Tag: a PC fold
    // XOR the classic double-folded history hash, whose two widths
    // (bits, bits - 1) decorrelate the tag from the index fold.
    const std::uint64_t pc_field = pc >> 2;
    const std::uint64_t pc_index = xorFold(pc_field, indexBits_);
    const std::uint64_t pc_tag = xorFold(pc_field, config_.tagBits);
    const std::uint64_t tag_mask = mask(config_.tagBits);
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        memo_.index[t] = pc_index ^
                         xorFold(pc_field >> (t + 1), indexBits_) ^
                         indexFold_[t].value();
        memo_.tag[t] = static_cast<std::uint16_t>(
            (pc_tag ^ tagFold_[t].value() ^ (tagFold2_[t].value() << 1)) &
            tag_mask);
    }

    // Provider: the longest-history tag match; alternate: the next.
    int provider = -1;
    int alt = -1;
    for (int t = static_cast<int>(tables_.size()) - 1; t >= 0; --t) {
        const auto table = static_cast<std::size_t>(t);
        if (tables_[table][memo_.index[table]].tag != memo_.tag[table])
            continue;
        if (provider < 0) {
            provider = t;
        } else {
            alt = t;
            break;
        }
    }

    TagePrediction &d = memo_.detail;
    d = TagePrediction{};
    const auto &base = bimodal_[bimodalIndex(pc)];
    const bool bimodal_taken = base.predictsTaken();
    if (provider < 0) {
        // Bimodal provides; its counter strength is the confidence.
        const std::uint32_t mid = (base.max() + 1) / 2;
        d.providerCtr = base.value();
        d.providerTaken = bimodal_taken;
        d.providerStrength = base.value() >= mid ? base.value() - mid
                                                 : mid - 1 - base.value();
        d.altTaken = bimodal_taken;
        d.taken = bimodal_taken;
    } else {
        const auto ptable = static_cast<std::size_t>(provider);
        const TageEntry &entry = tables_[ptable][memo_.index[ptable]];
        d.providerTable = provider;
        d.providerCtr = entry.ctr;
        d.providerTaken = ctrTaken(entry.ctr);
        d.providerStrength = ctrStrength(entry.ctr);
        d.newlyAllocated = entry.u == 0 && d.providerStrength == 0;
        if (alt >= 0) {
            const auto atable = static_cast<std::size_t>(alt);
            d.altTable = alt;
            d.altTaken =
                ctrTaken(tables_[atable][memo_.index[atable]].ctr);
        } else {
            d.altTaken = bimodal_taken;
        }
        d.usedAlt = d.newlyAllocated && useAltOnNa_.predictsTaken();
        d.taken = d.usedAlt ? d.altTaken : d.providerTaken;
    }
    memo_.pc = pc;
    memo_.valid = true;
    return memo_;
}

TagePrediction
TagePredictor::predictDetail(std::uint64_t pc) const
{
    return lookup(pc).detail;
}

bool
TagePredictor::predict(std::uint64_t pc) const
{
    return predictDetail(pc).taken;
}

void
TagePredictor::update(std::uint64_t pc, bool taken)
{
    const Lookup &l = lookup(pc);
    const TagePrediction &d = l.detail;

    if (d.providerTable >= 0) {
        const auto ptable = static_cast<std::size_t>(d.providerTable);
        TageEntry &entry = tables_[ptable][l.index[ptable]];

        // Useful counter: evidence only when provider and alternate
        // disagree — the provider was the tie-breaker.
        if (d.providerTaken != d.altTaken) {
            if (d.providerTaken == taken) {
                if (entry.u < uMax_)
                    ++entry.u;
            } else if (entry.u > 0) {
                --entry.u;
            }
        }

        // Learn whether newly allocated entries should defer to alt.
        if (d.newlyAllocated && d.providerTaken != d.altTaken) {
            if (d.altTaken == taken)
                useAltOnNa_.increment();
            else
                useAltOnNa_.decrement();
        }

        if (taken) {
            if (entry.ctr < ctrMax_)
                ++entry.ctr;
        } else if (entry.ctr > 0) {
            --entry.ctr;
        }
    } else {
        auto &base = bimodal_[bimodalIndex(pc)];
        if (taken)
            base.increment();
        else
            base.decrement();
    }

    // On a mispredict, allocate a fresh entry in a longer-history
    // table: the first candidate with u == 0, weakly initialized;
    // if all candidates are useful, decay them instead.
    if (d.taken != taken &&
        d.providerTable + 1 < static_cast<int>(tables_.size())) {
        int victim = -1;
        for (std::size_t t = static_cast<std::size_t>(d.providerTable + 1);
             t < tables_.size(); ++t) {
            if (tables_[t][l.index[t]].u == 0) {
                victim = static_cast<int>(t);
                break;
            }
        }
        if (victim >= 0) {
            const auto vtable = static_cast<std::size_t>(victim);
            TageEntry &entry = tables_[vtable][l.index[vtable]];
            entry.tag = l.tag[vtable];
            const auto mid = static_cast<std::uint8_t>((ctrMax_ + 1u) / 2);
            entry.ctr = taken ? mid : static_cast<std::uint8_t>(mid - 1);
            entry.u = 0;
        } else {
            for (std::size_t t =
                     static_cast<std::size_t>(d.providerTable + 1);
                 t < tables_.size(); ++t) {
                TageEntry &entry = tables_[t][l.index[t]];
                if (entry.u > 0)
                    --entry.u;
            }
        }
    }

    ++updates_;
    if (config_.agingPeriod != 0 && --untilAging_ == 0) {
        ageUsefulCounters();
        untilAging_ = config_.agingPeriod;
    }

    memo_.valid = false;
    const std::uint64_t before = history_.value();
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        const bool evicted =
            bitOf(before, config_.historyLengths[t] - 1) != 0;
        indexFold_[t].update(taken, evicted);
        tagFold_[t].update(taken, evicted);
        tagFold2_[t].update(taken, evicted);
    }
    history_.recordOutcome(taken);
}

void
TagePredictor::rebuildFolds()
{
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        indexFold_[t].rebuild(history_.value());
        tagFold_[t].rebuild(history_.value());
        tagFold2_[t].rebuild(history_.value());
    }
}

void
TagePredictor::ageUsefulCounters()
{
    for (auto &table : tables_)
        for (auto &entry : table)
            entry.u = static_cast<std::uint8_t>(entry.u >> 1);
}

std::uint64_t
TagePredictor::storageBits() const
{
    const std::uint64_t per_entry =
        config_.tagBits + config_.counterBits + config_.usefulBits;
    return bimodal_.storageBits() +
           tables_.size() * config_.taggedEntries * per_entry +
           history_.width() + config_.useAltBits + 64;
}

std::string
TagePredictor::name() const
{
    return "tage-" + std::to_string(tables_.size()) + "x" +
           std::to_string(config_.taggedEntries) + "-h" +
           std::to_string(config_.historyLengths.back());
}

void
TagePredictor::reset()
{
    bimodal_.fill(weaklyTakenBimodal());
    for (auto &table : tables_)
        for (auto &entry : table)
            entry = TageEntry{};
    history_.reset();
    rebuildFolds();
    useAltOnNa_.set(0);
    updates_ = 0;
    untilAging_ = config_.agingPeriod;
    memo_.valid = false;
}

void
TagePredictor::saveState(StateWriter &out) const
{
    out.putU64(tables_.size());
    out.putU64(config_.taggedEntries);
    for (const auto &table : tables_) {
        for (const auto &entry : table) {
            out.putU16(entry.tag);
            out.putU8(entry.ctr);
            out.putU8(entry.u);
        }
    }
    saveCounterTable(out, bimodal_);
    out.putU64(history_.value());
    out.putU32(useAltOnNa_.value());
    out.putU64(updates_);
}

void
TagePredictor::loadState(StateReader &in)
{
    in.expectU64(tables_.size(), "TAGE table count");
    in.expectU64(config_.taggedEntries, "TAGE entries per table");
    for (auto &table : tables_) {
        for (auto &entry : table) {
            entry.tag = in.getU16();
            entry.ctr = in.getU8();
            entry.u = in.getU8();
        }
    }
    loadCounterTable(in, bimodal_);
    history_.setValue(in.getU64());
    rebuildFolds();
    useAltOnNa_.set(in.getU32());
    updates_ = in.getU64();
    if (config_.agingPeriod != 0)
        untilAging_ = config_.agingPeriod - updates_ % config_.agingPeriod;
    memo_.valid = false;
}

} // namespace confsim
