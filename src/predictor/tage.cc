#include "predictor/tage.h"

#include <algorithm>
#include <bit>
#include <string>

#include "ckpt/state_io.h"
#include "util/bits.h"

namespace confsim {

namespace {

constexpr std::uint8_t kCtrMax = mask(TagePredictor::kCounterBits);
constexpr std::uint8_t kCtrWeakTaken = (kCtrMax + 1) / 2;
constexpr std::uint8_t kUsefulMax = mask(TagePredictor::kUsefulBits);
constexpr std::uint8_t kUseAltMax = mask(TagePredictor::kUseAltBits);
constexpr std::uint8_t kBimodalMax = 3;
constexpr std::uint8_t kBimodalWeakTaken = 2;
constexpr std::uint64_t kHistoryMask =
    mask(TagePredictor::kHistoryLengths.back());

/** If @p enable, step a saturating counter in [0, max] toward @p up;
 *  branch-free. */
inline void
step(std::uint8_t &counter, bool up, std::uint8_t max, bool enable = true)
{
    counter += enable & up & (counter < max);
    counter -= enable & !up & (counter > 0);
}

/** Per tag-hit mask (bit t: table t hit), the highest hit table and
 *  the next-highest one, -1 for none: the provider and the alternate. */
struct Matches
{
    std::array<std::int8_t, 1u << TagePredictor::kTables> provider{};
    std::array<std::int8_t, 1u << TagePredictor::kTables> alt{};
};

constexpr Matches kMatches = [] {
    Matches m;
    for (unsigned hits = 0; hits < m.provider.size(); ++hits) {
        const unsigned below = hits & ~std::bit_floor(hits);
        m.provider[hits] =
            static_cast<std::int8_t>(static_cast<int>(std::bit_width(hits)) - 1);
        m.alt[hits] =
            static_cast<std::int8_t>(static_cast<int>(std::bit_width(below)) - 1);
    }
    return m;
}();

/** A counter's distance from the weak boundary at @p weak_taken. */
constexpr std::uint32_t
strength(std::uint32_t ctr, std::uint32_t weak_taken)
{
    return ctr >= weak_taken ? ctr - weak_taken : weak_taken - 1 - ctr;
}

/**
 * Shift one outcome into an XOR fold of the newest @p length history
 * bits kept in @p width bits. @p evicted is bit length - 1 of the
 * history before the shift: the bit that leaves the window, and that
 * sits at length mod width once shifted. The bit pushed to position
 * width wraps to 0.
 */
constexpr std::uint16_t
foldIn(std::uint16_t fold, unsigned length, unsigned width,
       std::uint32_t newest, std::uint32_t evicted)
{
    std::uint32_t v = (std::uint32_t{fold} << 1) | newest;
    v ^= evicted << (length % width);
    v ^= v >> width;
    return static_cast<std::uint16_t>(v & mask(width));
}

} // namespace

TagePredictor::TagePredictor()
{
    bimodal_.fill(kBimodalWeakTaken);
}

std::uint64_t
TagePredictor::indexOf(std::size_t table, std::uint64_t pc) const
{
    return lookup(pc).slot[table] & (kEntries - 1);
}

std::uint16_t
TagePredictor::tagOf(std::size_t table, std::uint64_t pc) const
{
    return lookup(pc).tag[table];
}

const TageEntry &
TagePredictor::entryAt(std::size_t table, std::uint64_t index) const
{
    return tables_[table * kEntries + (index & (kEntries - 1))];
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
    const std::uint64_t pc_index = xorFold(pc_field, kIndexBits);
    const std::uint64_t pc_tag = xorFold(pc_field, kTagBits);
    unsigned hits = 0; // bit t: table t's entry carries this tag
    for (unsigned t = 0; t < kTables; ++t) {
        // xorFold(pc_field >> s, kIndexBits) is pc_index without the
        // low s field bits, rotated right by s within kIndexBits.
        const unsigned s = t + 1;
        const std::uint64_t kept = pc_index ^ (pc_field & mask(s));
        const std::uint64_t shifted =
            ((kept >> s) | (kept << (kIndexBits - s))) & mask(kIndexBits);
        const std::uint64_t index = pc_index ^ shifted ^ indexFold_[t];
        const auto tag = static_cast<std::uint16_t>(
            (pc_tag ^ tagFold_[t] ^ (tagFold2_[t] << 1)) & mask(kTagBits));
        memo_.slot[t] = static_cast<std::uint16_t>(t * kEntries + index);
        memo_.tag[t] = tag;
        hits |= unsigned{tables_[memo_.slot[t]].tag == tag} << t;
    }

    // Provider: the longest-history tag match; alternate: the next.
    // Without a tagged provider the bimodal counter provides, and its
    // strength is the confidence. Selects, not branches: which table
    // provides is data the host cannot predict.
    const int provider = kMatches.provider[hits];
    const int alt = kMatches.alt[hits];
    const bool tagged = provider >= 0;
    const TageEntry &p = tables_[memo_.slot[provider & (kTables - 1)]];
    const TageEntry &a = tables_[memo_.slot[alt & (kTables - 1)]];
    const std::uint8_t base = bimodal_[bitsOf(pc, kBimodalBits + 1, 2)];
    const bool bimodal_taken = base >= kBimodalWeakTaken;
    const std::uint32_t ctr = tagged ? p.ctr : base;
    const std::uint32_t weak = tagged ? kCtrWeakTaken : kBimodalWeakTaken;

    TagePrediction &d = memo_.detail;
    d.providerTable = provider;
    d.altTable = alt;
    d.providerCtr = ctr;
    d.providerTaken = ctr >= weak;
    d.providerStrength = strength(ctr, weak);
    d.altTaken = alt >= 0 ? a.ctr >= kCtrWeakTaken : bimodal_taken;
    d.newlyAllocated = tagged & (p.u == 0) & (d.providerStrength == 0);
    d.usedAlt = d.newlyAllocated & (useAlt_ >= (kUseAltMax + 1) / 2);
    d.taken = d.usedAlt ? d.altTaken : d.providerTaken;
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
    return lookup(pc).detail.taken;
}

void
TagePredictor::update(std::uint64_t pc, bool taken)
{
    const Lookup &l = lookup(pc);
    const TagePrediction &d = l.detail;

    // Useful counter: evidence only when a tagged provider and the
    // alternate disagree — the provider was the tie-breaker. The same
    // disagreement teaches use_alt_on_na whether newly allocated
    // entries should defer to the alternate. Then the provider's
    // counter, tagged or bimodal, learns the outcome.
    const bool tagged = d.providerTable >= 0;
    const bool disagree = d.providerTaken != d.altTaken;
    TageEntry &entry = tables_[l.slot[d.providerTable & (kTables - 1)]];
    step(entry.u, d.providerTaken == taken, kUsefulMax, tagged & disagree);
    step(useAlt_, d.altTaken == taken, kUseAltMax,
         d.newlyAllocated & disagree);
    std::uint8_t &base = bimodal_[bitsOf(pc, kBimodalBits + 1, 2)];
    step(tagged ? entry.ctr : base, taken, tagged ? kCtrMax : kBimodalMax);

    // On a mispredict, allocate a fresh entry in a longer-history
    // table: the first candidate with u == 0, weakly initialized;
    // if all candidates are useful, decay them instead.
    if (d.taken != taken) {
        const auto first = static_cast<unsigned>(d.providerTable + 1);
        unsigned victim = first;
        while (victim < kTables && tables_[l.slot[victim]].u != 0)
            ++victim;
        if (victim < kTables) {
            TageEntry &entry = tables_[l.slot[victim]];
            entry.tag = l.tag[victim];
            entry.ctr = taken ? kCtrWeakTaken : kCtrWeakTaken - 1;
            entry.u = 0;
        } else {
            for (unsigned t = first; t < kTables; ++t)
                step(tables_[l.slot[t]].u, false, kUsefulMax);
        }
    }

    ++updates_;
    if (--untilAging_ == 0) {
        ageUsefulCounters();
        untilAging_ = kAgingPeriod;
    }

    memo_.valid = false;
    const std::uint64_t before = history_;
    const std::uint32_t newest = taken ? 1 : 0;
    for (unsigned t = 0; t < kTables; ++t) {
        const unsigned length = kHistoryLengths[t];
        const auto evicted =
            static_cast<std::uint32_t>(bitOf(before, length - 1));
        indexFold_[t] =
            foldIn(indexFold_[t], length, kIndexBits, newest, evicted);
        tagFold_[t] = foldIn(tagFold_[t], length, kTagBits, newest, evicted);
        tagFold2_[t] =
            foldIn(tagFold2_[t], length, kTagBits - 1, newest, evicted);
    }
    history_ = ((before << 1) | newest) & kHistoryMask;
}

void
TagePredictor::rebuildFolds()
{
    for (unsigned t = 0; t < kTables; ++t) {
        const std::uint64_t recent = history_ & mask(kHistoryLengths[t]);
        indexFold_[t] = static_cast<std::uint16_t>(xorFold(recent, kIndexBits));
        tagFold_[t] = static_cast<std::uint16_t>(xorFold(recent, kTagBits));
        tagFold2_[t] =
            static_cast<std::uint16_t>(xorFold(recent, kTagBits - 1));
    }
}

void
TagePredictor::ageUsefulCounters()
{
    for (TageEntry &entry : tables_)
        entry.u = static_cast<std::uint8_t>(entry.u >> 1);
}

std::uint64_t
TagePredictor::storageBits() const
{
    constexpr std::uint64_t per_entry =
        kTagBits + kCounterBits + kUsefulBits;
    return kBimodalEntries * 2 + kTables * kEntries * per_entry +
           kHistoryLengths.back() + kUseAltBits + 64;
}

std::string
TagePredictor::name() const
{
    return "tage-" + std::to_string(kTables) + "x" +
           std::to_string(kEntries) + "-h" +
           std::to_string(kHistoryLengths.back());
}

void
TagePredictor::reset()
{
    tables_.fill(TageEntry{});
    bimodal_.fill(kBimodalWeakTaken);
    history_ = 0;
    rebuildFolds();
    useAlt_ = 0;
    updates_ = 0;
    untilAging_ = kAgingPeriod;
    memo_.valid = false;
}

void
TagePredictor::saveState(StateWriter &out) const
{
    out.putU64(kTables);
    out.putU64(kEntries);
    for (const TageEntry &entry : tables_) {
        out.putU16(entry.tag);
        out.putU8(entry.ctr);
        out.putU8(entry.u);
    }
    // The base table in saveCounterTable()'s layout.
    out.putU64(kBimodalEntries);
    for (const std::uint8_t counter : bimodal_)
        out.putU32(counter);
    out.putU64(history_);
    out.putU32(useAlt_);
    out.putU64(updates_);
}

void
TagePredictor::loadState(StateReader &in)
{
    in.expectU64(kTables, "TAGE table count");
    in.expectU64(kEntries, "TAGE entries per table");
    for (TageEntry &entry : tables_) {
        entry.tag = in.getU16();
        entry.ctr = in.getU8();
        entry.u = in.getU8();
    }
    in.expectU64(kBimodalEntries, "counter table size");
    for (std::uint8_t &counter : bimodal_) {
        counter = static_cast<std::uint8_t>(
            std::min<std::uint32_t>(in.getU32(), kBimodalMax));
    }
    history_ = in.getU64() & kHistoryMask;
    rebuildFolds();
    useAlt_ = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(in.getU32(), kUseAltMax));
    updates_ = in.getU64();
    untilAging_ = kAgingPeriod - updates_ % kAgingPeriod;
    memo_.valid = false;
}

} // namespace confsim
