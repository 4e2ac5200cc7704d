/**
 * @file
 * TAGE — TAgged GEometric-history-length branch predictor
 * [Seznec & Michaud 2006], the modern successor to the paper's gshare
 * baseline.
 *
 * A bimodal base table backs N tagged tables whose history lengths form
 * a geometric series. Each tagged entry holds a partial tag, a signed
 * prediction counter, and a "useful" counter. The *provider* is the
 * matching entry with the longest history; the *alternate* prediction
 * comes from the next-longest match (or the base table). A saturating
 * use_alt_on_na counter learns whether newly allocated provider entries
 * should be overridden by the alternate prediction, and the useful
 * counters are periodically aged (halved) so stale entries can be
 * reclaimed by allocation.
 *
 * Fixed geometry: the reference design's 4 tagged tables of 1,024
 * entries, 9-bit tags, history lengths 5/11/24/52, 3-bit prediction
 * and 2-bit useful counters, a 4-bit use_alt_on_na counter and 4,096
 * two-bit bimodal counters, as compile-time constants. Every caller
 * builds this one geometry, and constant widths let each step compile
 * to its arithmetic. The tagged entries live in one flat array, table
 * t's entry i at t * kEntries + i.
 *
 * One lookup per branch: a branch's per-table slots and tags, its
 * provider and its alternate are computed once into a fixed-size
 * record, memoized by PC, so predict(), predictDetail() and update()
 * (allocation and decay included) share them; update(), reset() and
 * loadState() invalidate the memo. Each table's index fold and two tag
 * folds are kept incrementally, O(1) per outcome, with constant
 * out-points and masks; they always equal the folds recomputed from
 * the history register.
 *
 * TAGE matters to this repo because its provider counter magnitude and
 * provider-vs-alternate agreement are a *built-in* confidence signal
 * (exposed by confidence/tage_confidence.h, which reads the bound
 * predictor's memoized lookup) that the paper's CIR estimators can be
 * compared against head-to-head.
 */

#ifndef CONFSIM_PREDICTOR_TAGE_H
#define CONFSIM_PREDICTOR_TAGE_H

#include <array>
#include <cstdint>

#include "predictor/branch_predictor.h"

namespace confsim {

/** Everything TAGE knows about one prediction, for confidence
 *  estimation and white-box tests. */
struct TagePrediction
{
    bool taken = false;         //!< final predicted direction
    bool providerTaken = false; //!< provider component's direction
    bool altTaken = false;      //!< alternate prediction's direction
    int providerTable = -1;     //!< tagged table index, -1 = bimodal
    int altTable = -1;          //!< alternate's table, -1 = bimodal
    std::uint32_t providerCtr = 0;   //!< provider counter raw value
    std::uint64_t providerStrength = 0; //!< distance from weak boundary
    bool newlyAllocated = false; //!< provider entry looks newly allocated
    bool usedAlt = false;        //!< use_alt_on_na overrode the provider
};

/** One tagged-table entry (exposed for white-box property tests). */
struct TageEntry
{
    std::uint16_t tag = 0;
    std::uint8_t ctr = 0; //!< unsigned encoding; taken iff upper half
    std::uint8_t u = 0;   //!< useful counter
};

/** TAgged GEometric-history predictor with native confidence hooks. */
class TagePredictor : public BranchPredictor
{
  public:
    /** Tagged tables. */
    static constexpr unsigned kTables = 4;
    /** log2 of the entries per tagged table. */
    static constexpr unsigned kIndexBits = 10;
    static constexpr std::size_t kEntries = std::size_t{1} << kIndexBits;
    /** Partial-tag width. */
    static constexpr unsigned kTagBits = 9;
    /** Per-table global-history depths: a geometric series (ratio
     *  ~2.2), the longest within one 64-bit history register. */
    static constexpr std::array<unsigned, kTables> kHistoryLengths = {
        5, 11, 24, 52};
    /** Tagged prediction counter width; taken iff in the upper half. */
    static constexpr unsigned kCounterBits = 3;
    /** Useful-counter width. */
    static constexpr unsigned kUsefulBits = 2;
    /** use_alt_on_na counter width. */
    static constexpr unsigned kUseAltBits = 4;
    /** log2 of the base table's two-bit counters (weakly taken at
     *  power-on). */
    static constexpr unsigned kBimodalBits = 12;
    /** Every kAgingPeriod-th update halves every useful counter. */
    static constexpr std::uint64_t kAgingPeriod = 262'144;

    TagePredictor();

    bool predict(std::uint64_t pc) const override;
    void update(std::uint64_t pc, bool taken) override;
    std::uint64_t storageBits() const override;
    std::string name() const override;
    void reset() override;

    bool checkpointable() const override { return true; }
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;

    /** Full provider/alternate breakdown of the prediction for @p pc. */
    TagePrediction predictDetail(std::uint64_t pc) const;

    /** @return the number of confidence-strength levels the provider
     *  counter distinguishes: 2^(kCounterBits-1). */
    static constexpr std::uint64_t strengthLevels()
    {
        return std::uint64_t{1} << (kCounterBits - 1);
    }

    // --- white-box introspection (property tests) -------------------
    const TageEntry &entryAt(std::size_t table, std::uint64_t index) const;
    std::uint64_t indexOf(std::size_t table, std::uint64_t pc) const;
    std::uint16_t tagOf(std::size_t table, std::uint64_t pc) const;
    std::uint32_t useAltValue() const { return useAlt_; }
    std::uint64_t updateCount() const { return updates_; }
    std::uint64_t historyValue() const { return history_; }

  private:
    static constexpr std::size_t kBimodalEntries = std::size_t{1}
                                                   << kBimodalBits;

    /** One branch's lookup: everything predict and update need. */
    struct Lookup
    {
        std::uint64_t pc = 0;
        bool valid = false;
        /** Per tagged table: the entry's slot in tables_, and the tag. */
        std::array<std::uint16_t, kTables> slot{};
        std::array<std::uint16_t, kTables> tag{};
        TagePrediction detail;
    };

    /** The memoized lookup for @p pc, computed on a miss. */
    const Lookup &lookup(std::uint64_t pc) const;
    void rebuildFolds();
    void ageUsefulCounters();

    alignas(64) std::array<TageEntry, kTables * kEntries> tables_;
    std::array<std::uint8_t, kBimodalEntries> bimodal_;
    /** Global history, newest outcome in bit 0, the longest table's
     *  kHistoryLengths.back() bits. */
    std::uint64_t history_ = 0;
    /** Per table: the kIndexBits index fold and the (kTagBits,
     *  kTagBits - 1) tag folds of that table's history length. */
    std::array<std::uint16_t, kTables> indexFold_{};
    std::array<std::uint16_t, kTables> tagFold_{};
    std::array<std::uint16_t, kTables> tagFold2_{};
    std::uint8_t useAlt_ = 0;
    std::uint64_t updates_ = 0;
    /** Updates left until the next aging (a countdown, so update()
     *  divides nothing); derived from updates_ on load. */
    std::uint64_t untilAging_ = kAgingPeriod;
    /** The last lookup. Memoizing makes predict() write, so one
     *  predictor instance belongs to one thread. */
    mutable Lookup memo_;
};

} // namespace confsim

#endif // CONFSIM_PREDICTOR_TAGE_H
