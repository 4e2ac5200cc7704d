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
 * One lookup per branch: a branch's per-table indices and tags, its
 * provider and its alternate are computed once and memoized, keyed by
 * PC, so predict(), predictDetail() and update() (allocation and decay
 * included) share them; update(), reset() and loadState() invalidate
 * the memo. Each table's index fold and two tag folds are incremental
 * FoldedHistory registers, O(1) per outcome.
 *
 * TAGE matters to this repo because its provider counter magnitude and
 * provider-vs-alternate agreement are a *built-in* confidence signal
 * (exposed by confidence/tage_confidence.h, which reads the bound
 * predictor's memoized lookup) that the paper's CIR estimators can be
 * compared against head-to-head.
 */

#ifndef CONFSIM_PREDICTOR_TAGE_H
#define CONFSIM_PREDICTOR_TAGE_H

#include <cstdint>
#include <vector>

#include "predictor/branch_predictor.h"
#include "predictor/history_register.h"
#include "util/fixed_vector_table.h"
#include "util/saturating_counter.h"

namespace confsim {

/** Geometry and policy knobs for TagePredictor. */
struct TageConfig
{
    /** Base bimodal table entries (power of two). */
    std::size_t bimodalEntries = std::size_t{1} << 12;

    /** Entries per tagged table (power of two). */
    std::size_t taggedEntries = std::size_t{1} << 10;

    /** Partial-tag width in bits (1..16). */
    unsigned tagBits = 9;

    /** Tagged-table prediction counter width; taken iff value is in
     *  the upper half. 3 bits in the reference design. */
    unsigned counterBits = 3;

    /** Useful-counter width (2 bits in the reference design). */
    unsigned usefulBits = 2;

    /**
     * Per-table global-history depths, strictly increasing, each
     * <= 64 so the whole history fits one register. The reference
     * series is geometric (ratio ~2.2).
     */
    std::vector<unsigned> historyLengths = {5, 11, 24, 52};

    /** use_alt_on_na counter width. */
    unsigned useAltBits = 4;

    /**
     * Updates between useful-counter agings; every agingPeriod-th
     * update halves every u counter. 0 disables aging.
     */
    std::uint64_t agingPeriod = 262'144;

    /** The default paper-scale configuration. */
    static TageConfig makeDefault() { return TageConfig{}; }

    /** A small geometry for unit/differential tests. */
    static TageConfig makeSmall();
};

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
    explicit TagePredictor(TageConfig config = TageConfig::makeDefault());

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
     *  counter distinguishes: 2^(counterBits-1). */
    std::uint64_t strengthLevels() const;

    // --- white-box introspection (property tests) -------------------
    const TageConfig &config() const { return config_; }
    std::size_t numTables() const { return tables_.size(); }
    const TageEntry &entryAt(std::size_t table, std::uint64_t index) const;
    std::uint64_t indexOf(std::size_t table, std::uint64_t pc) const;
    std::uint16_t tagOf(std::size_t table, std::uint64_t pc) const;
    std::uint32_t useAltValue() const { return useAltOnNa_.value(); }
    std::uint64_t updateCount() const { return updates_; }
    std::uint64_t historyValue() const { return history_.value(); }

  private:
    /** One branch's lookup: everything predict and update need. */
    struct Lookup
    {
        std::uint64_t pc = 0;
        bool valid = false;
        std::vector<std::uint64_t> index; //!< per tagged table
        std::vector<std::uint16_t> tag;   //!< per tagged table
        TagePrediction detail;
    };

    /** The memoized lookup for @p pc, computed on a miss. */
    const Lookup &lookup(std::uint64_t pc) const;
    void rebuildFolds();
    bool ctrTaken(std::uint8_t ctr) const;
    std::uint64_t ctrStrength(std::uint8_t ctr) const;
    std::uint64_t bimodalIndex(std::uint64_t pc) const;
    void ageUsefulCounters();

    TageConfig config_;
    unsigned indexBits_; //!< log2(taggedEntries)
    FixedVectorTable<SaturatingCounter> bimodal_;
    std::vector<std::vector<TageEntry>> tables_;
    HistoryRegister history_;
    /** Per table: the index fold and the (tagBits, tagBits - 1) tag
     *  folds of that table's history length. */
    std::vector<FoldedHistory> indexFold_;
    std::vector<FoldedHistory> tagFold_;
    std::vector<FoldedHistory> tagFold2_;
    SaturatingCounter useAltOnNa_;
    std::uint64_t updates_ = 0;
    /** Updates left until the next aging (a countdown, so update()
     *  divides nothing); derived from updates_ on load. */
    std::uint64_t untilAging_;
    std::uint8_t ctrMax_;
    std::uint8_t uMax_;
    /** The last lookup. Memoizing makes predict() write, so one
     *  predictor instance belongs to one thread. */
    mutable Lookup memo_;
};

} // namespace confsim

#endif // CONFSIM_PREDICTOR_TAGE_H
