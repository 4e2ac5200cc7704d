/**
 * @file
 * A scalar reference model of the paper's mechanisms, written from the
 * paper's text (Sections 1.2 and 3-5) and the conventions in DESIGN.md,
 * sharing no code with src/ beyond the trace record type. It exists to
 * check the simulator's replay kernel against something that cannot
 * inherit its bugs: tests/reference/reference_differential_test.cc
 * feeds both the same records and requires identical counts.
 *
 * Conventions modelled:
 *  - gshare: 2^m two-bit counters initialised weakly taken (2),
 *    indexed by the low m bits of (pc >> 2) XOR an h-bit global
 *    history (h <= m); predict taken iff the counter is >= 2.
 *  - Architectural BHR: newest outcome in bit 0, 1 = taken.
 *  - CIR: newest indication in bit 0, 1 = incorrect; tables start all
 *    ones. The ideal reduction keeps the raw pattern as the bucket.
 *  - Counter tables: saturating counters step up on a correct
 *    prediction and down on a miss; resetting counters drop to zero on
 *    a miss. The counter value is the bucket.
 *  - Two-level: the level-1 CIR indexes a level-2 CIR table whose
 *    pattern is the bucket; level 2 trains with the pre-update level-1
 *    CIR.
 *  - A context switch after every `interval` conditional branches
 *    restores the predictor and every estimator to power-on state and
 *    clears the BHR.
 *  - The native predictors the repo compares against the paper's
 *    estimators, TAGE and the perceptron, and their built-in
 *    confidence buckets: see Tage and Perceptron below, written from
 *    their papers and the conventions stated in predictor/tage.h and
 *    predictor/perceptron.h.
 */

#ifndef CONFSIM_TESTS_REFERENCE_REFERENCE_MODEL_H
#define CONFSIM_TESTS_REFERENCE_REFERENCE_MODEL_H

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "trace/branch_record.h"

namespace confsim::reference {

/** @return a word whose low @p bits bits are set. */
inline std::uint64_t
lowBits(unsigned bits)
{
    return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/** The paper's gshare predictor. */
struct Gshare
{
    unsigned indexBits;
    unsigned historyBits;
    std::vector<unsigned> counters;
    std::uint64_t history = 0;

    Gshare(unsigned index_bits, unsigned history_bits)
        : indexBits(index_bits), historyBits(history_bits)
    {
        powerOn();
    }

    void
    powerOn()
    {
        counters.assign(std::size_t{1} << indexBits, 2);
        history = 0;
    }

    std::size_t
    slot(std::uint64_t pc) const
    {
        return ((pc >> 2) & lowBits(indexBits)) ^ history;
    }

    bool predict(std::uint64_t pc) const { return counters[slot(pc)] >= 2; }

    void
    train(std::uint64_t pc, bool taken)
    {
        unsigned &counter = counters[slot(pc)];
        if (taken && counter < 3)
            ++counter;
        if (!taken && counter > 0)
            --counter;
        history = ((history << 1) | (taken ? 1 : 0)) & lowBits(historyBits);
    }
};

/** What a confidence table is indexed by. */
enum class Index
{
    Pc,
    Bhr,
    PcXorBhr,
};

/** The confidence mechanisms modelled. */
enum class Kind
{
    CirIdeal,   //!< one-level CIR table, raw-pattern buckets
    Saturating, //!< one-level saturating counters
    Resetting,  //!< one-level resetting counters
    TwoLevel,   //!< level-1 CIR indexes a level-2 CIR table
};

/** One confidence estimator's geometry. */
struct EstimatorSpec
{
    Kind kind = Kind::CirIdeal;
    Index index = Index::PcXorBhr;
    unsigned indexBits = 8; //!< level-1 table has 2^indexBits entries
    unsigned width = 8;     //!< CIR bits, or the counter maximum
    unsigned width2 = 8;    //!< level-2 CIR bits (TwoLevel only)
    unsigned init = 0;      //!< counter power-on value (counters only)
};

/** One confidence estimator's tables. */
struct Estimator
{
    EstimatorSpec spec;
    std::vector<std::uint64_t> level1;
    std::vector<std::uint64_t> level2;

    explicit Estimator(const EstimatorSpec &s) : spec(s) { powerOn(); }

    bool
    isCounter() const
    {
        return spec.kind == Kind::Saturating ||
               spec.kind == Kind::Resetting;
    }

    void
    powerOn()
    {
        const std::uint64_t start =
            isCounter() ? std::min(spec.init, spec.width)
                        : lowBits(spec.width);
        level1.assign(std::size_t{1} << spec.indexBits, start);
        if (spec.kind == Kind::TwoLevel)
            level2.assign(std::size_t{1} << spec.width, lowBits(spec.width2));
    }

    std::size_t
    slot(std::uint64_t pc, std::uint64_t bhr) const
    {
        const std::uint64_t pc_bits = (pc >> 2) & lowBits(spec.indexBits);
        const std::uint64_t bhr_bits = bhr & lowBits(spec.indexBits);
        switch (spec.index) {
          case Index::Pc: return pc_bits;
          case Index::Bhr: return bhr_bits;
          case Index::PcXorBhr: return pc_bits ^ bhr_bits;
        }
        return 0;
    }

    std::uint64_t
    buckets() const
    {
        if (isCounter())
            return std::uint64_t{spec.width} + 1;
        return std::uint64_t{1}
               << (spec.kind == Kind::TwoLevel ? spec.width2 : spec.width);
    }

    std::uint64_t
    bucket(std::uint64_t pc, std::uint64_t bhr) const
    {
        const std::uint64_t first = level1[slot(pc, bhr)];
        return spec.kind == Kind::TwoLevel ? level2[first] : first;
    }

    void
    train(std::uint64_t pc, std::uint64_t bhr, bool correct)
    {
        std::uint64_t &first = level1[slot(pc, bhr)];
        const std::uint64_t miss = correct ? 0 : 1;
        switch (spec.kind) {
          case Kind::TwoLevel:
            level2[first] = ((level2[first] << 1) | miss) &
                            lowBits(spec.width2);
            [[fallthrough]];
          case Kind::CirIdeal:
            first = ((first << 1) | miss) & lowBits(spec.width);
            break;
          case Kind::Saturating:
            if (correct && first < spec.width)
                ++first;
            if (!correct && first > 0)
                --first;
            break;
          case Kind::Resetting:
            first = correct ? std::min<std::uint64_t>(first + 1, spec.width)
                            : 0;
            break;
        }
    }
};

/** Simulation knobs. */
struct Options
{
    unsigned bhrBits = 16;
    std::uint64_t switchInterval = 0; //!< 0 = never
};

/** Per-bucket statistics: references and mispredictions. */
struct BucketCount
{
    std::uint64_t refs = 0;
    std::uint64_t mispredicts = 0;
};

/** What a run measured. */
struct Result
{
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t contextSwitches = 0;
    std::vector<std::vector<BucketCount>> buckets; //!< per estimator
};

/** Run @p predictor and @p estimators over @p trace. */
inline Result
simulate(const std::vector<BranchRecord> &trace, Gshare predictor,
         std::vector<Estimator> estimators, const Options &options)
{
    Result result;
    for (const Estimator &estimator : estimators)
        result.buckets.emplace_back(estimator.buckets());
    std::uint64_t bhr = 0;
    std::uint64_t seen = 0;
    for (const BranchRecord &record : trace) {
        if (record.type != BranchType::Conditional)
            continue;
        const bool correct = predictor.predict(record.pc) == record.taken;
        ++result.branches;
        result.mispredicts += correct ? 0 : 1;
        for (std::size_t e = 0; e < estimators.size(); ++e) {
            const std::uint64_t b = estimators[e].bucket(record.pc, bhr);
            ++result.buckets[e][b].refs;
            result.buckets[e][b].mispredicts += correct ? 0 : 1;
            estimators[e].train(record.pc, bhr, correct);
        }
        predictor.train(record.pc, record.taken);
        bhr = ((bhr << 1) | (record.taken ? 1 : 0)) &
              lowBits(options.bhrBits);
        ++seen;
        if (options.switchInterval != 0 &&
            seen % options.switchInterval == 0) {
            predictor.powerOn();
            for (Estimator &estimator : estimators)
                estimator.powerOn();
            bhr = 0;
            ++result.contextSwitches;
        }
    }
    return result;
}

/**
 * XOR-fold @p value into @p width bits: bit i of the value lands on
 * bit i mod width of the result.
 */
inline std::uint64_t
foldBits(std::uint64_t value, unsigned width)
{
    std::uint64_t out = 0;
    for (unsigned i = 0; value != 0; ++i, value >>= 1)
        out ^= (value & 1) << (i % width);
    return out;
}

/**
 * TAGE [Seznec & Michaud 2006] at the repo's paper geometry, from the
 * method text and the conventions stated in predictor/tage.h:
 *  - a base table of 4,096 two-bit counters, power-on 2 (weakly
 *    taken), indexed by bits 2..13 of the PC; taken iff >= 2;
 *  - four tagged tables of 1,024 entries over the newest 5, 11, 24
 *    and 52 history bits (newest outcome in bit 0). Entry index:
 *    fold10(pc >> 2) ^ fold10(pc >> (3 + t)) ^ fold10(history). Tag:
 *    fold9(pc >> 2) ^ fold9(history) ^ (fold8(history) << 1), kept to
 *    9 bits;
 *  - each entry holds a 3-bit counter (taken iff >= 4) and a 2-bit
 *    useful counter u; entries power on as tag 0, counter 0, u 0;
 *  - the provider is the matching table with the longest history;
 *    the alternate is the next-longest match, or the base table;
 *  - strength is the counter's distance from its weak boundary. A
 *    provider with u == 0 and strength 0 is newly allocated; then the
 *    alternate is used iff the 4-bit use-alt counter (power-on 0) is
 *    >= 8;
 *  - training: on provider/alternate disagreement, u steps toward the
 *    provider being right and the use-alt counter (newly allocated
 *    providers only) toward the alternate being right; the provider's
 *    counter steps toward the outcome. On a misprediction, the first
 *    longer table whose entry has u == 0 is claimed (tag set, counter
 *    4 if taken else 3, u 0); if none has, every longer entry's u
 *    steps down. Every 262,144th update halves every u.
 */
struct Tage
{
    static constexpr unsigned kTables = 4;
    static constexpr unsigned kIndexBits = 10;
    static constexpr unsigned kTagBits = 9;
    static constexpr unsigned kBaseBits = 12;
    static constexpr unsigned kLengths[kTables] = {5, 11, 24, 52};
    static constexpr std::uint64_t kAgingPeriod = 262'144;

    struct Entry
    {
        unsigned tag = 0;
        unsigned ctr = 0;
        unsigned u = 0;
    };

    /** What a lookup decides (tage.h's TagePrediction). */
    struct Detail
    {
        bool taken = false;
        bool providerTaken = false;
        bool altTaken = false;
        int providerTable = -1;
        int altTable = -1;
        unsigned providerCtr = 0;
        unsigned providerStrength = 0;
        bool newlyAllocated = false;
        bool usedAlt = false;
    };

    std::vector<std::vector<Entry>> tables;
    std::vector<unsigned> base;
    std::uint64_t history = 0;
    unsigned useAlt = 0;
    std::uint64_t updates = 0;

    Tage()
        : tables(kTables, std::vector<Entry>(std::size_t{1} << kIndexBits)),
          base(std::size_t{1} << kBaseBits, 2)
    {}

    std::uint64_t
    recent(unsigned t) const
    {
        return history & lowBits(kLengths[t]);
    }

    std::size_t
    index(unsigned t, std::uint64_t pc) const
    {
        return foldBits(pc >> 2, kIndexBits) ^
               foldBits(pc >> (3 + t), kIndexBits) ^
               foldBits(recent(t), kIndexBits);
    }

    unsigned
    tag(unsigned t, std::uint64_t pc) const
    {
        const std::uint64_t h = recent(t);
        return static_cast<unsigned>(
            (foldBits(pc >> 2, kTagBits) ^ foldBits(h, kTagBits) ^
             (foldBits(h, kTagBits - 1) << 1)) &
            lowBits(kTagBits));
    }

    std::size_t
    baseSlot(std::uint64_t pc) const
    {
        return (pc >> 2) & lowBits(kBaseBits);
    }

    static unsigned
    strength(unsigned ctr, unsigned weak_taken)
    {
        return ctr >= weak_taken ? ctr - weak_taken : weak_taken - 1 - ctr;
    }

    Detail
    lookup(std::uint64_t pc) const
    {
        Detail d;
        for (int t = kTables - 1; t >= 0; --t) {
            const auto table = static_cast<unsigned>(t);
            if (tables[table][index(table, pc)].tag != tag(table, pc))
                continue;
            if (d.providerTable < 0) {
                d.providerTable = t;
            } else {
                d.altTable = t;
                break;
            }
        }
        const unsigned base_ctr = base[baseSlot(pc)];
        const bool base_taken = base_ctr >= 2;
        d.altTaken = base_taken;
        if (d.altTable >= 0) {
            const auto table = static_cast<unsigned>(d.altTable);
            d.altTaken = tables[table][index(table, pc)].ctr >= 4;
        }
        if (d.providerTable < 0) {
            d.providerCtr = base_ctr;
            d.providerTaken = base_taken;
            d.providerStrength = strength(base_ctr, 2);
            d.taken = base_taken;
            return d;
        }
        const auto table = static_cast<unsigned>(d.providerTable);
        const Entry &entry = tables[table][index(table, pc)];
        d.providerCtr = entry.ctr;
        d.providerTaken = entry.ctr >= 4;
        d.providerStrength = strength(entry.ctr, 4);
        d.newlyAllocated = entry.u == 0 && d.providerStrength == 0;
        d.usedAlt = d.newlyAllocated && useAlt >= 8;
        d.taken = d.usedAlt ? d.altTaken : d.providerTaken;
        return d;
    }

    static void
    step(unsigned &counter, bool up, unsigned max)
    {
        if (up && counter < max)
            ++counter;
        if (!up && counter > 0)
            --counter;
    }

    void
    train(std::uint64_t pc, bool taken)
    {
        const Detail d = lookup(pc);
        if (d.providerTable >= 0) {
            const auto table = static_cast<unsigned>(d.providerTable);
            Entry &entry = tables[table][index(table, pc)];
            if (d.providerTaken != d.altTaken) {
                step(entry.u, d.providerTaken == taken, 3);
                if (d.newlyAllocated)
                    step(useAlt, d.altTaken == taken, 15);
            }
            step(entry.ctr, taken, 7);
        } else {
            step(base[baseSlot(pc)], taken, 3);
        }

        if (d.taken != taken) {
            const auto first = static_cast<unsigned>(d.providerTable + 1);
            bool claimed = false;
            for (unsigned t = first; t < kTables && !claimed; ++t) {
                Entry &entry = tables[t][index(t, pc)];
                if (entry.u == 0) {
                    entry.tag = tag(t, pc);
                    entry.ctr = taken ? 4 : 3;
                    claimed = true;
                }
            }
            for (unsigned t = first; t < kTables && !claimed; ++t)
                step(tables[t][index(t, pc)].u, false, 3);
        }

        if (++updates % kAgingPeriod == 0) {
            for (auto &table : tables)
                for (Entry &entry : table)
                    entry.u /= 2;
        }
        history = (history << 1) | (taken ? 1 : 0);
    }

    /** tage-provider's bucket: 2 x strength + (provider agrees with
     *  the alternate). */
    static std::uint64_t
    bucket(const Detail &d)
    {
        return 2 * std::uint64_t{d.providerStrength} +
               (d.providerTaken == d.altTaken ? 1 : 0);
    }
};

/**
 * The perceptron predictor [Jiménez & Lin 2001] at the repo's paper
 * geometry, from the method text and predictor/perceptron.h:
 *  - 512 rows of 25 weights (a bias, then one per history bit),
 *    power-on 0, the row chosen by fold9(pc >> 2);
 *  - margin = bias + sum over the 24 newest outcomes of +w for a
 *    taken outcome and -w for a not-taken one; predict taken iff
 *    margin >= 0;
 *  - train iff the prediction was wrong or |margin| <= theta, with
 *    theta = floor(1.93 x 24 + 14) = 60: the bias steps toward the
 *    outcome, and weight i steps up iff history bit i equals the
 *    outcome, each clamped to [-128, 127];
 *  - perceptron-margin's bucket with L levels is
 *    min(|margin| x L / (theta + 1), L - 1).
 */
struct Perceptron
{
    static constexpr unsigned kRowBits = 9;
    static constexpr unsigned kHistory = 24;
    static constexpr int kTheta = 60;

    std::vector<std::vector<int>> rows;
    std::uint64_t history = 0;

    Perceptron()
        : rows(std::size_t{1} << kRowBits, std::vector<int>(kHistory + 1))
    {}

    std::size_t row(std::uint64_t pc) const
    {
        return foldBits(pc >> 2, kRowBits);
    }

    int
    margin(std::uint64_t pc) const
    {
        const std::vector<int> &w = rows[row(pc)];
        int sum = w[0];
        for (unsigned i = 0; i < kHistory; ++i)
            sum += ((history >> i) & 1) != 0 ? w[i + 1] : -w[i + 1];
        return sum;
    }

    void
    train(std::uint64_t pc, bool taken)
    {
        const int m = margin(pc);
        if ((m >= 0) != taken || std::abs(m) <= kTheta) {
            std::vector<int> &w = rows[row(pc)];
            const auto nudge = [](int &weight, bool up) {
                weight = std::clamp(weight + (up ? 1 : -1), -128, 127);
            };
            nudge(w[0], taken);
            for (unsigned i = 0; i < kHistory; ++i)
                nudge(w[i + 1], (((history >> i) & 1) != 0) == taken);
        }
        history = ((history << 1) | (taken ? 1 : 0)) & lowBits(kHistory);
    }

    static std::uint64_t
    bucket(int margin, std::uint64_t levels)
    {
        const auto magnitude = static_cast<std::uint64_t>(std::abs(margin));
        return std::min(magnitude * levels / (kTheta + 1), levels - 1);
    }
};

} // namespace confsim::reference

#endif // CONFSIM_TESTS_REFERENCE_REFERENCE_MODEL_H
