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
 *  - Warmup excludes the first branches from the statistics only; a
 *    context switch after every `interval` conditional branches
 *    (warmup included) restores the chosen structures to power-on
 *    state and clears the BHR.
 */

#ifndef CONFSIM_TESTS_REFERENCE_REFERENCE_MODEL_H
#define CONFSIM_TESTS_REFERENCE_REFERENCE_MODEL_H

#include <algorithm>
#include <cstdint>
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
    std::uint64_t warmup = 0;
    std::uint64_t switchInterval = 0; //!< 0 = never
    bool flushPredictor = true;
    bool flushEstimators = true;
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
        const bool counted = seen >= options.warmup;
        if (counted) {
            ++result.branches;
            result.mispredicts += correct ? 0 : 1;
        }
        for (std::size_t e = 0; e < estimators.size(); ++e) {
            const std::uint64_t b = estimators[e].bucket(record.pc, bhr);
            if (counted) {
                ++result.buckets[e][b].refs;
                result.buckets[e][b].mispredicts += correct ? 0 : 1;
            }
            estimators[e].train(record.pc, bhr, correct);
        }
        predictor.train(record.pc, record.taken);
        bhr = ((bhr << 1) | (record.taken ? 1 : 0)) &
              lowBits(options.bhrBits);
        ++seen;
        if (options.switchInterval != 0 &&
            seen % options.switchInterval == 0) {
            if (options.flushPredictor)
                predictor.powerOn();
            if (options.flushEstimators) {
                for (Estimator &estimator : estimators)
                    estimator.powerOn();
            }
            bhr = 0;
            ++result.contextSwitches;
        }
    }
    return result;
}

} // namespace confsim::reference

#endif // CONFSIM_TESTS_REFERENCE_REFERENCE_MODEL_H
