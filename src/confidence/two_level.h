/**
 * @file
 * Two-level dynamic confidence mechanisms (paper Section 3.2, Fig. 4).
 *
 * A first-level CT is indexed as in the one-level methods; the n-bit CIR
 * it produces is then (optionally hashed with PC/BHR and) used to index
 * a second-level CT of p-bit CIRs, which records the correct/incorrect
 * outcomes of the p most recent times that first-level combination
 * occurred. The paper's three representative variants:
 *
 *  - PC       -> level-1,  CIR              -> level-2   ("PC-CIR")
 *  - PC^BHR   -> level-1,  CIR              -> level-2   ("BHRxorPC-CIR")
 *  - PC^BHR   -> level-1,  CIR^PC^BHR       -> level-2
 *
 * plus the remaining hash combinations for ablation studies. The paper's
 * conclusion — the second level is not worth the hardware — is
 * reproduced by bench/fig07_comparison.
 */

#ifndef CONFSIM_CONFIDENCE_TWO_LEVEL_H
#define CONFSIM_CONFIDENCE_TWO_LEVEL_H

#include "confidence/cir_table.h"
#include "confidence/confidence_estimator.h"
#include "confidence/index_scheme.h"
#include "confidence/one_level.h"

namespace confsim {

/** How the second-level index is formed from the level-1 CIR. */
enum class SecondLevelIndex
{
    Cir,          //!< level-1 CIR alone
    CirXorPc,     //!< CIR ^ PC bits
    CirXorBhr,    //!< CIR ^ BHR bits
    CirXorPcXorBhr, //!< CIR ^ PC ^ BHR (the paper's third variant)
};

/** @return short name, e.g. "CIR", "CIRxorPCxorBHR". */
const char *toString(SecondLevelIndex index);

/** Two-level CIR-table confidence estimator. */
class TwoLevelConfidence : public ConfidenceEstimator
{
  public:
    /**
     * @param first_scheme Level-1 CT index formation.
     * @param first_entries Level-1 CT size (2^m).
     * @param first_cir_bits Level-1 CIR width n, 1..16; the level-2 CT
     *        has 2^n entries.
     * @param second_index Level-2 index formation.
     * @param second_cir_bits Level-2 CIR width p, 1..16.
     * @param reduction Bucket function over the level-2 CIR.
     * @param init Initialization for both tables.
     */
    TwoLevelConfidence(IndexScheme first_scheme,
                       std::size_t first_entries,
                       unsigned first_cir_bits,
                       SecondLevelIndex second_index,
                       unsigned second_cir_bits,
                       CirReduction reduction = CirReduction::RawPattern,
                       CtInit init = CtInit::Ones);

    std::uint64_t bucketOf(const BranchContext &ctx) const override;
    std::uint64_t update(const BranchContext &ctx, bool correct,
                         bool taken) override;
    std::uint64_t numBuckets() const override;
    std::uint64_t storageBits() const override;
    std::string name() const override;
    void reset() override;

    bool checkpointable() const override { return true; }
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;

  private:
    /** @return the level-2 index for level-1 pattern @p first_cir. */
    std::uint64_t secondIndexOf(const BranchContext &ctx,
                                std::uint64_t first_cir) const;

    /** @return @p cir's bucket under the configured reduction. */
    std::uint64_t reduce(std::uint64_t cir) const;

    IndexScheme firstScheme_;
    CirTable firstTable_;
    SecondLevelIndex secondIndex_;
    CirTable secondTable_;
    CirReduction reduction_;
};

} // namespace confsim

#endif // CONFSIM_CONFIDENCE_TWO_LEVEL_H
