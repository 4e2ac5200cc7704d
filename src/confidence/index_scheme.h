/**
 * @file
 * CIR-table index schemes (paper Section 3.1).
 *
 * "Beginning with these three basic methods of indexing into the CT (PC,
 * global BHR, global CIR), one can construct a number of others by
 * concatenating portions of each or exclusive-ORing them." All of those
 * variants are implemented so the index-scheme ablation bench can
 * reproduce the paper's preliminary findings (XOR beats concatenation;
 * global-CIR indexing is of little value).
 */

#ifndef CONFSIM_CONFIDENCE_INDEX_SCHEME_H
#define CONFSIM_CONFIDENCE_INDEX_SCHEME_H

#include <cstdint>
#include <string>

#include "confidence/branch_context.h"
#include "util/bits.h"
#include "util/status.h"

namespace confsim {

/** How a confidence table index is formed from the branch context. */
enum class IndexScheme
{
    Pc,              //!< PC bits alone
    Bhr,             //!< global branch history alone
    Gcir,            //!< global correct/incorrect register alone
    PcXorBhr,        //!< the paper's best one-level scheme
    PcXorGcir,       //!< PC hashed with global CIR
    BhrXorGcir,      //!< BHR hashed with global CIR
    PcXorBhrXorGcir, //!< all three XORed
    PcConcatBhr,     //!< low half PC bits, high half BHR bits
};

/** @return short name used in reports, e.g. "PCxorBHR". */
const char *toString(IndexScheme scheme);

/**
 * Compute a table index of @p index_bits bits under @p scheme.
 *
 * PC contributes bits [index_bits + 1 : 2] (word-aligned instructions);
 * history registers contribute their low index_bits bits. Inline: every
 * CIR, counter and two-level estimator forms its index here once per
 * branch.
 */
inline std::uint64_t
computeIndex(IndexScheme scheme, const BranchContext &ctx,
             unsigned index_bits)
{
    if (index_bits == 0 || index_bits > 32) [[unlikely]]
        fatal("confidence table index width must be in [1, 32]");

    const std::uint64_t pc_field = bitsOf(ctx.pc, index_bits + 1, 2);
    const std::uint64_t bhr_field = ctx.bhr & mask(index_bits);
    const std::uint64_t gcir_field = ctx.gcir & mask(index_bits);

    switch (scheme) {
      case IndexScheme::Pc:
        return pc_field;
      case IndexScheme::Bhr:
        return bhr_field;
      case IndexScheme::Gcir:
        return gcir_field;
      case IndexScheme::PcXorBhr:
        return pc_field ^ bhr_field;
      case IndexScheme::PcXorGcir:
        return pc_field ^ gcir_field;
      case IndexScheme::BhrXorGcir:
        return bhr_field ^ gcir_field;
      case IndexScheme::PcXorBhrXorGcir:
        return pc_field ^ bhr_field ^ gcir_field;
      case IndexScheme::PcConcatBhr: {
        // Low half from the PC, high half from the BHR (youngest
        // history bits kept on both sides).
        const unsigned lo_bits = (index_bits + 1) / 2;
        const unsigned hi_bits = index_bits - lo_bits;
        return (pc_field & mask(lo_bits)) |
               ((bhr_field & mask(hi_bits)) << lo_bits);
      }
    }
    panic("unknown IndexScheme");
}

} // namespace confsim

#endif // CONFSIM_CONFIDENCE_INDEX_SCHEME_H
