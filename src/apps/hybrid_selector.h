/**
 * @file
 * Confidence-driven hybrid predictor selection (paper Section 1,
 * application 3).
 *
 * "Hybrid branch predictors [1, 5] use more than one predictor and
 * select the prediction made by one of them based on the history of
 * prediction accuracies of the constituent predictors. The methods
 * proposed in [1, 5] are basically ad hoc confidence mechanisms ...
 * By studying confidence mechanisms in general, we may be able to
 * arrive at more accurate hybrid selectors."
 *
 * This model reads two constituent predictors' branch logs
 * (apps/branch_log.h), each from its own confidence estimator
 * (ordered-bucket counters) over the same trace; the prediction of the
 * higher-confidence constituent wins. Two binary predictions disagree
 * exactly when one of them is mispredicted, so the logged
 * (bucket, mispredicted) pairs decide every count. The bench compares
 * against each constituent alone and against the classic McFarling
 * chooser (predictor/hybrid.h).
 */

#ifndef CONFSIM_APPS_HYBRID_SELECTOR_H
#define CONFSIM_APPS_HYBRID_SELECTOR_H

#include <cstdint>

#include "apps/branch_log.h"

namespace confsim {

/** Results of a confidence-selector run. */
struct HybridSelectorResult
{
    std::uint64_t branches = 0;
    std::uint64_t firstMispredicts = 0;    //!< constituent 1 alone
    std::uint64_t secondMispredicts = 0;   //!< constituent 2 alone
    std::uint64_t selectedMispredicts = 0; //!< confidence selection
    std::uint64_t disagreements = 0;       //!< constituents disagreed
    std::uint64_t oracleMispredicts = 0;   //!< perfect selection bound

    double rate(std::uint64_t misses) const
    {
        return branches == 0
                   ? 0.0
                   : static_cast<double>(misses) / branches;
    }
};

/**
 * Run the confidence-based selector over two logs of the same trace.
 *
 * Both logs must come from ordered-bucket estimators
 * (BranchLog::bucketsOrdered), so "higher bucket = higher confidence"
 * is meaningful; ties go to the second constituent (by convention the
 * more accurate one).
 *
 * @param first Constituent 1's log (e.g. bimodal's).
 * @param second Constituent 2's log (e.g. gshare's), as long as
 *        @p first.
 */
HybridSelectorResult runHybridSelector(const BranchLog &first,
                                       const BranchLog &second);

} // namespace confsim

#endif // CONFSIM_APPS_HYBRID_SELECTOR_H
