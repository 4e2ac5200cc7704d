#include "apps/hybrid_selector.h"

#include "util/status.h"

namespace confsim {

HybridSelectorResult
runHybridSelector(const BranchLog &first, const BranchLog &second)
{
    if (!first.bucketsOrdered || !second.bucketsOrdered) {
        fatal("hybrid selection requires ordered-bucket (counter) "
              "confidence estimators");
    }
    if (first.entries.size() != second.entries.size())
        fatal("hybrid selection needs two logs of the same trace");

    HybridSelectorResult result;
    for (std::size_t i = 0; i < first.entries.size(); ++i) {
        const std::uint32_t entry1 = first.entries[i];
        const std::uint32_t entry2 = second.entries[i];
        const bool miss1 = BranchLog::missed(entry1);
        const bool miss2 = BranchLog::missed(entry2);

        // Confidence arbitration: the more confident constituent wins;
        // ties go to the second constituent.
        const bool miss_selected =
            BranchLog::bucket(entry1) > BranchLog::bucket(entry2) ? miss1
                                                                  : miss2;

        ++result.branches;
        result.firstMispredicts += miss1;
        result.secondMispredicts += miss2;
        result.selectedMispredicts += miss_selected;
        result.disagreements += miss1 != miss2;
        result.oracleMispredicts += miss1 && miss2;
    }
    return result;
}

} // namespace confsim
