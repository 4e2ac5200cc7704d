/**
 * @file
 * SMT fetch-gating model (paper Section 1, application 2).
 *
 * "In SMT, instruction fetching has been identified as a critical
 * resource [10]. This resource can be more efficiently used by fetching
 * instructions only down predicted paths that have a high likelihood of
 * being correctly predicted."
 *
 * Model: N hardware threads, each running its own benchmark with a
 * private predictor and confidence estimator, read as that benchmark's
 * branch log (apps/branch_log.h). Each fetch slot goes to one thread
 * (round-robin over eligible threads). When a thread's most recent
 * prediction was low confidence, a gating policy deprioritizes
 * it until that branch resolves. Fetched instructions between a
 * mispredicted branch and its resolution are wrong-path (wasted). The
 * bench compares wasted-fetch fractions with gating off/on, reproducing
 * the motivation of Tullsen et al.'s ICOUNT-style fetch policies.
 */

#ifndef CONFSIM_APPS_SMT_FETCH_H
#define CONFSIM_APPS_SMT_FETCH_H

#include <cstdint>
#include <vector>

#include "apps/branch_log.h"

namespace confsim {

/** SMT fetch-model parameters. */
struct SmtFetchConfig
{
    /** Instructions fetched per slot (fetch block size). */
    unsigned fetchBlock = 8;

    /** Instructions between a branch fetch and its resolution. Must
     *  exceed (threads x fetchBlock) for wrong-path fetch to be
     *  possible at all under round-robin scheduling — with N threads a
     *  thread is revisited only every N slots. */
    unsigned resolutionLatency = 64;

    /** Gate threads whose pending branch is low confidence. */
    bool gateOnLowConfidence = true;

    /** Average instructions between conditional branches. */
    unsigned instrsPerBranch = 6;

    /** Total fetch slots to simulate. */
    std::uint64_t fetchSlots = 500'000;
};

/** @return the most branches one thread can fetch under @p config:
 *  fetchSlots x fetchBlock instructions, instrsPerBranch + 1 each. */
std::uint64_t smtBranchesPerThread(const SmtFetchConfig &config);

/** One thread of the SMT model. */
struct SmtThreadSpec
{
    /** The thread's branch log; the view must outlive the run. */
    BranchLog log;
    /** Buckets treated as low confidence for gating. */
    std::vector<bool> lowBuckets;
};

/** Aggregate results of an SMT fetch simulation. */
struct SmtFetchResult
{
    std::uint64_t fetchedInstructions = 0;
    std::uint64_t wastedInstructions = 0; //!< fetched on a wrong path
    std::uint64_t gatedSlots = 0;         //!< thread-skips by gating
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;

    /** @return fraction of fetched instructions that were wrong-path. */
    double wastedFraction() const
    {
        return fetchedInstructions == 0
                   ? 0.0
                   : static_cast<double>(wastedInstructions) /
                         fetchedInstructions;
    }

    /** @return useful instructions fetched per slot. */
    double usefulPerSlot(std::uint64_t slots) const
    {
        return slots == 0 ? 0.0
                          : static_cast<double>(fetchedInstructions -
                                                wastedInstructions) /
                                slots;
    }
};

/** Run the SMT fetch model over the given threads; fatal() when a
 *  log is empty or shorter than the run needs (see above). */
SmtFetchResult runSmtFetch(const std::vector<SmtThreadSpec> &threads,
                           const SmtFetchConfig &config = {});

} // namespace confsim

#endif // CONFSIM_APPS_SMT_FETCH_H
