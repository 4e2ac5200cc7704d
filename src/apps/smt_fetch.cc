#include "apps/smt_fetch.h"

#include <algorithm>
#include <string>

#include "util/status.h"

namespace confsim {

namespace {

/** Per-thread microstate of the fetch model. */
struct ThreadState
{
    std::size_t nextEntry = 0;            //!< next branch in the log
    std::uint64_t wrongPathUntilSlot = 0; //!< fetching junk before this
    std::uint64_t gateUntilSlot = 0;      //!< deprioritized before this
    unsigned untilNextBranch = 0;         //!< correct-path countdown
};

} // namespace

std::uint64_t
smtBranchesPerThread(const SmtFetchConfig &config)
{
    return config.fetchSlots * config.fetchBlock /
               (config.instrsPerBranch + 1) +
           1;
}

SmtFetchResult
runSmtFetch(const std::vector<SmtThreadSpec> &threads,
            const SmtFetchConfig &config)
{
    if (threads.empty())
        fatal("SMT fetch model needs at least one thread");
    for (const auto &spec : threads) {
        if (spec.log.entries.empty())
            fatal("SMT thread has an empty branch log");
        requireMaskFits(spec.lowBuckets, spec.log, "SMT thread");
    }

    const std::uint64_t latency_slots = std::max<std::uint64_t>(
        1, config.resolutionLatency / config.fetchBlock);

    SmtFetchResult result;
    std::vector<ThreadState> state(threads.size());
    for (auto &ts : state)
        ts.untilNextBranch = config.instrsPerBranch;

    std::size_t rr = 0; // round-robin pointer

    for (std::uint64_t slot = 0; slot < config.fetchSlots; ++slot) {
        // Pick the next eligible thread round-robin; count every
        // gated thread we skip over.
        std::size_t chosen = threads.size();
        for (std::size_t k = 0; k < threads.size(); ++k) {
            const std::size_t t = (rr + k) % threads.size();
            if (config.gateOnLowConfidence &&
                slot < state[t].gateUntilSlot) {
                ++result.gatedSlots;
                continue;
            }
            chosen = t;
            break;
        }
        if (chosen == threads.size()) {
            continue; // every thread gated: fetch idles this slot
        }
        rr = (chosen + 1) % threads.size();

        ThreadState &ts = state[chosen];
        const SmtThreadSpec &spec = threads[chosen];

        if (slot < ts.wrongPathUntilSlot) {
            // The whole block is wrong-path junk.
            result.fetchedInstructions += config.fetchBlock;
            result.wastedInstructions += config.fetchBlock;
            continue;
        }

        for (unsigned i = 0; i < config.fetchBlock; ++i) {
            ++result.fetchedInstructions;
            if (ts.untilNextBranch > 0) {
                --ts.untilNextBranch;
                continue;
            }

            // Fetch reached the next conditional branch.
            if (ts.nextEntry == spec.log.entries.size())
                fatal("SMT thread " + std::to_string(chosen) +
                      "'s branch log ran out");
            const std::uint32_t entry = spec.log.entries[ts.nextEntry++];

            ++result.branches;
            ts.untilNextBranch = config.instrsPerBranch;

            if (BranchLog::low(spec.lowBuckets, entry))
                ts.gateUntilSlot = slot + 1 + latency_slots;

            if (BranchLog::missed(entry)) {
                ++result.mispredicts;
                ts.wrongPathUntilSlot = slot + 1 + latency_slots;
                // The rest of this block is already wrong-path.
                const unsigned remaining = config.fetchBlock - 1 - i;
                result.fetchedInstructions += remaining;
                result.wastedInstructions += remaining;
                break;
            }
        }
    }
    return result;
}

} // namespace confsim
