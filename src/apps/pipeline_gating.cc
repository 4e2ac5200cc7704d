#include "apps/pipeline_gating.h"

#include <deque>

#include "util/status.h"

namespace confsim {

namespace {

/** One unresolved conditional branch in flight. */
struct InFlightBranch
{
    std::uint64_t resolveCycle = 0;
    bool mispredicted = false;
    bool lowConfidence = false;
};

} // namespace

GatingResult
runPipelineGating(const BranchLog &log,
                  const std::vector<bool> &low_buckets,
                  const GatingConfig &config)
{
    requireMaskFits(low_buckets, log, "pipeline-gating");
    if (config.fetchWidth == 0)
        fatal("fetch width must be >= 1");

    GatingResult result;
    std::deque<InFlightBranch> inflight;
    unsigned low_outstanding = 0;
    bool wrong_path = false;
    bool log_done = false;
    unsigned until_branch = config.instrsPerBranch;
    std::size_t next_entry = 0;

    for (std::uint64_t cycle = 0;; ++cycle) {
        // 1. Resolve branches whose latency elapsed (FIFO order).
        while (!inflight.empty() &&
               inflight.front().resolveCycle <= cycle) {
            const InFlightBranch branch = inflight.front();
            inflight.pop_front();
            if (branch.lowConfidence)
                --low_outstanding;
            if (branch.mispredicted) {
                // Redirect: everything fetched behind it was junk and
                // has already been counted as wrong-path at fetch
                // time; correct-path fetch resumes this cycle.
                wrong_path = false;
            }
        }

        // Termination: log consumed and the pipeline drained.
        if ((log_done || result.branches >= config.branches) &&
            inflight.empty()) {
            result.cycles = cycle;
            break;
        }

        // 2. Gating decision for this cycle's fetch.
        const bool fetch_ended =
            log_done || result.branches >= config.branches;
        if (fetch_ended)
            continue; // draining: no more fetch, just resolutions
        if (config.enableGating &&
            low_outstanding > config.gateThreshold) {
            ++result.gatedCycles;
            continue;
        }

        // 3. Fetch up to fetchWidth instructions.
        for (unsigned slot = 0; slot < config.fetchWidth; ++slot) {
            ++result.fetchedInstructions;
            if (wrong_path) {
                ++result.wrongPathInstructions;
                continue;
            }
            ++result.committedInstructions;
            if (until_branch > 0) {
                --until_branch;
                continue;
            }

            // This instruction is the next conditional branch.
            if (next_entry == log.entries.size()) {
                log_done = true;
                until_branch = config.instrsPerBranch;
                break;
            }
            const std::uint32_t entry = log.entries[next_entry++];
            const bool mispredicted = BranchLog::missed(entry);
            const bool low = BranchLog::low(low_buckets, entry);

            ++result.branches;
            if (mispredicted)
                ++result.mispredicts;

            inflight.push_back(
                {cycle + config.resolveLatency, mispredicted, low});
            if (low)
                ++low_outstanding;
            if (mispredicted)
                wrong_path = true; // the rest of fetch is junk
            until_branch = config.instrsPerBranch;

            if (result.branches >= config.branches)
                break;
        }
    }
    return result;
}

} // namespace confsim
