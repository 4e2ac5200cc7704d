/**
 * @file
 * Deterministic fault injection for trace streams.
 *
 * FaultInjectingTraceSource decorates any TraceSource and corrupts the
 * stream on its way through: single-bit flips in pc/target, direction
 * flips, record drops and duplicates, early truncation, and a simulated
 * hard failure (the kind a strict CBT2 reader raises on a CRC
 * mismatch). All corruption is drawn from a seeded Rng, so a given
 * (inner stream, FaultSpec) pair always produces the identical faulty
 * stream — reset() replays it bit-for-bit.
 *
 * Two uses: end-to-end testing of the I/O hardening and the suite
 * runner's fail-fast path, and the robustness ablation in
 * examples/robustness_ablation.cc showing how the paper's confidence
 * estimators degrade when the branch stream itself is corrupted.
 */

#ifndef CONFSIM_FAULT_FAULT_INJECTION_H
#define CONFSIM_FAULT_FAULT_INJECTION_H

#include <cstdint>
#include <functional>
#include <memory>

#include "trace/trace_source.h"
#include "util/rng.h"

namespace confsim {

/** Per-record fault probabilities and stream-level fault points. */
struct FaultSpec
{
    std::uint64_t seed = 0xFA17ED; //!< Rng seed for all fault draws

    double pcBitFlipProb = 0.0;     //!< flip one random bit of pc
    double targetBitFlipProb = 0.0; //!< flip one random bit of target
    double takenFlipProb = 0.0;     //!< invert the resolved direction
    double dropProb = 0.0;          //!< silently lose the record
    double duplicateProb = 0.0;     //!< deliver the record twice

    /** Deliver at most this many records (0 = no truncation). */
    std::uint64_t truncateAfter = 0;

    /**
     * Throw (via fatal()) once this many records have been delivered
     * (0 = never). Models the hard failure a strict reader raises on
     * corrupt input, so error-isolation paths can be driven without a
     * real corrupt file.
     */
    std::uint64_t failAfter = 0;
};

/** Counts of faults actually injected so far. */
struct FaultStats
{
    std::uint64_t pcFlips = 0;
    std::uint64_t targetFlips = 0;
    std::uint64_t takenFlips = 0;
    std::uint64_t drops = 0;
    std::uint64_t duplicates = 0;
    bool truncated = false;

    /** @return total corrupted/lost/duplicated records. */
    std::uint64_t
    total() const
    {
        return pcFlips + targetFlips + takenFlips + drops + duplicates;
    }
};

/**
 * Observer invoked once per injected fault, with the fault kind
 * ("pc_bit_flip", "target_bit_flip", "taken_flip", "drop",
 * "duplicate", "truncate", "hard_fail") and the count of records
 * delivered so far (i.e. the stream position the fault hit). Wired by
 * SuiteRunner to the telemetry event stream so every injected fault
 * is observable in the run's JSONL.
 */
using FaultEventHook =
    std::function<void(const char *kind, std::uint64_t delivered)>;

/** TraceSource decorator that injects FaultSpec faults. */
class FaultInjectingTraceSource : public TraceSource
{
  public:
    /** Decorate @p inner (not owned; must outlive this). */
    FaultInjectingTraceSource(TraceSource &inner, FaultSpec spec);

    /** Decorate and own @p inner; calls fatal() if it is null. */
    FaultInjectingTraceSource(std::unique_ptr<TraceSource> inner,
                              FaultSpec spec);

    bool next(BranchRecord &record) override;

    /** Rewind the inner source and replay the identical fault stream. */
    void reset() override;

    /** @return faults injected since construction or the last reset(). */
    const FaultStats &stats() const { return stats_; }

    /** @return records delivered since construction or last reset(). */
    std::uint64_t delivered() const { return delivered_; }

    bool checkpointable() const override;
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;

    /** Install a per-fault observer (empty = none). */
    void setEventHook(FaultEventHook hook)
    {
        hook_ = std::move(hook);
    }

  private:
    /** Count a fault and notify the hook, if any. */
    void
    injected(std::uint64_t &stat, const char *kind)
    {
        ++stat;
        if (hook_)
            hook_(kind, delivered_);
    }

    std::unique_ptr<TraceSource> owned_;
    TraceSource *inner_;
    FaultSpec spec_;
    Rng rng_;
    FaultStats stats_;
    FaultEventHook hook_;
    std::uint64_t delivered_ = 0;
    bool havePending_ = false;
    BranchRecord pending_;
};

} // namespace confsim

#endif // CONFSIM_FAULT_FAULT_INJECTION_H
