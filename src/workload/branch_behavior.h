/**
 * @file
 * Per-static-branch outcome models for the synthetic workload generator.
 *
 * The IBS traces the paper used are unavailable, so each synthetic static
 * branch is given a behaviour drawn from the classes real conditional
 * branches fall into:
 *
 *  - loop latches: taken k-1 times then not-taken (trip-count
 *    distributions control how learnable the exit is),
 *  - biased data-dependent branches: i.i.d. Bernoulli with a skewed p,
 *  - periodic patterns: short repeating direction sequences,
 *  - history-correlated branches: a boolean function (parity or
 *    majority) of recent *global* outcomes plus noise — these are what
 *    give global-history predictors and PC^BHR confidence indexing their
 *    edge, exactly the correlation structure refs [7, 13] describe,
 *  - chained branches: echo or invert another recent outcome.
 *
 * Behaviours are stateful (loop position, pattern phase) and deterministic
 * given the Rng handed to them.
 */

#ifndef CONFSIM_WORKLOAD_BRANCH_BEHAVIOR_H
#define CONFSIM_WORKLOAD_BRANCH_BEHAVIOR_H

#include <cstdint>
#include <memory>
#include <vector>

#include "ckpt/state_io.h"
#include "util/rng.h"
#include "util/shift_register.h"

namespace confsim {

/**
 * Mutable execution context shared by all behaviours of one workload:
 * the global actual-outcome history they may correlate with.
 */
class WorkloadContext
{
  public:
    WorkloadContext() : history_(64, 0) {}

    /** Record a resolved outcome into the global history. */
    void recordOutcome(bool taken) { history_.shiftIn(taken); }

    /**
     * @return the i-th most recent global outcome (i = 0 is the
     * previous branch).
     */
    bool
    pastOutcome(unsigned i) const
    {
        return bitOf(history_.value(), i) != 0;
    }

    /** @return the low 64 outcomes as a bit pattern (newest = LSB). */
    std::uint64_t historyValue() const { return history_.value(); }

    /** Clear the history (used by generator reset()). */
    void reset() { history_.clear(); }

    /** Restore a historyValue() snapshot (checkpoint resume). */
    void setHistory(std::uint64_t value) { history_.set(value); }

  private:
    ShiftRegister history_;
};

/** Abstract per-branch outcome model. */
class BranchBehavior
{
  public:
    virtual ~BranchBehavior() = default;

    /**
     * Produce this branch's next outcome.
     *
     * @param ctx Global outcome history (already includes all previous
     *            branches, not yet this one).
     * @param rng Deterministic noise source.
     * @return true if the branch is taken.
     */
    virtual bool nextOutcome(const WorkloadContext &ctx, Rng &rng) = 0;

    /** Restore initial state (loop counters, pattern phase). */
    virtual void reset() = 0;

    /** Deep copy (the CFG clones behaviours on generator reset). */
    virtual std::unique_ptr<BranchBehavior> clone() const = 0;

    /**
     * @return true iff the behaviour carries state of its own. Most
     * are stateless (all their variation comes from the shared Rng,
     * which the workload generator checkpoints): their reset(),
     * saveState() and loadState() do nothing. Loop position and
     * pattern phase are the exceptions.
     */
    virtual bool stateful() const { return false; }

    /** Checkpoint mutable state (nothing unless stateful()). */
    virtual void saveState(StateWriter &out) const { (void)out; }

    /** Restore a saveState() snapshot. */
    virtual void loadState(StateReader &in) { (void)in; }
};

/** i.i.d. Bernoulli branch: taken with fixed probability. */
class BiasedBehavior : public BranchBehavior
{
  public:
    /** @param p_taken Probability of taken, in [0, 1]. */
    explicit BiasedBehavior(double p_taken);

    bool nextOutcome(const WorkloadContext &ctx, Rng &rng) override;
    void reset() override {}
    std::unique_ptr<BranchBehavior> clone() const override;

    /** @return the configured taken probability. */
    double takenProbability() const { return pTaken_; }

  private:
    double pTaken_;
};

/** Trip-count distribution shapes for LoopBehavior. */
enum class TripCountModel
{
    Fixed,     //!< always exactly the mean (fully learnable exits)
    Jittered,  //!< uniform in [mean - jitter, mean + jitter]
    Geometric, //!< geometric with the given mean (unlearnable exits)
};

/**
 * Bottom-test loop latch: taken while iterations remain, not-taken once
 * per loop execution (the exit).
 */
class LoopBehavior : public BranchBehavior
{
  public:
    /**
     * @param mean_trip Mean iteration count per loop entry; >= 1.
     * @param model Trip-count distribution.
     * @param jitter Half-width for the Jittered model.
     */
    LoopBehavior(std::uint32_t mean_trip, TripCountModel model,
                 std::uint32_t jitter = 0);

    bool nextOutcome(const WorkloadContext &ctx, Rng &rng) override;
    void reset() override;
    std::unique_ptr<BranchBehavior> clone() const override;
    bool stateful() const override { return true; }

    void
    saveState(StateWriter &out) const override
    {
        out.putU32(remaining_);
        out.putBool(started_);
    }

    void
    loadState(StateReader &in) override
    {
        remaining_ = in.getU32();
        started_ = in.getBool();
    }

  private:
    std::uint32_t drawTripCount(Rng &rng) const;

    std::uint32_t meanTrip_;
    TripCountModel model_;
    std::uint32_t jitter_;
    std::uint32_t remaining_ = 0;
    bool started_ = false;
};

/** Fixed repeating direction pattern (e.g. T T N T T N ...). */
class PatternBehavior : public BranchBehavior
{
  public:
    /**
     * @param pattern Direction sequence; replayed cyclically. Must be
     *        non-empty.
     */
    explicit PatternBehavior(std::vector<bool> pattern);

    bool nextOutcome(const WorkloadContext &ctx, Rng &rng) override;
    void reset() override { phase_ = 0; }
    std::unique_ptr<BranchBehavior> clone() const override;
    bool stateful() const override { return true; }

    void
    saveState(StateWriter &out) const override
    {
        out.putU64(phase_);
    }

    void
    loadState(StateReader &in) override
    {
        const std::uint64_t phase = in.getU64();
        if (phase >= pattern_.size()) {
            fatal(ErrorCategory::kCheckpoint,
                  "pattern phase " + std::to_string(phase) +
                      " out of range in checkpoint (pattern of " +
                      std::to_string(pattern_.size()) + ")");
        }
        phase_ = static_cast<std::size_t>(phase);
    }

  private:
    std::vector<bool> pattern_;
    std::size_t phase_ = 0;
};

/** Boolean combining function for HistoryCorrelatedBehavior. */
enum class CorrelationOp
{
    Parity,   //!< XOR of the tapped outcomes
    Majority, //!< majority vote of the tapped outcomes
    And,      //!< all tapped outcomes taken
};

/**
 * Outcome is a boolean function of recent global outcomes, flipped with
 * a small noise probability. Tap depths are limited to the last 16
 * outcomes so a 16-bit-history predictor can capture them (and a 12-bit
 * one partially cannot — one source of the 64K vs 4K gap).
 */
class HistoryCorrelatedBehavior : public BranchBehavior
{
  public:
    /**
     * @param taps History depths (0 = most recent) the function reads.
     * @param op Combining function.
     * @param noise Probability the functional outcome is inverted.
     * @param invert Statically invert the function (decorrelates
     *        different branches using similar taps).
     */
    HistoryCorrelatedBehavior(std::vector<unsigned> taps,
                              CorrelationOp op, double noise,
                              bool invert = false);

    bool nextOutcome(const WorkloadContext &ctx, Rng &rng) override;
    void reset() override {}
    std::unique_ptr<BranchBehavior> clone() const override;

  private:
    std::vector<unsigned> taps_;
    CorrelationOp op_;
    double noise_;
    bool invert_;
};

/**
 * Echo (or invert) the d-th most recent global outcome with noise —
 * models directly dependent branch pairs such as a repeated test of the
 * same condition.
 */
class ChainBehavior : public BranchBehavior
{
  public:
    /**
     * @param depth Which past outcome to follow (0 = most recent).
     * @param invert Invert the followed outcome.
     * @param noise Probability of deviating.
     */
    ChainBehavior(unsigned depth, bool invert, double noise);

    bool nextOutcome(const WorkloadContext &ctx, Rng &rng) override;
    void reset() override {}
    std::unique_ptr<BranchBehavior> clone() const override;

  private:
    unsigned depth_;
    bool invert_;
    double noise_;
};

} // namespace confsim

#endif // CONFSIM_WORKLOAD_BRANCH_BEHAVIOR_H
