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
 * A behaviour is one value: its kind, its parameters and its loop or
 * pattern state, held inline in its CFG block. Behaviours are stateful
 * (loop position, pattern phase) and deterministic given the Rng handed
 * to them.
 */

#ifndef CONFSIM_WORKLOAD_BRANCH_BEHAVIOR_H
#define CONFSIM_WORKLOAD_BRANCH_BEHAVIOR_H

#include <array>
#include <cstdint>
#include <span>

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

/** The predictability class of a static branch. */
enum class BehaviorKind : std::uint8_t
{
    Biased,            //!< i.i.d. Bernoulli with a fixed probability
    Loop,              //!< bottom-test loop latch
    Pattern,           //!< fixed repeating direction pattern
    HistoryCorrelated, //!< boolean function of recent global outcomes
    Chain,             //!< echo (or inverse) of one recent outcome
};

/** Trip-count distribution shapes for loop latches. */
enum class TripCountModel : std::uint8_t
{
    Fixed,     //!< always exactly the mean (fully learnable exits)
    Jittered,  //!< uniform in [mean - jitter, mean + jitter]
    Geometric, //!< geometric with the given mean (unlearnable exits)
};

/** Boolean combining function for history-correlated branches. */
enum class CorrelationOp : std::uint8_t
{
    Parity,   //!< XOR of the tapped outcomes
    Majority, //!< majority vote of the tapped outcomes
    And,      //!< all tapped outcomes taken
};

/**
 * One static branch's outcome model: a tagged value of one of the five
 * kinds, built by the factory of its kind. It owns no heap memory, and
 * nextOutcome() is one switch over the kind.
 */
class BranchBehavior
{
  public:
    /** Longest pattern: its directions are the bits of one word. */
    static constexpr unsigned kMaxPatternLength = 64;

    /** Most taps a history-correlated branch reads (the CFG draws 1-3). */
    static constexpr unsigned kMaxTaps = 3;

    /** i.i.d. Bernoulli branch: taken with @p p_taken, in [0, 1]. */
    static BranchBehavior biased(double p_taken);

    /**
     * Bottom-test loop latch: taken while iterations remain, not-taken
     * once per loop execution (the exit).
     *
     * @param mean_trip Mean iteration count per loop entry; >= 1.
     * @param model Trip-count distribution.
     * @param jitter Half-width for the Jittered model; < mean_trip.
     */
    static BranchBehavior loop(std::uint32_t mean_trip,
                               TripCountModel model,
                               std::uint32_t jitter = 0);

    /**
     * Fixed repeating direction pattern (e.g. T T N T T N ...).
     *
     * @param directions Direction sequence, replayed cyclically; 1 to
     *        kMaxPatternLength directions.
     */
    static BranchBehavior pattern(std::span<const bool> directions);

    /**
     * Outcome is a boolean function of recent global outcomes, flipped
     * with a small noise probability. Tap depths are limited to the
     * last 16 outcomes so a 16-bit-history predictor can capture them
     * (and a 12-bit one partially cannot — one source of the 64K vs 4K
     * gap).
     *
     * @param taps History depths (0 = most recent) the function reads;
     *        1 to kMaxTaps of them, each < 16.
     * @param op Combining function.
     * @param noise Probability the functional outcome is inverted.
     * @param invert Statically invert the function (decorrelates
     *        different branches using similar taps).
     */
    static BranchBehavior historyCorrelated(std::span<const unsigned> taps,
                                            CorrelationOp op, double noise,
                                            bool invert = false);

    /**
     * Echo (or invert) the d-th most recent global outcome with noise —
     * models directly dependent branch pairs such as a repeated test of
     * the same condition.
     *
     * @param depth Which past outcome to follow (0 = most recent); < 16.
     * @param invert Invert the followed outcome.
     * @param noise Probability of deviating.
     */
    static BranchBehavior chain(unsigned depth, bool invert, double noise);

    /** @return the behaviour's predictability class. */
    BehaviorKind kind() const { return kind_; }

    /** @return a loop latch's trip-count model. @pre kind() is Loop. */
    TripCountModel tripCountModel() const { return loop_.model; }

    /**
     * Produce this branch's next outcome.
     *
     * @param ctx Global outcome history (already includes all previous
     *            branches, not yet this one).
     * @param rng Deterministic noise source.
     * @return true if the branch is taken.
     */
    bool
    nextOutcome(const WorkloadContext &ctx, Rng &rng)
    {
        switch (kind_) {
          case BehaviorKind::Biased:
            return rng.nextBernoulli(pTaken_);
          case BehaviorKind::Loop:
            if (!loop_.started) {
                loop_.remaining = drawTripCount(rng);
                loop_.started = true;
            }
            if (loop_.remaining > 1) {
                --loop_.remaining;
                return true; // continue iterating (latch taken)
            }
            // Exit: not taken; re-arm for the next entry into the loop.
            loop_.started = false;
            return false;
          case BehaviorKind::Pattern: {
            const bool out = (pattern_.directions >> pattern_.phase) & 1;
            if (++pattern_.phase == pattern_.length)
                pattern_.phase = 0;
            return out;
          }
          case BehaviorKind::HistoryCorrelated:
          case BehaviorKind::Chain:
            break;
        }
        // A chain is one parity tap.
        unsigned ones = 0;
        for (unsigned i = 0; i < corr_.numTaps; ++i)
            ones += ctx.pastOutcome(corr_.taps[i]) ? 1 : 0;
        bool value = false;
        switch (corr_.op) {
          case CorrelationOp::Parity:
            value = (ones & 1) != 0;
            break;
          case CorrelationOp::Majority:
            value = 2 * ones > corr_.numTaps;
            break;
          case CorrelationOp::And:
            value = ones == corr_.numTaps;
            break;
        }
        if (corr_.invert)
            value = !value;
        if (rng.nextBernoulli(corr_.noise))
            value = !value;
        return value;
    }

    /** Restore initial state (loop position, pattern phase). */
    void reset();

    /**
     * @return true iff the behaviour carries state of its own: loop
     * latches and patterns. The others draw all their variation from
     * the shared Rng, which the workload generator checkpoints, so
     * their reset(), saveState() and loadState() do nothing.
     */
    bool
    stateful() const
    {
        return kind_ == BehaviorKind::Loop || kind_ == BehaviorKind::Pattern;
    }

    /**
     * Checkpoint mutable state: a loop writes its remaining iterations
     * (u32) and whether a trip is under way (bool), a pattern its phase
     * (u64); the others write nothing.
     */
    void saveState(StateWriter &out) const;

    /** Restore a saveState() snapshot. */
    void loadState(StateReader &in);

  private:
    /** A loop latch's parameters and trip state. */
    struct LoopState
    {
        std::uint32_t meanTrip;
        std::uint32_t jitter;
        std::uint32_t remaining; //!< iterations left in this trip
        TripCountModel model;
        bool started;            //!< a trip is under way
    };

    /** A pattern's directions (bit i is direction i) and phase. */
    struct PatternState
    {
        std::uint64_t directions;
        std::uint8_t length;
        std::uint8_t phase;
    };

    /** A history-correlated or chain branch's function. */
    struct Correlation
    {
        double noise;
        std::array<std::uint8_t, kMaxTaps> taps;
        std::uint8_t numTaps;
        CorrelationOp op;
        bool invert;
    };

    explicit BranchBehavior(BehaviorKind kind) : kind_(kind) {}

    /** Draw a new trip's iteration count. @pre kind() is Loop. */
    std::uint32_t drawTripCount(Rng &rng) const;

    BehaviorKind kind_;
    union
    {
        double pTaken_ = 0.0;  //!< Biased
        LoopState loop_;       //!< Loop
        PatternState pattern_; //!< Pattern
        Correlation corr_;     //!< HistoryCorrelated, Chain
    };
};

} // namespace confsim

#endif // CONFSIM_WORKLOAD_BRANCH_BEHAVIOR_H
