/**
 * @file
 * The confidence estimator interface.
 *
 * Every mechanism in the paper — one-level CIR tables under any
 * reduction, two-level tables, embedded counters, the static method —
 * boils down to: at prediction time the mechanism maps a branch to a
 * *bucket* (a CIR pattern, a counter value, a ones count, a static
 * branch class), and the evaluation methodology sorts buckets by
 * measured misprediction rate to form the cumulative curves and to pick
 * the high/low confidence cut. Estimators therefore expose their bucket
 * id; the binary high/low signal is a threshold over buckets
 * (binary_signal.h), and the "ideal reduction function" of Sections 2/4
 * is simply profiling over raw-pattern buckets.
 */

#ifndef CONFSIM_CONFIDENCE_CONFIDENCE_ESTIMATOR_H
#define CONFSIM_CONFIDENCE_CONFIDENCE_ESTIMATOR_H

#include <cstdint>
#include <string>

#include "ckpt/serializable.h"
#include "confidence/branch_context.h"

namespace confsim {

class BranchPredictor;

/**
 * Abstract branch-prediction confidence mechanism.
 *
 * Also Serializable: estimators used in checkpointed runs implement
 * saveState()/loadState() for bit-exact resume (see src/ckpt/).
 */
class ConfidenceEstimator : public Serializable
{
  public:
    virtual ~ConfidenceEstimator() = default;

    /**
     * The bucket this prediction falls into, queried at prediction time
     * (before the branch resolves). Bucket ids are < numBuckets().
     */
    virtual std::uint64_t bucketOf(const BranchContext &ctx) const = 0;

    /**
     * Train with the resolved branch and return the bucket the branch
     * read. Must be called exactly once per dynamic branch, with the
     * context the prediction saw.
     *
     * The return value is exactly what bucketOf(ctx) returns just
     * before this call: the replay kernel's record step calls update()
     * alone, so an estimator reads its table entry once and trains it
     * in place. Callers that also call bucketOf() first get the same
     * value twice.
     *
     * Both the prediction's correctness and the branch outcome are
     * supplied — hardware has both at resolution time. CIR/counter
     * estimators use only @p correct; direction-sensitive estimators
     * (e.g. SelfCounterConfidence) use @p taken.
     *
     * @param ctx The context the prediction saw (the bucketOf() one).
     * @param correct true iff the underlying prediction was correct.
     * @param taken the branch's resolved direction.
     * @return the pre-update bucket, < numBuckets().
     */
    virtual std::uint64_t update(const BranchContext &ctx, bool correct,
                                 bool taken) = 0;

    /** @return one past the largest bucket id this estimator produces. */
    virtual std::uint64_t numBuckets() const = 0;

    /** @return confidence-structure storage in bits (cost metric). */
    virtual std::uint64_t storageBits() const = 0;

    /** @return short identifier, e.g. "1lvl-PCxorBHR-reset16". */
    virtual std::string name() const = 0;

    /** Restore the initial (power-on) state. */
    virtual void reset() = 0;

    /**
     * Pair this estimator with the predictor whose predictions it
     * grades. The replay kernel calls it once per estimator before the
     * first branch. Native estimators (TAGE provider, perceptron
     * margin) keep a pointer and read the predictor's own lookup in
     * bucketOf() and update(); they throw Error{kConfig} when
     * @p predictor is not of their family or its geometry differs from
     * what their buckets assume. Every other estimator ignores it (the
     * default).
     *
     * @param predictor Must outlive every later bucketOf() and
     *        update() call.
     */
    virtual void bindPredictor(const BranchPredictor &predictor)
    {
        (void)predictor;
    }

    /**
     * True if larger bucket ids mean *higher* confidence by
     * construction (counter and ones-count estimators). Raw-pattern
     * estimators return false: their buckets are unordered and only the
     * profiled ideal reduction orders them.
     */
    virtual bool bucketsAreOrdered() const { return false; }
};

} // namespace confsim

#endif // CONFSIM_CONFIDENCE_CONFIDENCE_ESTIMATOR_H
