/**
 * @file
 * Per-static-branch attribution of mispredictions and confidence
 * quality: *which* PCs drive the mispredict mass, how much dynamic
 * volume runs at low confidence, and whether the estimator's
 * confidence is actually calibrated (estimated confidence vs.
 * empirical accuracy), per branch and per estimator.
 *
 * This is the workload-characterization side of the observability
 * layer (the span tracer in span.h is the execution side): the
 * paper's aggregate PVN/SPEC tables become actionable once the
 * coverage mass is attributable to concrete branches.
 *
 * Wiring is **bit-exact-neutral** by construction: the profile only
 * *observes* values the simulation already computed (PC, mispredict
 * flag, the pre-update estimator bucket `update` returns) and never
 * touches predictor or estimator state. The differential
 * harness (`tests/integration/branch_profile_test.cc`) pins that a
 * run with profiling on is bit-identical to one with it off, and
 * that sequential-driver and sweep-replica profiles agree exactly.
 *
 * Memory is bounded: at most `capacity` distinct PCs are tracked;
 * when a new PC arrives at capacity, the coldest tracked entries
 * (fewest executions) are folded into a single `evicted()` aggregate.
 * Because evicted counts are aggregated — never discarded —
 * `totalMispredictions()` always equals the run's aggregate
 * mispredict count exactly (an acceptance invariant, also emitted as
 * the `total` row of the CSV/JSONL exports).
 */

#ifndef CONFSIM_OBS_BRANCH_PROFILER_H
#define CONFSIM_OBS_BRANCH_PROFILER_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace confsim {

/** Knobs for BranchProfile::configure. */
struct BranchProfileOptions
{
    /** Max distinct PCs tracked before heavy-hitter eviction. */
    std::size_t capacity = 4096;

    /**
     * Reliability-diagram bins over estimated confidence [0, 1] for
     * ordered estimators (unordered estimators get one cell per raw
     * bucket instead, capped at 64).
     */
    std::size_t reliabilityBins = 10;
};

/** Shape of one estimator, as the profiler needs to see it. */
struct BranchProfileEstimatorInfo
{
    std::string name;
    std::size_t numBuckets = 1;
    /**
     * True when higher bucket index means higher confidence
     * (ConfidenceEstimator::bucketsAreOrdered). Estimated confidence
     * for bucket b is then b / (numBuckets - 1); for unordered
     * estimators no scalar confidence exists and calibration is
     * reported per raw bucket.
     */
    bool ordered = true;
};

/** Accumulates the per-branch attribution for one simulation run. */
class BranchProfile
{
  public:
    /** Totals for one static branch (or the evicted aggregate). */
    struct PcEntry
    {
        std::uint64_t executions = 0;
        std::uint64_t mispredictions = 0;
        /**
         * Dynamic executions the primary (index 0) estimator flagged
         * low-confidence: bucket below saturation for ordered
         * estimators (the paper's Table 1 operating point), bucket 0
         * for unordered ones.
         */
        std::uint64_t lowConfidence = 0;
        /** Sum of the primary estimator's estimated confidence. */
        double confidenceSum = 0.0;

        void
        merge(const PcEntry &other)
        {
            executions += other.executions;
            mispredictions += other.mispredictions;
            lowConfidence += other.lowConfidence;
            confidenceSum += other.confidenceSum;
        }
    };

    /** One reliability-diagram cell of one estimator. */
    struct CalibrationBin
    {
        std::uint64_t predictions = 0;
        std::uint64_t correct = 0;
        /** Sum of estimated confidence (ordered estimators only). */
        double confidenceSum = 0.0;

        double
        accuracy() const
        {
            return predictions == 0
                       ? 0.0
                       : static_cast<double>(correct) /
                             static_cast<double>(predictions);
        }

        double
        meanConfidence() const
        {
            return predictions == 0
                       ? 0.0
                       : confidenceSum /
                             static_cast<double>(predictions);
        }
    };

    /** Arm the profile. Until configured, record calls are invalid. */
    void configure(const BranchProfileOptions &options,
                   std::vector<BranchProfileEstimatorInfo> estimators);

    bool enabled() const { return configured_; }

    /**
     * Observe estimator @p estimator's bucket for the current branch
     * (the pre-update bucket `update` returns). Call once per
     * estimator per retired conditional branch, then onBranch().
     */
    void onBucket(std::size_t estimator, std::uint64_t bucket,
                  bool correct);

    /** Close out the current branch (after its onBucket calls). */
    void onBranch(std::uint64_t pc, bool mispredicted);

    /**
     * Fold @p other into this profile with every PC re-keyed as
     * `tagBase | pc` (the suite aggregation scheme: benchmark index
     * in the top 16 bits). Adopts @p other's estimator shape when
     * this profile is still unconfigured.
     */
    void mergeFrom(const BranchProfile &other, std::uint64_t tagBase);

    const std::unordered_map<std::uint64_t, PcEntry> &entries() const
    {
        return entries_;
    }

    /** Aggregate of all PCs folded out by capacity eviction. */
    const PcEntry &evicted() const { return evicted_; }

    /** Number of distinct PCs folded into evicted(). */
    std::uint64_t evictedPcs() const { return evictedPcs_; }

    /** Grand total over tracked + evicted (== run totals). */
    std::uint64_t totalExecutions() const { return totalExecutions_; }
    std::uint64_t totalMispredictions() const
    {
        return totalMispredictions_;
    }

    /** @return up to @p n tracked entries, worst mispredictor first
     * (ties broken by PC for determinism). */
    std::vector<std::pair<std::uint64_t, PcEntry>>
    topByMispredictions(std::size_t n) const;

    const std::vector<BranchProfileEstimatorInfo> &estimators() const
    {
        return estimatorInfos_;
    }

    /** @return estimator @p i's reliability-diagram cells. */
    const std::vector<CalibrationBin> &
    calibration(std::size_t estimator) const
    {
        return calibration_.at(estimator);
    }

    /**
     * Write the profile as CSV (long format with a `kind` column:
     * `branch` rows worst-first, one `evicted` aggregate row, per-
     * estimator `calibration` rows, and a final `total` row whose
     * counts equal the run aggregates). @p benchNames decodes tagged
     * PCs (index = pc >> 48) into a benchmark column; pass {} for
     * untagged single-run profiles.
     */
    void writeCsv(const std::string &path,
                  const std::vector<std::string> &benchNames) const;

    /** Same records as writeCsv, one JSON object per line. */
    void writeJsonl(const std::string &path,
                    const std::vector<std::string> &benchNames) const;

  private:
    struct EstimatorState
    {
        /** 1 / (numBuckets - 1), or 0 when numBuckets < 2. */
        double invMaxBucket = 0.0;
        std::uint64_t saturatedBucket = 0;
        bool ordered = true;
    };

    PcEntry &entryFor(std::uint64_t pc);
    void evictColdest();

    bool configured_ = false;
    BranchProfileOptions options_;
    std::vector<BranchProfileEstimatorInfo> estimatorInfos_;
    std::vector<EstimatorState> estimatorStates_;
    std::vector<std::vector<CalibrationBin>> calibration_;
    std::unordered_map<std::uint64_t, PcEntry> entries_;
    PcEntry evicted_;
    std::uint64_t evictedPcs_ = 0;
    std::uint64_t totalExecutions_ = 0;
    std::uint64_t totalMispredictions_ = 0;
    /** Primary-estimator observation pending for onBranch. */
    double pendingConfidence_ = 0.0;
    bool pendingLow_ = false;
};

class Telemetry;

/**
 * Export @p profile to @p path (JSONL when the path ends in `.jsonl`,
 * CSV otherwise; no-op when the path is empty) and emit the
 * `branch_profile_written` telemetry event plus registry metrics.
 * @p telemetry may be null (file is still written).
 */
void publishBranchProfile(const BranchProfile &profile,
                          const std::string &path,
                          const std::vector<std::string> &benchNames,
                          Telemetry *telemetry);

} // namespace confsim

#endif // CONFSIM_OBS_BRANCH_PROFILER_H
