/**
 * @file
 * Per-layer measurements for the traced run. Each micro row times one
 * structure alone over a pre-decoded buffer, advancing by a plain
 * index compare (no modulo in the timed region); the sweep, sampling
 * and driver rows time library entry points from outside.
 */

#ifndef CONFBENCH_LAYERS_H
#define CONFBENCH_LAYERS_H

#include <algorithm>
#include <string>
#include <vector>

#include "common.h"
#include "sim/experiment.h"
#include "workloads.h"

namespace confbench {

/** A predictor family with a predictor.<row>.ns_per_branch row. */
struct NamedPredictor
{
    std::string row;
    confsim::PredictorFactory make;
};

/** An estimator family with a confidence.<row>.ns_per_branch row. */
struct NamedEstimator
{
    std::string row;
    confsim::EstimatorConfig config;
};

/**
 * A simulated configuration named by its layer rows: one predictor
 * family carrying a set of estimator families.
 */
struct ConfigSpec
{
    std::string label;
    std::string predictor; //!< a predictorFamilies() row
    std::vector<NamedEstimator> estimators;

    /** The sweep-engine form (fresh structures per call). */
    confsim::SweepConfiguration sweep() const;

    /**
     * Serial ns per branch of this config's replay step, from the
     * layer rows: predict+update plus every estimator, and, when
     * @p recorded, their bucket recording.
     */
    double layerNs(const Rows &rows, bool recorded) const;
};

std::vector<NamedPredictor> predictorFamilies();

/** The ten estimator families, in contest-matrix order. */
std::vector<NamedEstimator> estimatorFamilies();

/** The 10-config contest matrix, one config per estimator family. */
std::vector<ConfigSpec> contestConfigs();

/** fig05's three configs: gshare + PC/BHR/PCxorBHR ideal, TAGE, perceptron. */
std::vector<ConfigSpec> fig05Configs();

/** figure-suite's config: gshare + PCxorBHR ideal, two-level CIR, resetting. */
ConfigSpec figureConfig();

/** The sweep-engine form of every config. */
std::vector<confsim::SweepConfiguration>
sweepConfigs(const std::vector<ConfigSpec> &specs);

/** Branches between sweep checkpoints: two generations per pass. */
inline std::uint64_t
checkpointCadence(std::uint64_t branches)
{
    return std::max<std::uint64_t>(1, branches * 45 / 100);
}

/** Driver options every workload shares (the paper's 16-bit BHR/GCIR). */
confsim::DriverOptions paperDriverOptions();

/** Shared TraceSource over several generators, one after another. */
class ChainedSource : public confsim::TraceSource
{
  public:
    explicit ChainedSource(const std::vector<TraceSpec> &traces);

    bool next(confsim::BranchRecord &record) override;
    void reset() override;

  private:
    std::vector<std::unique_ptr<confsim::WorkloadGenerator>> parts_;
    std::size_t current_ = 0;
};

/** @p traces with every length cut to @p per_trace branches. */
std::vector<TraceSpec> truncated(std::vector<TraceSpec> traces,
                                 std::uint64_t per_trace);

/** Every record of @p source. */
std::vector<confsim::BranchRecord> drain(confsim::TraceSource &source);

/** The checkpoint side of one contest sweep. */
struct CheckpointCost
{
    std::uint64_t generations = 0;
    std::uint64_t bytes = 0;
};

/**
 * Run the contest matrix over @p source (@p branches long) on
 * @p workers shards with the default decode-ahead, checkpointing at
 * checkpointCadence() into @p ckpt_dir (generations are removed
 * afterwards).
 */
confsim::SweepRunResult runContestSweep(confsim::TraceSource &source,
                                        std::uint64_t branches,
                                        unsigned workers,
                                        const std::string &ckpt_dir,
                                        confsim::SpanTracer *spans,
                                        CheckpointCost *cost);

/**
 * Micro rows (harness, generation, decode, batch refill, predictors,
 * estimators, bucket recording, static profile, curve build) over the
 * first branches of @p traces, repeated in rounds until @p deadline
 * (at least three) and reported as medians. @p file must hold the same
 * records as CBT2.
 */
void measureLayerRows(const std::vector<TraceSpec> &traces,
                      const std::string &file, Clock::time_point deadline,
                      Rows &rows);

/**
 * ns per branch of the layers one figure-suite driver step runs:
 * generation, figureConfig()'s replay step and the static profile.
 */
double figureLayerSum(const Rows &rows);

/**
 * sim.driver rows: a single-thread SimulationDriver with the
 * figure-suite estimator set over @p traces, and its residual against
 * the layer rows already in @p rows.
 */
void measureDriverRows(const std::vector<TraceSpec> &traces, Rows &rows);

/**
 * sim.sweep.* and ckpt.* rows: the contest matrix over @p file (traced),
 * and each config alone on one thread over @p records. Fills
 * sim.suite.parallel_efficiency when no row holds it yet.
 * @return the traced sweep's result (exact per-config statistics).
 */
confsim::SweepRunResult
measureSweepRows(const std::string &file,
                 const std::vector<confsim::BranchRecord> &records,
                 unsigned workers, const std::string &ckpt_dir, Rows &rows);

/** The sampling knobs of fig05's sampled run (10%, 4 strata, 5 subsamples). */
confsim::SamplingOptions samplingOptions(std::uint64_t seed,
                                         std::uint64_t region_branches,
                                         unsigned cpus);

/** How well sampled estimates match exact ground truth. */
struct SampleAccuracy
{
    double errPp = 0.0; //!< largest |estimate - exact| of scored ones, pp
    std::uint64_t intervals = 0;
    std::uint64_t misses = 0; //!< 95% CIs that miss the exact value

    /**
     * Judge one estimate. @p scored ones (composite misprediction rate
     * and coverage@20%) also count toward errPp.
     */
    void add(const confsim::IntervalEstimate &estimate, double exact,
             bool scored);

    /** Add sim.sampling.err_pp and sim.sampling.ci_miss_frac. */
    void publish(Rows &rows) const;
};

/**
 * sim.sampling.* rows for workloads that do not sample: fig05's
 * sampled run over @p records, judged against @p exact (the contest
 * sweep over the same records).
 */
void measureSamplingRows(const std::vector<confsim::BranchRecord> &records,
                         const confsim::SweepRunResult &exact,
                         std::uint64_t seed, unsigned cpus, Rows &rows);

} // namespace confbench

#endif // CONFBENCH_LAYERS_H
