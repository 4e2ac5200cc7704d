#include "layers.h"

#include <cmath>
#include <map>

#include "ckpt/checkpoint_store.h"
#include "metrics/confidence_curve.h"
#include "metrics/operating_point.h"
#include "obs/span.h"
#include "predictor/history_register.h"
#include "trace/record_batch.h"
#include "trace/trace_io.h"
#include "trace/vector_trace_source.h"
#include "util/shift_register.h"

namespace confbench {

using namespace confsim;

std::vector<NamedPredictor>
predictorFamilies()
{
    return {{"gshare_large", largeGshareFactory()},
            {"tage", tageFactory()},
            {"perceptron", perceptronFactory()}};
}

std::vector<NamedEstimator>
estimatorFamilies()
{
    const IndexScheme x = IndexScheme::PcXorBhr;
    return {
        {"pc_ideal", oneLevelIdealConfig(IndexScheme::Pc)},
        {"bhr_ideal", oneLevelIdealConfig(IndexScheme::Bhr)},
        {"pcxorbhr_ideal", oneLevelIdealConfig(x)},
        {"ones_count", oneLevelOnesCountConfig(x)},
        {"saturating", oneLevelCounterConfig(x, CounterKind::Saturating)},
        {"resetting", oneLevelCounterConfig(x, CounterKind::Resetting)},
        {"half_reset", oneLevelCounterConfig(x, CounterKind::HalfReset)},
        {"two_level_cir", twoLevelConfig(x, SecondLevelIndex::Cir)},
        {"tage_provider", tageProviderConfig()},
        {"perceptron_margin", perceptronMarginConfig()},
    };
}

namespace {

/** The families named @p rows, in that order. */
std::vector<NamedEstimator>
families(const std::vector<std::string> &rows)
{
    const std::vector<NamedEstimator> all = estimatorFamilies();
    std::vector<NamedEstimator> out;
    for (const std::string &row : rows) {
        for (const NamedEstimator &family : all) {
            if (family.row == row)
                out.push_back(family);
        }
    }
    return out;
}

PredictorFactory
predictorFactory(const std::string &row)
{
    for (const NamedPredictor &family : predictorFamilies()) {
        if (family.row == row)
            return family.make;
    }
    fatal("confbench: no predictor family " + row);
}

} // namespace

SweepConfiguration
ConfigSpec::sweep() const
{
    SweepConfiguration config;
    config.label = label;
    config.makePredictor = predictorFactory(predictor);
    config.makeEstimators = [estimators = estimators] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        for (const NamedEstimator &family : estimators)
            out.push_back(family.config.make());
        return out;
    };
    return config;
}

double
ConfigSpec::layerNs(const Rows &rows, bool recorded) const
{
    double ns = rows.get("predictor." + predictor + ".ns_per_branch");
    for (const NamedEstimator &family : estimators) {
        ns += rows.get("confidence." + family.row + ".ns_per_branch");
        if (recorded)
            ns += rows.get("metrics.bucket_record_ns");
    }
    return ns;
}

std::vector<ConfigSpec>
contestConfigs()
{
    std::vector<ConfigSpec> configs;
    for (const NamedEstimator &family : estimatorFamilies()) {
        const std::string predictor =
            family.row == "tage_provider"       ? "tage"
            : family.row == "perceptron_margin" ? "perceptron"
                                                : "gshare_large";
        configs.push_back({family.row, predictor, {family}});
    }
    return configs;
}

std::vector<ConfigSpec>
fig05Configs()
{
    return {{"gshare_cir", "gshare_large",
             families({"pc_ideal", "bhr_ideal", "pcxorbhr_ideal"})},
            {"tage", "tage", families({"tage_provider"})},
            {"perceptron", "perceptron", families({"perceptron_margin"})}};
}

ConfigSpec
figureConfig()
{
    return {"figure", "gshare_large",
            families({"pcxorbhr_ideal", "two_level_cir", "resetting"})};
}

std::vector<SweepConfiguration>
sweepConfigs(const std::vector<ConfigSpec> &specs)
{
    std::vector<SweepConfiguration> out;
    for (const ConfigSpec &spec : specs)
        out.push_back(spec.sweep());
    return out;
}

DriverOptions
paperDriverOptions()
{
    DriverOptions options;
    options.bhrBits = paper::kLargeHistoryBits;
    options.gcirBits = paper::kCirBits;
    return options;
}

ChainedSource::ChainedSource(const std::vector<TraceSpec> &traces)
{
    for (const TraceSpec &trace : traces)
        parts_.push_back(std::make_unique<WorkloadGenerator>(
            trace.profile, trace.branches));
}

bool
ChainedSource::next(BranchRecord &record)
{
    while (current_ < parts_.size()) {
        if (parts_[current_]->next(record))
            return true;
        ++current_;
    }
    return false;
}

void
ChainedSource::reset()
{
    for (auto &part : parts_)
        part->reset();
    current_ = 0;
}

std::vector<TraceSpec>
truncated(std::vector<TraceSpec> traces, std::uint64_t per_trace)
{
    for (TraceSpec &trace : traces)
        trace.branches = std::min(trace.branches, per_trace);
    return traces;
}

std::vector<BranchRecord>
drain(TraceSource &source)
{
    std::vector<BranchRecord> records;
    BranchRecord record;
    while (source.next(record))
        records.push_back(record);
    return records;
}

SweepRunResult
runContestSweep(TraceSource &source, std::uint64_t branches,
                unsigned workers, const std::string &ckpt_dir,
                SpanTracer *spans, CheckpointCost *cost)
{
    DriverOptions driver = paperDriverOptions();
    driver.spans = spans;
    SweepOptions sweep;
    sweep.threads = workers;
    SweepEngine engine(sweepConfigs(contestConfigs()), driver, sweep);
    CheckpointStore store(ckpt_dir, "contest");
    if (cost != nullptr) {
        store.setEventHook([cost](const CheckpointStoreEvent &event) {
            if (event.kind == CheckpointStoreEvent::Kind::Written) {
                ++cost->generations;
                cost->bytes += event.bytes;
            }
        });
    }
    engine.checkpointEvery(checkpointCadence(branches), &store);
    SweepRunResult result = engine.run(source);
    store.removeGenerations();
    return result;
}

namespace {

/** One precomputed estimator step: the context the driver would pass. */
struct Step
{
    BranchContext ctx;
    bool correct = false;
    bool taken = false;
};

/** Median-of-rounds accumulator for the micro rows. */
class RowSamples
{
  public:
    void add(const std::string &name, double value)
    {
        samples_[name].push_back(value);
    }

    void
    publish(Rows &rows, const std::string &name, const std::string &unit)
    {
        rows.set(name, unit, median(samples_[name]));
    }

  private:
    std::map<std::string, std::vector<double>> samples_;
};

double
nsPer(Clock::time_point start, std::size_t count)
{
    return secondsSince(start) * 1e9 / static_cast<double>(count);
}

/** Replay the driver's context bookkeeping with gshare-large. */
std::vector<Step>
precomputeSteps(const std::vector<BranchRecord> &records)
{
    std::vector<Step> steps;
    steps.reserve(records.size());
    const auto predictor = largeGshareFactory()();
    HistoryRegister bhr(paper::kLargeHistoryBits);
    ShiftRegister gcir(paper::kCirBits);
    for (const BranchRecord &record : records) {
        Step step;
        step.ctx.pc = record.pc;
        step.ctx.bhr = bhr.value();
        step.ctx.gcir = gcir.value();
        step.taken = record.taken;
        step.correct = predictor->predict(record.pc) == record.taken;
        predictor->update(record.pc, record.taken);
        bhr.recordOutcome(record.taken);
        gcir.shiftIn(!step.correct);
        steps.push_back(step);
    }
    return steps;
}

} // namespace

void
measureLayerRows(const std::vector<TraceSpec> &traces,
                 const std::string &file, Clock::time_point deadline,
                 Rows &rows)
{
    ChainedSource chain(traces);
    const std::vector<BranchRecord> records = drain(chain);
    const std::vector<Step> steps = precomputeSteps(records);
    const std::size_t n = steps.size();

    // Inputs of the bucket-recording and curve rows: the figure-suite
    // estimators' buckets over the same steps.
    std::vector<std::uint64_t> buckets(n);
    std::vector<BucketStats> figure_stats;
    for (const NamedEstimator &family : figureConfig().estimators) {
        const auto estimator = family.config.make();
        figure_stats.emplace_back(estimator->numBuckets());
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t bucket = estimator->bucketOf(steps[i].ctx);
            figure_stats.back().record(bucket, !steps[i].correct);
            estimator->update(steps[i].ctx, steps[i].correct,
                              steps[i].taken);
            if (figure_stats.size() == 1)
                buckets[i] = bucket;
        }
    }
    const std::uint64_t bucket_space = figure_stats.front().numBuckets();
    SparseBucketStats static_stats;
    for (const Step &step : steps)
        static_stats.record(step.ctx.pc, !step.correct);

    const std::vector<NamedPredictor> predictors = predictorFamilies();
    const std::vector<NamedEstimator> estimators = estimatorFamilies();
    RowSamples samples;
    for (int round = 0; round < 3 || Clock::now() < deadline; ++round) {
        Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            sink(steps[i].ctx.pc);
        samples.add("harness.loop_ns_per_iter", nsPer(t0, n));

        {
            ChainedSource generators(traces);
            BranchRecord record;
            std::size_t count = 0;
            t0 = Clock::now();
            while (generators.next(record))
                ++count;
            samples.add("workload.gen_ns_per_record", nsPer(t0, count));
        }
        {
            TraceFileReader reader(file);
            BranchRecord record;
            std::size_t count = 0;
            t0 = Clock::now();
            while (reader.next(record))
                ++count;
            samples.add("trace.decode_ns_per_record", nsPer(t0, count));
        }
        {
            VectorTraceSource source(records);
            RecordBatch batch;
            std::size_t count = 0;
            t0 = Clock::now();
            while (const std::size_t filled = batch.refill(source))
                count += filled;
            samples.add("trace.batch_refill_ns_per_record",
                        nsPer(t0, count));
        }
        for (const NamedPredictor &family : predictors) {
            const auto predictor = family.make();
            t0 = Clock::now();
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t pc = steps[i].ctx.pc;
                sink(predictor->predict(pc));
                predictor->update(pc, steps[i].taken);
            }
            samples.add("predictor." + family.row + ".ns_per_branch",
                        nsPer(t0, n));
        }
        for (const NamedEstimator &family : estimators) {
            const auto estimator = family.config.make();
            t0 = Clock::now();
            for (std::size_t i = 0; i < n; ++i) {
                const Step &step = steps[i];
                sink(estimator->bucketOf(step.ctx));
                estimator->update(step.ctx, step.correct, step.taken);
            }
            samples.add("confidence." + family.row + ".ns_per_branch",
                        nsPer(t0, n));
        }
        {
            BucketStats stats(bucket_space);
            t0 = Clock::now();
            for (std::size_t i = 0; i < n; ++i)
                stats.record(buckets[i], !steps[i].correct);
            samples.add("metrics.bucket_record_ns", nsPer(t0, n));
            sink(stats.totalRefs());
        }
        {
            StaticBranchProfile profile;
            t0 = Clock::now();
            for (std::size_t i = 0; i < n; ++i)
                profile.record(steps[i].ctx.pc, !steps[i].correct,
                               steps[i].taken);
            samples.add("metrics.static_profile_ns_per_branch",
                        nsPer(t0, n));
            sink(profile.size());
        }
        {
            t0 = Clock::now();
            for (const BucketStats &stats : figure_stats)
                sink(ConfidenceCurve::fromBucketStats(stats)
                         .mispredCoverageAt(0.2));
            sink(ConfidenceCurve::fromSparseStats(static_stats)
                     .mispredCoverageAt(0.2));
            samples.add("metrics.curve_build_ms", secondsSince(t0) * 1e3);
        }
    }

    samples.publish(rows, "harness.loop_ns_per_iter", "ns");
    samples.publish(rows, "workload.gen_ns_per_record", "ns");
    samples.publish(rows, "trace.decode_ns_per_record", "ns");
    samples.publish(rows, "trace.batch_refill_ns_per_record", "ns");
    for (const NamedPredictor &family : predictors)
        samples.publish(rows, "predictor." + family.row + ".ns_per_branch",
                        "ns");
    for (const NamedEstimator &family : estimators)
        samples.publish(rows, "confidence." + family.row + ".ns_per_branch",
                        "ns");
    samples.publish(rows, "metrics.bucket_record_ns", "ns");
    samples.publish(rows, "metrics.static_profile_ns_per_branch", "ns");
    samples.publish(rows, "metrics.curve_build_ms", "ms");
}

void
measureDriverRows(const std::vector<TraceSpec> &traces, Rows &rows)
{
    std::vector<double> samples;
    for (int round = 0; round < 3; ++round) {
        ChainedSource source(traces);
        const SweepConfiguration figure = figureConfig().sweep();
        const auto predictor = figure.makePredictor();
        const auto owned = figure.makeEstimators();
        std::vector<ConfidenceEstimator *> estimators;
        for (const auto &estimator : owned)
            estimators.push_back(estimator.get());
        DriverOptions options = paperDriverOptions();
        options.profileStatic = true;
        SimulationDriver driver(*predictor, estimators, options);
        const DriverResult result = driver.run(source);
        samples.push_back(result.wallMs * 1e6 /
                          static_cast<double>(result.branches));
    }
    const double driver_ns = median(samples);
    rows.set("sim.driver.ns_per_branch", "ns", driver_ns);
    rows.set("sim.driver.residual_ns_per_branch", "ns",
             driver_ns - figureLayerSum(rows));
}

double
figureLayerSum(const Rows &rows)
{
    return rows.get("workload.gen_ns_per_record") +
           figureConfig().layerNs(rows, true) +
           rows.get("metrics.static_profile_ns_per_branch");
}

SweepRunResult
measureSweepRows(const std::string &file,
                 const std::vector<BranchRecord> &records, unsigned workers,
                 const std::string &ckpt_dir, Rows &rows)
{
    SpanTracerOptions span_options;
    span_options.path = ckpt_dir + "/sweep_trace.json";
    SpanTracer spans(span_options);
    CheckpointCost cost;
    TraceFileReader reader(file);
    SweepRunResult result =
        runContestSweep(reader, records.size(), workers, ckpt_dir, &spans,
                        &cost);
    const SpanTracer::Summary summary = spans.finish();

    // Each config alone, on the calling thread, without decode.
    double alone_sum_ms = 0.0;
    double alone_max_ms = 0.0;
    for (const SweepConfiguration &config : sweepConfigs(contestConfigs())) {
        VectorTraceSource source(records);
        SweepOptions sweep;
        sweep.threads = 1;
        sweep.decodeAhead = 1;
        SweepEngine engine({config}, paperDriverOptions(), sweep);
        const SweepRunResult alone = engine.run(source);
        rows.set("sim.sweep.config_ns_per_branch." + config.label, "ns",
                 alone.wallMs * 1e6 / static_cast<double>(alone.branches));
        alone_sum_ms += alone.wallMs;
        alone_max_ms = std::max(alone_max_ms, alone.wallMs);
    }
    // The best makespan those config times allow on `workers` shards.
    const double best_ms =
        std::max(alone_max_ms, alone_sum_ms / static_cast<double>(workers));
    rows.set("sim.sweep.sched_gap_frac", "ratio",
             (result.wallMs - best_ms) / result.wallMs);
    rows.set("sim.sweep.shard_busy_frac", "ratio", result.shardBusyFrac);
    rows.set("sim.sweep.decode_stall_ms", "ms", result.decodeStallMs);
    rows.set("sim.sweep.barrier_wait_ms", "ms", result.barrierWaitMs);
    if (!rows.has("sim.suite.parallel_efficiency")) {
        rows.set("sim.suite.parallel_efficiency", "ratio",
                 alone_sum_ms /
                     (result.wallMs * static_cast<double>(workers)));
    }

    double write_ms = 0.0;
    for (const SpanTracer::NameSummary &span : summary.spans) {
        if (span.name == "ckpt.write")
            write_ms = span.totalNs * 1e-6;
    }
    const double generations =
        static_cast<double>(std::max<std::uint64_t>(1, cost.generations));
    rows.set("ckpt.generations", "count",
             static_cast<double>(cost.generations));
    rows.set("ckpt.bytes_per_generation", "B",
             static_cast<double>(cost.bytes) / generations);
    rows.set("ckpt.write_ms_per_generation", "ms", write_ms / generations);
    return result;
}

SamplingOptions
samplingOptions(std::uint64_t seed, std::uint64_t region_branches,
                unsigned cpus)
{
    SamplingOptions options;
    options.sampleRate = 0.1;
    options.strata = 4;
    options.subsamples = 5;
    options.regionBranches = region_branches;
    options.warmupRegions = 2;
    options.seed = mix64(seed ^ 0x5eed);
    // Three configs at most; the decode-ahead producer takes one CPU.
    options.sweep.threads = std::max(1u, std::min(3u, cpus - 1));
    return options;
}

void
SampleAccuracy::add(const IntervalEstimate &estimate, double exact,
                    bool scored)
{
    ++intervals;
    misses += estimate.contains(exact) ? 0 : 1;
    if (scored)
        errPp = std::max(errPp, 100.0 * std::fabs(estimate.mean - exact));
}

void
SampleAccuracy::publish(Rows &rows) const
{
    rows.set("sim.sampling.err_pp", "pp", errPp);
    rows.set("sim.sampling.ci_miss_frac", "ratio",
             static_cast<double>(misses) /
                 static_cast<double>(std::max<std::uint64_t>(1, intervals)));
}

void
measureSamplingRows(const std::vector<BranchRecord> &records,
                    const SweepRunResult &exact, std::uint64_t seed,
                    unsigned cpus, Rows &rows)
{
    const std::uint64_t region =
        std::max<std::uint64_t>(500, records.size() / 200);
    const std::vector<ConfigSpec> configs = fig05Configs();
    SamplingEngine engine(sweepConfigs(configs), paperDriverOptions(),
                          samplingOptions(seed, region, cpus));
    const SamplingBenchmarkResult result = engine.runTrace(
        "probe", [&] { return std::make_unique<VectorTraceSource>(records); });

    // The contest sweep ran every estimator family as its own config
    // on its own predictor: that is each fig05 estimator's exact value.
    std::map<std::string, const SweepConfigResult *> by_family;
    for (const SweepConfigResult &config : exact.perConfig)
        by_family[config.label] = &config;
    SampleAccuracy accuracy;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const SamplingConfigEstimate &estimate = result.perConfig[c];
        const std::vector<NamedEstimator> &families = configs[c].estimators;
        accuracy.add(estimate.mispredictRate,
                     by_family.at(families[0].row)->mispredictRate(), true);
        for (std::size_t e = 0; e < estimate.coverageAt20.size(); ++e) {
            accuracy.add(
                estimate.coverageAt20[e],
                operatingPointAt20(
                    by_family.at(families[e].row)->estimatorStats[0])
                    .coverage,
                true);
        }
    }

    rows.set("sim.sampling.prepass_ms", "ms", result.prePassMs);
    rows.set("sim.sampling.replay_ms", "ms", result.replayMs);
    rows.set("sim.sampling.detailed_frac", "ratio",
             static_cast<double>(result.recordedBranches) /
                 static_cast<double>(result.totalBranches));
    accuracy.publish(rows);
}

} // namespace confbench
