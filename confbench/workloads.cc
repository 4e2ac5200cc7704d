#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>

#include "layers.h"
#include "metrics/operating_point.h"
#include "trace/trace_stats.h"
#include "util/status.h"

namespace confbench {

using namespace confsim;

namespace {

std::uint64_t
scaled(double scale, std::uint64_t branches)
{
    return std::max<std::uint64_t>(
        20'000, static_cast<std::uint64_t>(scale * branches));
}

/** One sequential, single-thread driver run of @p config over @p trace. */
DriverResult
runDriver(const TraceSpec &trace, const SweepConfiguration &config,
          bool profile_static)
{
    WorkloadGenerator source(trace.profile, trace.branches);
    const auto predictor = config.makePredictor();
    const auto owned = config.makeEstimators();
    std::vector<ConfidenceEstimator *> estimators;
    for (const auto &estimator : owned)
        estimators.push_back(estimator.get());
    DriverOptions options = paperDriverOptions();
    options.profileStatic = profile_static;
    SimulationDriver driver(*predictor, estimators, options);
    return driver.run(source);
}

/** Equal relative to 1e-9: composites are sums in a fixed order. */
bool
closeTo(double actual, double expected)
{
    return std::fabs(actual - expected) <=
           1e-9 * std::max(1.0, std::fabs(expected));
}

double
expectedValue(const Expected &expected, const std::string &key)
{
    const auto it = expected.values.find(key);
    if (it == expected.values.end())
        fatal("expected values lack " + key);
    return it->second;
}

/**
 * A suite runner over the IBS suite whose generators use the
 * seed-perturbed @p profiles (SuiteRunner builds the stock profiles;
 * the source wrapper swaps in the seeded ones).
 */
std::unique_ptr<SuiteRunner>
seededRunner(const std::vector<BenchmarkProfile> &profiles,
             std::uint64_t branches)
{
    auto runner =
        std::make_unique<SuiteRunner>(BenchmarkSuite::ibs(branches));
    runner->setSourceWrapper(
        [profiles, branches](std::size_t bench,
                             std::unique_ptr<TraceSource>) {
            return std::unique_ptr<TraceSource>(
                std::make_unique<WorkloadGenerator>(profiles[bench],
                                                    branches));
        });
    return runner;
}

/**
 * Suite set-up shared by figure-suite and sampled-suite: seed the
 * profiles, build each generator once to checksum its stream head (as
 * the run manifest does), and construct the runner.
 */
std::unique_ptr<SuiteRunner>
setUpSuite(std::uint64_t seed, std::uint64_t branches,
           std::vector<BenchmarkProfile> &profiles)
{
    profiles = seededProfiles(seed);
    std::uint32_t checksum = 0;
    for (const BenchmarkProfile &profile : profiles) {
        WorkloadGenerator generator(profile, branches);
        checksum ^= streamChecksum(generator, 4096);
    }
    sink(checksum);
    return seededRunner(profiles, branches);
}

std::vector<TraceSpec>
suiteTraces(std::uint64_t seed, std::uint64_t branches)
{
    std::vector<TraceSpec> traces;
    for (const BenchmarkProfile &profile : seededProfiles(seed))
        traces.push_back({profile, branches});
    return traces;
}

/**
 * figure-suite: SuiteRunner::run over the 9-benchmark suite with
 * gshare-large carrying PCxorBHR ideal, two-level CIR and resetting
 * estimators, static profiling on, then the composite curves.
 */
class FigureSuite : public Workload
{
  public:
    explicit FigureSuite(const WorkloadParams &params)
        : params_(params), branches_(scaled(params.scale, 250'000))
    {}

    void
    setUp() override
    {
        runner_ = setUpSuite(params_.seed, branches_, profiles_);
    }

    std::vector<TraceSpec>
    traces() const override
    {
        return suiteTraces(params_.seed, branches_);
    }

    Expected
    computeExpected() const override
    {
        Expected expected;
        const ConfigSpec figure = figureConfig();
        std::vector<EqualWeightComposite> composites;
        for (const TraceSpec &trace : traces()) {
            const DriverResult result =
                runDriver(trace, figure.sweep(), true);
            const std::string &bench = trace.profile.name;
            for (std::size_t e = 0; e < result.estimatorStats.size(); ++e) {
                const BucketStats &stats = result.estimatorStats[e];
                expected.digests[bench + "/" + figure.estimators[e].row] =
                    digestStats(result.branches, result.mispredicts, stats);
                if (composites.size() <= e)
                    composites.emplace_back(stats.numBuckets());
                composites[e].add(stats);
            }
            expected.digests[bench + "/static"] =
                digestProfile(result.staticProfile);
        }
        for (std::size_t e = 0; e < composites.size(); ++e) {
            expected.values["composite/" + figure.estimators[e].row +
                            "/cov20"] =
                ConfidenceCurve::fromBucketStats(composites[e].result())
                    .mispredCoverageAt(0.2);
        }
        return expected;
    }

    void
    runOnce(const Expected &expected, Checks &checks) override
    {
        DriverOptions options = paperDriverOptions();
        options.profileStatic = true;
        const ConfigSpec figure = figureConfig();
        const SweepConfiguration config = figure.sweep();
        last_ = runner_->run(config.makePredictor, config.makeEstimators,
                             options);

        std::vector<ConfidenceCurve> curves;
        for (const BucketStats &stats : last_.compositeEstimatorStats)
            curves.push_back(ConfidenceCurve::fromBucketStats(stats));
        curves.push_back(
            ConfidenceCurve::fromSparseStats(last_.compositeStaticStats));

        for (const BenchmarkRunResult &bench : last_.perBenchmark) {
            for (std::size_t e = 0; e < bench.estimatorStats.size(); ++e) {
                checkDigest(checks, expected,
                            bench.name + "/" + figure.estimators[e].row,
                            digestStats(bench.branches, bench.mispredicts,
                                        bench.estimatorStats[e]));
            }
            checkDigest(checks, expected, bench.name + "/static",
                        digestProfile(bench.staticStats));
        }
        for (std::size_t e = 0; e < figure.estimators.size(); ++e) {
            const std::string key =
                "composite/" + figure.estimators[e].row + "/cov20";
            checks.expect(e < last_.compositeEstimatorStats.size() &&
                              closeTo(curves[e].mispredCoverageAt(0.2),
                                      expectedValue(expected, key)),
                          key);
        }
    }

    double
    updatesPerRun() const override
    {
        return static_cast<double>(branches_) *
               static_cast<double>(profiles_.size());
    }

    unsigned
    busyThreads() const override
    {
        // SuiteRunner::run starts one thread per benchmark.
        return std::min<unsigned>(params_.cpus,
                                  static_cast<unsigned>(profiles_.size()));
    }

    void
    addRows(Rows &rows) override
    {
        // Each benchmark alone on one thread, against the suite's wall.
        double alone_ms = 0.0;
        for (const TraceSpec &trace : traces()) {
            const Clock::time_point start = Clock::now();
            runDriver(trace, figureConfig().sweep(), true);
            alone_ms += secondsSince(start) * 1e3;
        }
        rows.set("sim.suite.parallel_efficiency", "ratio",
                 alone_ms / (last_.wallMs * busyThreads()));
    }

    double
    layerSumNsPerUpdate(const Rows &rows) const override
    {
        return figureLayerSum(rows);
    }

  private:
    WorkloadParams params_;
    std::uint64_t branches_;
    std::vector<BenchmarkProfile> profiles_;
    std::unique_ptr<SuiteRunner> runner_;
    SuiteRunResult last_;
};

/**
 * sampled-suite: SamplingEngine::runSuite over the suite with traces
 * three times figure-suite's, fig05's three configs, 10% rate, 4 strata,
 * 5 subsamples and a 2-region warming window.
 */
class SampledSuite : public Workload
{
  public:
    explicit SampledSuite(const WorkloadParams &params)
        : params_(params), branches_(scaled(params.scale, 750'000)),
          regionBranches_(branches_ / 200)
    {}

    void
    setUp() override
    {
        runner_ = setUpSuite(params_.seed, branches_, profiles_);
    }

    std::vector<TraceSpec>
    traces() const override
    {
        return suiteTraces(params_.seed, branches_);
    }

    Expected
    computeExpected() const override
    {
        // The sampler is deterministic at any thread count, so its
        // estimates must match a one-thread run bit for bit.
        Expected expected;
        addEstimateDigests(runOnOneThread(), expected.digests);

        // Exact ground truth, which the estimates are judged against.
        const std::vector<TraceSpec> all = traces();
        for (const ConfigSpec &config : fig05Configs()) {
            double rate_sum = 0.0;
            std::vector<EqualWeightComposite> composites;
            for (const TraceSpec &trace : all) {
                const DriverResult result =
                    runDriver(trace, config.sweep(), false);
                expected.values[trace.profile.name + "/" + config.label +
                                "/rate"] = result.mispredictRate();
                rate_sum += result.mispredictRate();
                for (std::size_t e = 0; e < result.estimatorStats.size();
                     ++e) {
                    if (composites.size() <= e)
                        composites.emplace_back(
                            result.estimatorStats[e].numBuckets());
                    composites[e].add(result.estimatorStats[e]);
                }
            }
            expected.values["composite/" + config.label + "/rate"] =
                rate_sum / static_cast<double>(all.size());
            for (std::size_t e = 0; e < composites.size(); ++e) {
                expected.values[coverageKey(config.label, e)] =
                    operatingPointAt20(composites[e].result()).coverage;
            }
        }
        return expected;
    }

    void
    runOnce(const Expected &expected, Checks &checks) override
    {
        SamplingEngine engine(sweepConfigs(fig05Configs()),
                              paperDriverOptions(), options());
        last_ = engine.runSuite(*runner_);

        std::map<std::string, std::uint64_t> digests;
        addEstimateDigests(last_, digests);
        for (const auto &[key, digest] : digests)
            checkDigest(checks, expected, key, digest);

        // Accuracy against exact ground truth. A 95% CI misses by
        // chance (and by warming bias), so misses are reported as a
        // rate in the traced run rather than as failed checks.
        accuracy_ = SampleAccuracy();
        for (const SamplingBenchmarkResult &bench : last_.perBenchmark) {
            for (const SamplingConfigEstimate &config : bench.perConfig) {
                accuracy_.add(config.mispredictRate,
                              expectedValue(expected, bench.name + "/" +
                                                          config.label +
                                                          "/rate"),
                              false);
            }
        }
        for (const SamplingConfigEstimate &config : last_.composite) {
            accuracy_.add(
                config.mispredictRate,
                expectedValue(expected, "composite/" + config.label + "/rate"),
                true);
            for (std::size_t e = 0; e < config.coverageAt20.size(); ++e) {
                accuracy_.add(config.coverageAt20[e],
                              expectedValue(expected,
                                            coverageKey(config.label, e)),
                              true);
            }
        }
    }

    double
    updatesPerRun() const override
    {
        // Every trace branch counts: detailed, warmed or skipped.
        return static_cast<double>(branches_) *
               static_cast<double>(profiles_.size()) *
               static_cast<double>(fig05Configs().size());
    }

    /** Sweep shards plus the decode-ahead producer. */
    unsigned
    busyThreads() const override
    {
        return options().sweep.threads + 1;
    }

    void
    addRows(Rows &rows) override
    {
        double prepass_ms = 0.0;
        double replay_ms = 0.0;
        for (const SamplingBenchmarkResult &bench : last_.perBenchmark) {
            prepass_ms += bench.prePassMs;
            replay_ms += bench.replayMs;
        }
        rows.set("sim.sampling.prepass_ms", "ms", prepass_ms);
        rows.set("sim.sampling.replay_ms", "ms", replay_ms);
        rows.set("sim.sampling.detailed_frac", "ratio",
                 static_cast<double>(last_.recordedBranches) /
                     static_cast<double>(last_.totalBranches));
        accuracy_.publish(rows);

        rows.set("sim.suite.parallel_efficiency", "ratio",
                 runOnOneThread().wallMs / (last_.wallMs * busyThreads()));
    }

    double
    layerSumNsPerUpdate(const Rows &rows) const override
    {
        // Regions that did predictor/estimator work: each sampled
        // region and its two warming regions.
        double worked = 0.0;
        double regions = 0.0;
        for (const SamplingBenchmarkResult &bench : last_.perBenchmark) {
            std::set<std::uint64_t> busy;
            for (const std::uint64_t region : bench.sampledRegionIds) {
                for (std::uint64_t back = 0; back <= 2 && back <= region;
                     ++back)
                    busy.insert(region - back);
            }
            worked += static_cast<double>(busy.size());
            regions += static_cast<double>(bench.regions);
        }
        const double worked_frac = worked / regions;
        const double detailed_frac = rows.get("sim.sampling.detailed_frac");
        const std::vector<ConfigSpec> configs = fig05Configs();
        double replay = 0.0;
        double estimators = 0.0;
        for (const ConfigSpec &config : configs) {
            replay += config.layerNs(rows, false);
            estimators += static_cast<double>(config.estimators.size());
        }
        // Pre-pass and replay each generate every record once.
        return (2.0 * rows.get("workload.gen_ns_per_record") +
                worked_frac * replay +
                detailed_frac * estimators *
                    rows.get("metrics.bucket_record_ns")) /
               static_cast<double>(configs.size());
    }

  private:
    SamplingOptions
    options() const
    {
        return samplingOptions(params_.seed, regionBranches_, params_.cpus);
    }

    /** The same sampled run on one thread with synchronous refill. */
    SamplingRunResult
    runOnOneThread() const
    {
        SamplingOptions serial = options();
        serial.sweep.threads = 1;
        serial.sweep.decodeAhead = 1;
        SamplingEngine engine(sweepConfigs(fig05Configs()),
                              paperDriverOptions(), serial);
        return engine.runSuite(*runner_);
    }

    static std::string
    coverageKey(const std::string &label, std::size_t estimator)
    {
        return "composite/" + label + "/" + std::to_string(estimator) +
               "/cov20";
    }

    /** Bit-exact digest of every estimate, per benchmark and composite. */
    static void
    addEstimateDigests(const SamplingRunResult &result,
                       std::map<std::string, std::uint64_t> &digests)
    {
        const auto digest = [](const std::vector<SamplingConfigEstimate>
                                   &configs) {
            Digest d;
            const auto add = [&d](const IntervalEstimate &estimate) {
                d.add(std::bit_cast<std::uint64_t>(estimate.mean));
                d.add(std::bit_cast<std::uint64_t>(estimate.ciHalf));
            };
            for (const SamplingConfigEstimate &config : configs) {
                add(config.mispredictRate);
                for (const IntervalEstimate &estimate : config.coverageAt20)
                    add(estimate);
                for (const IntervalEstimate &estimate : config.pvnAt20)
                    add(estimate);
            }
            return d.value();
        };
        for (const SamplingBenchmarkResult &bench : result.perBenchmark)
            digests[bench.name + "/sampled"] = digest(bench.perConfig);
        digests["composite/sampled"] = digest(result.composite);
    }

    WorkloadParams params_;
    std::uint64_t branches_;
    std::uint64_t regionBranches_;
    std::vector<BenchmarkProfile> profiles_;
    std::unique_ptr<SuiteRunner> runner_;
    SamplingRunResult last_;
    SampleAccuracy accuracy_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadParams &params)
{
    std::filesystem::create_directories(params.workDir);
    if (name == "figure-suite")
        return std::make_unique<FigureSuite>(params);
    if (name == "sampled-suite")
        return std::make_unique<SampledSuite>(params);
    fatal("unknown workload: " + name);
}

} // namespace confbench
