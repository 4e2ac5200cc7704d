#include "sim/sampling_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "ckpt/state_io.h"
#include "metrics/operating_point.h"
#include "obs/telemetry.h"
#include "sim/suite_runner.h"
#include "util/error.h"
#include "util/rng.h"

namespace confsim {
namespace {

using Clock = std::chrono::steady_clock;

double
elapsedMsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** Pre-pass features of one trace region. */
struct RegionFeatures
{
    std::uint64_t branches = 0; //!< conditionals in the region
    double proxyRate = 0.0;     //!< tiny-bimodal mispredict rate
    std::uint32_t workingSet = 0; //!< distinct (hashed) branch PCs
};

/** Tiny-bimodal proxy table geometry (shared by rate and working set:
 *  both want "small enough to stream at memory speed"). */
constexpr std::size_t kProxyEntries = 4096;

/** Regions between source snapshots (docs/performance.md measures the
 *  choice). */
constexpr std::uint64_t kSnapshotRegions = 1;

/**
 * One streaming pass: segment into regions of @p region_branches
 * conditionals and score each with the proxy features. The pass is a
 * pure function of the trace — no seeds — so features (and therefore
 * strata) are identical however the replay is parallelized. With
 * @p skips set, a checkpointable source is snapshotted into @p plan
 * every kSnapshotRegions regions and at the trace's end, so the
 * replay can jump over the regions the plan will skip.
 */
std::vector<RegionFeatures>
prePass(TraceSource &source, std::uint64_t region_branches,
        std::uint64_t &total_branches, bool skips,
        SweepRecordingPlan &plan)
{
    const bool snapshotting = skips && source.checkpointable();
    StateWriter snapshot_bytes;
    const auto snapshot = [&] {
        const std::size_t offset = snapshot_bytes.bytes().size();
        source.saveState(snapshot_bytes);
        plan.snapshots.push_back({total_branches, offset,
                                  snapshot_bytes.bytes().size() - offset});
    };

    std::vector<RegionFeatures> regions;
    // 2-bit saturating counters, weakly taken; predict taken >= 2.
    std::vector<std::uint8_t> counters(kProxyEntries, 2);
    // Epoch-stamped presence: touched[i] == current epoch means PC
    // hash i was already seen in this region (no per-region clear).
    std::vector<std::uint32_t> touched(kProxyEntries, 0);
    std::uint32_t epoch = 0;

    total_branches = 0;
    RegionFeatures current;
    std::uint64_t current_misses = 0;
    ++epoch;

    BranchRecord record;
    while (source.next(record)) {
        if (!record.isConditional())
            continue;
        const std::size_t slot =
            (record.pc ^ (record.pc >> 12)) % kProxyEntries;

        const bool predicted = counters[slot] >= 2;
        if (predicted != record.taken)
            ++current_misses;
        if (record.taken) {
            if (counters[slot] < 3)
                ++counters[slot];
        } else if (counters[slot] > 0) {
            --counters[slot];
        }

        if (touched[slot] != epoch) {
            touched[slot] = epoch;
            ++current.workingSet;
        }

        ++current.branches;
        ++total_branches;
        if (current.branches == region_branches) {
            current.proxyRate =
                static_cast<double>(current_misses) /
                static_cast<double>(current.branches);
            regions.push_back(current);
            current = RegionFeatures{};
            current_misses = 0;
            ++epoch;
            if (snapshotting && regions.size() % kSnapshotRegions == 0)
                snapshot();
        }
    }
    if (current.branches > 0) {
        current.proxyRate = static_cast<double>(current_misses) /
                            static_cast<double>(current.branches);
        regions.push_back(current);
    }
    if (snapshotting && (plan.snapshots.empty() ||
                         plan.snapshots.back().branch != total_branches))
        snapshot();
    plan.snapshotBytes = snapshot_bytes.take();
    return regions;
}

/** One selected region. */
struct Pick
{
    std::uint64_t region = 0;
    std::uint32_t stratum = 0;
    std::uint32_t subsample = 0;
};

/** The full selection: strata, weights, and picks. */
struct Selection
{
    std::uint32_t strata = 0;
    std::uint32_t subsamples = 0; //!< effective R
    std::vector<double> weights;  //!< per-stratum branch share
    std::vector<Pick> picks;      //!< deterministic order
};

/**
 * Stratify by proxy-rate quantiles, ranked-set-sample per stratum,
 * deal picks round-robin into subsamples. Deterministic in (features,
 * options, seed).
 */
Selection
selectRegions(const std::vector<RegionFeatures> &regions,
              const SamplingOptions &options, std::uint64_t seed)
{
    Selection sel;
    const std::size_t n = regions.size();
    if (n == 0)
        return sel;

    std::uint64_t total_branches = 0;
    for (const auto &region : regions)
        total_branches += region.branches;

    // Rank by the primary feature; ties break by region id so the
    // ordering is total and reproducible.
    std::vector<std::uint64_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                  if (regions[a].proxyRate != regions[b].proxyRate)
                      return regions[a].proxyRate <
                             regions[b].proxyRate;
                  return a < b;
              });

    const std::uint32_t strata = static_cast<std::uint32_t>(
        std::min<std::size_t>(options.strata, n));
    sel.strata = strata;

    // Equal-count quantile cuts over the ranking.
    std::vector<std::vector<std::uint64_t>> pools(strata);
    sel.weights.assign(strata, 0.0);
    for (std::uint32_t s = 0; s < strata; ++s) {
        const std::size_t lo = s * n / strata;
        const std::size_t hi = (s + 1) * n / strata;
        pools[s].assign(order.begin() + lo, order.begin() + hi);
        std::uint64_t branches = 0;
        for (const std::uint64_t region : pools[s])
            branches += regions[region].branches;
        sel.weights[s] = total_branches == 0
                             ? 0.0
                             : static_cast<double>(branches) /
                                   static_cast<double>(total_branches);
    }

    // Total budget, split across strata proportionally to stratum
    // size (largest-remainder rounding keeps the sum exact).
    const std::uint64_t total_picks = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::llround(options.sampleRate *
                            static_cast<double>(n))));
    std::vector<std::uint64_t> budget(strata, 0);
    std::vector<std::pair<double, std::uint32_t>> remainders;
    std::uint64_t assigned = 0;
    for (std::uint32_t s = 0; s < strata; ++s) {
        const double share =
            static_cast<double>(total_picks) *
            static_cast<double>(pools[s].size()) /
            static_cast<double>(n);
        budget[s] = std::min<std::uint64_t>(
            pools[s].size(),
            static_cast<std::uint64_t>(std::floor(share)));
        assigned += budget[s];
        remainders.push_back({share - std::floor(share), s});
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    for (const auto &[frac, s] : remainders) {
        if (assigned >= total_picks)
            break;
        if (budget[s] < pools[s].size()) {
            ++budget[s];
            ++assigned;
        }
    }

    // Ranked-set sampling per stratum: each pick draws rankSetSize
    // candidates, ranks them by the secondary feature (working-set
    // size), and keeps the candidate whose rank cycles across picks.
    Rng rng(seed);
    for (std::uint32_t s = 0; s < strata; ++s) {
        auto &pool = pools[s];
        for (std::uint64_t i = 0; i < budget[s] && !pool.empty();
             ++i) {
            const std::size_t m = std::min<std::size_t>(
                options.rankSetSize, pool.size());
            std::vector<std::uint64_t> candidates;
            candidates.reserve(m);
            for (std::size_t c = 0; c < m; ++c) {
                const std::size_t at = static_cast<std::size_t>(
                    rng.nextBelow(pool.size()));
                candidates.push_back(pool[at]);
                pool.erase(pool.begin() +
                           static_cast<std::ptrdiff_t>(at));
            }
            std::sort(candidates.begin(), candidates.end(),
                      [&](std::uint64_t a, std::uint64_t b) {
                          if (regions[a].workingSet !=
                              regions[b].workingSet)
                              return regions[a].workingSet <
                                     regions[b].workingSet;
                          return a < b;
                      });
            const std::size_t keep =
                static_cast<std::size_t>(i) % m;
            for (std::size_t c = 0; c < m; ++c) {
                if (c == keep) {
                    sel.picks.push_back(
                        {candidates[c], s, 0 /* dealt below */});
                } else {
                    pool.push_back(candidates[c]); // back to the pool
                }
            }
        }
    }

    // Deal subsample groups round-robin over the deterministic pick
    // order, so every group straddles every stratum when possible.
    sel.subsamples = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(options.subsamples,
                                sel.picks.size()));
    for (std::size_t g = 0; g < sel.picks.size(); ++g) {
        sel.picks[g].subsample =
            static_cast<std::uint32_t>(g % sel.subsamples);
    }
    return sel;
}

/** One bucket's scratch while stratifiedMass() walks slot logs. */
struct BucketScratch
{
    std::uint32_t refs = 0;        //!< the current slot's records
    std::uint32_t mispredicts = 0; //!< ... of which mispredicted
    std::uint32_t listed = 0; //!< 1 + index in the output; 0 = unlisted
};

/**
 * Stratified bucket mass of subsample @p r for @p estimator: each
 * covered stratum's slot log is counted per bucket, normalized to unit
 * mass, and weighted by the stratum's branch share renormalized over
 * @p covered. Buckets are listed in first-touch order. Per bucket, the
 * arithmetic is what BucketStats::addWeighted does over one dense bank
 * per slot, in the same stratum order, so every mass is bit-identical
 * to that formulation; only touched buckets are visited. @p scratch
 * spans every logged bucket id and is all zero on entry and on return.
 */
std::vector<KeyedBucketCounts>
stratifiedMass(const std::vector<SweepSlotStats> &slots,
               const Selection &sel, std::uint32_t r, double covered,
               std::size_t estimator, std::vector<BucketScratch> &scratch)
{
    std::vector<KeyedBucketCounts> keyed;
    std::vector<std::uint32_t> touched;
    for (std::uint32_t s = 0; s < sel.strata; ++s) {
        const SweepSlotStats &slot = slots[s * sel.subsamples + r];
        if (slot.branches == 0)
            continue;
        const std::vector<std::uint32_t> &log =
            slot.estimatorLogs[estimator];
        for (const std::uint32_t entry : log) {
            BucketScratch &bucket = scratch[entry >> 1];
            if (bucket.refs++ == 0)
                touched.push_back(entry >> 1);
            bucket.mispredicts += entry & 1;
        }
        // Unit mass: the log's length is the slot's reference count.
        const double weight =
            (sel.weights[s] / covered) / static_cast<double>(log.size());
        for (const std::uint32_t id : touched) {
            BucketScratch &bucket = scratch[id];
            if (bucket.listed == 0) {
                keyed.push_back({id, BucketCounts{}});
                bucket.listed = static_cast<std::uint32_t>(keyed.size());
            }
            BucketCounts &mass = keyed[bucket.listed - 1].counts;
            mass.refs += static_cast<double>(bucket.refs) * weight;
            mass.mispredicts +=
                static_cast<double>(bucket.mispredicts) * weight;
            bucket.refs = 0;
            bucket.mispredicts = 0;
        }
        touched.clear();
    }
    for (const KeyedBucketCounts &k : keyed)
        scratch[k.bucket].listed = 0;
    return keyed;
}

/** Per-benchmark deterministic selection seed. */
std::uint64_t
benchSeed(std::uint64_t seed, const std::string &name)
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a
    for (const char c : name)
        h = (h ^ static_cast<unsigned char>(c)) *
            1099511628211ull;
    return seed ^ h;
}

/**
 * Plan one trace: pre-pass @p source, select its regions into @p sel,
 * and build the recording plan its replay runs under. Sampled regions
 * record into their (stratum, subsample) slot; everything else warms —
 * or, with a bounded warm window, fast-forwards until the window
 * before the next sample. Fills @p out's pre-pass and selection
 * fields; an empty trace leaves out.regions 0 and a plan without
 * regions.
 */
SweepRecordingPlan
planTrace(TraceSource &source, const SamplingOptions &options,
          Selection &sel, SamplingBenchmarkResult &out)
{
    // Pass 1: features and source snapshots.
    SweepRecordingPlan plan;
    plan.regionBranches = options.regionBranches;
    const Clock::time_point prepass_start = Clock::now();
    const std::vector<RegionFeatures> features = prePass(
        source, options.regionBranches, out.totalBranches,
        options.warmupRegions != SamplingOptions::kWarmAll, plan);
    out.prePassMs = elapsedMsSince(prepass_start);
    out.regions = features.size();

    if (features.empty())
        return plan; // empty trace: zero estimates, nothing to record

    sel = selectRegions(features, options,
                        benchSeed(options.seed, out.name));
    out.sampledRegions = sel.picks.size();
    for (const Pick &pick : sel.picks)
        out.sampledRegionIds.push_back(pick.region);
    std::sort(out.sampledRegionIds.begin(),
              out.sampledRegionIds.end());

    const std::uint32_t r_eff = sel.subsamples;
    plan.numSlots = sel.strata * r_eff;
    plan.regionSlots.assign(
        features.size(),
        options.warmupRegions == SamplingOptions::kWarmAll
            ? SweepRecordingPlan::kWarmOnly
            : SweepRecordingPlan::kSkip);
    for (const Pick &pick : sel.picks) {
        plan.regionSlots[pick.region] =
            pick.stratum * r_eff + pick.subsample;
    }
    if (options.warmupRegions != SamplingOptions::kWarmAll) {
        for (const Pick &pick : sel.picks) {
            const std::uint64_t lo =
                pick.region >= options.warmupRegions
                    ? pick.region - options.warmupRegions
                    : 0;
            for (std::uint64_t j = lo; j < pick.region; ++j) {
                if (plan.regionSlots[j] == SweepRecordingPlan::kSkip)
                    plan.regionSlots[j] =
                        SweepRecordingPlan::kWarmOnly;
            }
        }
    }
    return plan;
}

/**
 * Stratified estimates per configuration of one trace, from the slot
 * logs its planned @p replay left under selection @p sel.
 */
void
estimateTrace(const Selection &sel, const SweepRunResult &replay,
              SamplingBenchmarkResult &out)
{
    const Clock::time_point estimate_start = Clock::now();
    out.replayMs = replay.wallMs;
    out.recordedBranches = replay.perConfig.empty()
                               ? 0
                               : replay.perConfig[0].branches;
    // The scratch spans the largest bucket id any slot logged.
    std::uint32_t max_entry = 0;
    for (const SweepConfigResult &config : replay.perConfig) {
        for (const SweepSlotStats &slot : config.slotStats) {
            for (const std::vector<std::uint32_t> &log :
                 slot.estimatorLogs) {
                if (!log.empty()) {
                    max_entry = std::max(
                        max_entry, *std::max_element(log.begin(),
                                                     log.end()));
                }
            }
        }
    }
    std::vector<BucketScratch> scratch((std::size_t{max_entry} >> 1) + 1);

    const std::uint32_t r_eff = sel.subsamples;
    for (const SweepConfigResult &config : replay.perConfig) {
        SamplingConfigEstimate est;
        est.label = config.label;
        est.estimatorNames = config.estimatorNames;
        const std::size_t num_estimators =
            config.estimatorNames.size();
        est.coverageSubsamples.resize(num_estimators);
        est.pvnSubsamples.resize(num_estimators);

        for (std::uint32_t r = 0; r < r_eff; ++r) {
            // Renormalize stratum weights over the strata this
            // subsample actually covers (a stratum's budget can be
            // smaller than R).
            double covered = 0.0;
            for (std::uint32_t s = 0; s < sel.strata; ++s) {
                const SweepSlotStats &slot =
                    config.slotStats[s * r_eff + r];
                if (slot.branches > 0)
                    covered += sel.weights[s];
            }
            if (covered <= 0.0)
                continue; // an empty subsample contributes nothing

            double rate = 0.0;
            for (std::uint32_t s = 0; s < sel.strata; ++s) {
                const SweepSlotStats &slot =
                    config.slotStats[s * r_eff + r];
                if (slot.branches == 0)
                    continue;
                rate += (sel.weights[s] / covered) *
                        (static_cast<double>(slot.mispredicts) /
                         static_cast<double>(slot.branches));
            }
            est.rateSubsamples.push_back(rate);

            for (std::size_t e = 0; e < num_estimators; ++e) {
                const OperatingPoint point = operatingPointAt(
                    stratifiedMass(config.slotStats, sel, r, covered, e,
                                   scratch),
                    0.2);
                est.coverageSubsamples[e].push_back(point.coverage);
                est.pvnSubsamples[e].push_back(point.pvn);
            }
        }

        if (!est.rateSubsamples.empty()) {
            est.mispredictRate =
                estimateFromSubsamples(est.rateSubsamples);
            for (std::size_t e = 0; e < num_estimators; ++e) {
                est.coverageAt20.push_back(estimateFromSubsamples(
                    est.coverageSubsamples[e]));
                est.pvnAt20.push_back(estimateFromSubsamples(
                    est.pvnSubsamples[e]));
            }
        }
        out.perConfig.push_back(std::move(est));
    }
    out.estimateMs = elapsedMsSince(estimate_start);
}

} // namespace

SamplingEngine::SamplingEngine(std::vector<SweepConfiguration> configs,
                               DriverOptions driver,
                               SamplingOptions options)
    : configs_(std::move(configs)), driver_(driver),
      options_(options)
{
    if (configs_.empty()) {
        fatal(ErrorCategory::kConfig,
              "SamplingEngine needs at least one configuration");
    }
    if (!(options_.sampleRate > 0.0) || options_.sampleRate > 1.0) {
        fatal(ErrorCategory::kConfig,
              "--sample-rate must be in (0, 1]");
    }
    if (options_.regionBranches == 0)
        fatal(ErrorCategory::kConfig, "region size must be > 0");
    if (options_.strata == 0)
        fatal(ErrorCategory::kConfig, "--strata must be >= 1");
    if (options_.subsamples == 0)
        fatal(ErrorCategory::kConfig, "--subsamples must be >= 1");
    if (options_.rankSetSize == 0)
        fatal(ErrorCategory::kConfig, "rank-set size must be >= 1");
    if (options_.sweep.recordingPlan != nullptr) {
        fatal(ErrorCategory::kConfig,
              "the sampling engine owns the recording plan; "
              "SamplingOptions::sweep.recordingPlan must be null");
    }
    if (options_.sweep.pool != nullptr) {
        fatal(ErrorCategory::kConfig,
              "the sampling engine schedules its own passes; "
              "SamplingOptions::sweep.pool must be null");
    }
}

SamplingBenchmarkResult
SamplingEngine::runTrace(const std::string &name,
                         const SourceFactory &make_source)
{
    SamplingBenchmarkResult out;
    out.name = name;
    // A fresh source per pass guarantees the replay sees the stream
    // the pre-pass planned.
    Selection sel;
    const SweepRecordingPlan plan =
        planTrace(*make_source(), options_, sel, out);
    if (out.regions == 0)
        return out;

    // Pass 2: one planned sweep replay.
    SweepOptions sweep = options_.sweep;
    sweep.recordingPlan = &plan;
    SweepEngine engine(configs_, driver_, sweep);
    estimateTrace(sel, engine.run(*make_source()), out);
    return out;
}

SweepRecordingPlan
SamplingEngine::recordingPlan(const std::string &name,
                              TraceSource &source) const
{
    Selection sel;
    SamplingBenchmarkResult out;
    out.name = name;
    return planTrace(source, options_, sel, out);
}

SamplingRunResult
SamplingEngine::runSuite(const SuiteRunner &runner)
{
    const Clock::time_point suite_start = Clock::now();
    SamplingRunResult result;
    const BenchmarkSuite &suite = runner.suite();

    // Each benchmark is one pass on the suite runner's scheduler: the
    // plan hook pre-passes and selects, the replay records, and the
    // finish hook estimates. Passes overlap; each touches only its own
    // benchmark's entries below.
    result.perBenchmark.resize(suite.size());
    std::vector<Selection> selections(suite.size());
    SuiteRunner::PassHooks hooks;
    hooks.plan = [&](std::size_t bench, TraceSource &source) {
        SamplingBenchmarkResult &out = result.perBenchmark[bench];
        out.name = suite.profile(bench).name;
        return planTrace(source, options_, selections[bench], out);
    };
    hooks.finish = [&](std::size_t bench, const SweepRunResult &pass) {
        if (result.perBenchmark[bench].regions != 0)
            estimateTrace(selections[bench], pass, result.perBenchmark[bench]);
    };
    (void)runner.runPasses(configs_, driver_, options_.sweep, {}, hooks);

    for (const SamplingBenchmarkResult &bench_result :
         result.perBenchmark) {
        result.totalBranches += bench_result.totalBranches;
        result.recordedBranches += bench_result.recordedBranches;
        if (driver_.telemetry != nullptr) {
            MetricsRegistry &registry =
                driver_.telemetry->registry();
            registry.observe("sampling.prepass_ms",
                             bench_result.prePassMs);
            registry.observe("sampling.replay_ms",
                             bench_result.replayMs);
            registry.observe("sampling.estimate_ms",
                             bench_result.estimateMs);
            registry.observe("sampling.sampled_regions",
                             static_cast<double>(
                                 bench_result.sampledRegions));
        }
    }

    // Equal-weight composites, estimated per subsample then
    // summarized — mirroring EqualWeightComposite's semantics at the
    // estimate level. Subsample r composites every benchmark's r-th
    // estimate; r runs to the shortest benchmark series so each
    // composite subsample covers the full suite.
    const std::size_t num_configs = configs_.size();
    for (std::size_t c = 0; c < num_configs; ++c) {
        SamplingConfigEstimate composite;
        composite.label = configs_[c].label;

        std::size_t r_min = 0;
        bool have = false;
        for (const auto &bench : result.perBenchmark) {
            if (bench.perConfig.empty())
                continue;
            const std::size_t r =
                bench.perConfig[c].rateSubsamples.size();
            r_min = have ? std::min(r_min, r) : r;
            have = true;
            if (composite.estimatorNames.empty()) {
                composite.estimatorNames =
                    bench.perConfig[c].estimatorNames;
            }
        }
        if (have && r_min > 0) {
            const std::size_t num_estimators =
                composite.estimatorNames.size();
            composite.coverageSubsamples.resize(num_estimators);
            composite.pvnSubsamples.resize(num_estimators);
            std::vector<double> coverage(num_estimators);
            std::vector<double> pvn(num_estimators);
            for (std::size_t r = 0; r < r_min; ++r) {
                double rate = 0.0;
                std::fill(coverage.begin(), coverage.end(), 0.0);
                std::fill(pvn.begin(), pvn.end(), 0.0);
                std::size_t benches = 0;
                for (const auto &bench : result.perBenchmark) {
                    if (bench.perConfig.empty())
                        continue;
                    const auto &est = bench.perConfig[c];
                    rate += est.rateSubsamples[r];
                    for (std::size_t e = 0; e < num_estimators;
                         ++e) {
                        coverage[e] += est.coverageSubsamples[e][r];
                        pvn[e] += est.pvnSubsamples[e][r];
                    }
                    ++benches;
                }
                if (benches == 0)
                    continue;
                composite.rateSubsamples.push_back(
                    rate / static_cast<double>(benches));
                for (std::size_t e = 0; e < num_estimators; ++e) {
                    composite.coverageSubsamples[e].push_back(
                        coverage[e] /
                        static_cast<double>(benches));
                    composite.pvnSubsamples[e].push_back(
                        pvn[e] / static_cast<double>(benches));
                }
            }
            if (!composite.rateSubsamples.empty()) {
                composite.mispredictRate = estimateFromSubsamples(
                    composite.rateSubsamples);
                for (std::size_t e = 0; e < num_estimators; ++e) {
                    composite.coverageAt20.push_back(
                        estimateFromSubsamples(
                            composite.coverageSubsamples[e]));
                    composite.pvnAt20.push_back(
                        estimateFromSubsamples(
                            composite.pvnSubsamples[e]));
                }
            }
        }
        result.composite.push_back(std::move(composite));
    }

    result.wallMs = elapsedMsSince(suite_start);
    if (driver_.telemetry != nullptr) {
        driver_.telemetry->registry().setGauge(
            "sampling.reduction", result.reductionFactor());
        const double composite_rate =
            result.composite.empty()
                ? 0.0
                : result.composite[0].mispredictRate.mean;
        // Close the scheduler's suite_run_started: a failed run threw
        // from runPasses, which closed it already.
        driver_.telemetry->emit(TelemetryEvent(
            events::kSuiteRunFinished,
            {field("wall_ms", result.wallMs),
             field("composite_mispredict_rate", composite_rate),
             field("failed_benchmarks", std::uint64_t{0})}));
        driver_.telemetry->emit(TelemetryEvent(
            events::kSamplingRunFinished,
            {field("benchmarks",
                   static_cast<std::uint64_t>(suite.size())),
             field("configs",
                   static_cast<std::uint64_t>(num_configs)),
             field("sample_rate", options_.sampleRate),
             field("subsamples",
                   static_cast<std::uint64_t>(options_.subsamples)),
             field("total_branches", result.totalBranches),
             field("recorded_branches", result.recordedBranches),
             field("reduction", result.reductionFactor()),
             field("composite_mispredict_rate", composite_rate),
             field("wall_ms", result.wallMs)}));
    }
    return result;
}

} // namespace confsim
