/**
 * @file
 * Sampled-vs-exact accuracy table: does statistical sampling keep its
 * error-bar promise?
 *
 * Runs the suite twice with identical benchmarks — once exactly
 * through the sweep engine (ground truth) and once through the
 * sampling engine at --sample-rate — and reports, per benchmark and
 * for the composite, the exact misprediction rate next to the sampled
 * estimate with its 95% confidence interval, whether the interval
 * contains the truth, and the replayed-records reduction factor the
 * estimate was bought at.
 *
 * With --check (the CI sampling-smoke contract) the binary exits
 * nonzero unless every benchmark CI and the composite CI contain
 * ground truth AND the suite-wide reduction is at least 5x.
 *
 *   ./build/bench/sampling_accuracy --fast --region-branches 2000
 *   ./build/bench/sampling_accuracy --fast --region-branches 2000 --check
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "metrics/operating_point.h"
#include "sim/experiment.h"

using namespace confsim;

namespace {

int
run(const ExperimentEnv &env, bool check)
{
    const std::vector<SweepExperimentConfig> configs = {
        {"gshare+CIR",
         largeGshareFactory(),
         {oneLevelIdealConfig(IndexScheme::PcXorBhr)}},
    };

    std::printf("=== statistical sampling vs. exact replay ===\n\n");
    std::printf("sample rate %.0f%%, %u strata, %u subsamples, "
                "regions of %llu branches\n\n",
                100.0 * env.sampling.sampleRate, env.sampling.strata,
                env.sampling.subsamples,
                static_cast<unsigned long long>(
                    env.sampling.regionBranches));

    const SweepSuiteResult exact = runSuiteExperiment(env, configs);
    const SamplingRunResult sampled =
        runSampledSuiteExperiment(env, configs);

    const SuiteRunResult &truth = exact.perConfig[0];
    std::printf("%-12s %10s | %10s %18s %5s | %9s\n", "benchmark",
                "exact", "sampled", "95% CI", "in?", "reduction");
    bool all_contained = true;
    for (std::size_t b = 0; b < sampled.perBenchmark.size(); ++b) {
        const SamplingBenchmarkResult &bench =
            sampled.perBenchmark[b];
        const double exact_rate =
            truth.perBenchmark[b].mispredictRate;
        const IntervalEstimate &est =
            bench.perConfig[0].mispredictRate;
        const bool contained = est.contains(exact_rate);
        all_contained = all_contained && contained;
        std::printf("%-12s %9.3f%% | %9.3f%% [%7.3f%%,%7.3f%%] %5s "
                    "| %8.1fx\n",
                    bench.name.c_str(), 100.0 * exact_rate,
                    100.0 * est.mean, 100.0 * est.ciLow(),
                    100.0 * est.ciHigh(), contained ? "yes" : "NO",
                    bench.reductionFactor());
    }
    const double exact_composite = truth.compositeMispredictRate;
    const IntervalEstimate &composite_est =
        sampled.composite[0].mispredictRate;
    const bool composite_contained =
        composite_est.contains(exact_composite);
    std::printf("%-12s %9.3f%% | %9.3f%% [%7.3f%%,%7.3f%%] %5s "
                "| %8.1fx\n\n",
                "composite", 100.0 * exact_composite,
                100.0 * composite_est.mean,
                100.0 * composite_est.ciLow(),
                100.0 * composite_est.ciHigh(),
                composite_contained ? "yes" : "NO",
                sampled.reductionFactor());

    // Coverage at the paper's ~20% operating point: the same
    // containment story for a bucket-shaped (not scalar) statistic.
    const OperatingPoint exact_point =
        operatingPointAt20(truth.compositeEstimatorStats[0]);
    if (!sampled.composite[0].coverageAt20.empty()) {
        const IntervalEstimate &cov =
            sampled.composite[0].coverageAt20[0];
        std::printf("composite coverage@20%%: exact %.1f%%, sampled "
                    "%.1f%% [%.1f%%, %.1f%%]%s\n",
                    100.0 * exact_point.coverage, 100.0 * cov.mean,
                    100.0 * cov.ciLow(), 100.0 * cov.ciHigh(),
                    cov.contains(exact_point.coverage)
                        ? ""
                        : "  (outside CI)");
    }
    std::printf("replayed-records reduction: %.1fx  (%llu of %llu "
                "branches recorded)\n",
                sampled.reductionFactor(),
                static_cast<unsigned long long>(
                    sampled.recordedBranches),
                static_cast<unsigned long long>(
                    sampled.totalBranches));
    // Benchmarks' passes overlap, so their phase times add up to more
    // than the sampled wall time: they are work, not a split of it.
    double prepass_ms = 0.0;
    double replay_ms = 0.0;
    double estimate_ms = 0.0;
    for (const SamplingBenchmarkResult &bench : sampled.perBenchmark) {
        prepass_ms += bench.prePassMs;
        replay_ms += bench.replayMs;
        estimate_ms += bench.estimateMs;
    }
    std::printf("wall clock: exact %.0f ms, sampled %.0f ms (summed over "
                "benchmarks: pre-pass %.0f, replay %.0f, estimates "
                "%.0f)\n",
                exact.wallMs, sampled.wallMs, prepass_ms, replay_ms,
                estimate_ms);

    if (check) {
        bool ok = true;
        if (!all_contained || !composite_contained) {
            std::fprintf(stderr,
                         "CHECK FAILED: a 95%% CI does not contain "
                         "the exact-replay misprediction rate\n");
            ok = false;
        }
        if (sampled.reductionFactor() < 5.0) {
            std::fprintf(stderr,
                         "CHECK FAILED: reduction %.2fx < 5x\n",
                         sampled.reductionFactor());
            ok = false;
        }
        if (!ok)
            return 1;
        std::printf("CHECK OK: all CIs contain ground truth, "
                    "reduction %.1fx >= 5x\n",
                    sampled.reductionFactor());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // --check is bench-local; peel it off before the shared parser.
    bool check = false;
    std::vector<const char *> args;
    args.reserve(static_cast<std::size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
            continue;
        }
        args.push_back(argv[i]);
    }
    return runHarness(static_cast<int>(args.size()), args.data(),
                      "sampled vs. exact replay accuracy table (--check: "
                      "fail unless every 95% CI contains ground truth "
                      "and reduction >= 5x)",
                      [check](const ExperimentEnv &env) {
                          return run(env, check);
                      },
                      /*sampled=*/true);
}
