/**
 * @file
 * Quickstart: the smallest complete use of the confsim public API.
 *
 *  1. Create a synthetic benchmark workload (an IBS stand-in).
 *  2. Attach the paper's predictor (gshare) and recommended
 *     confidence estimator (one-level CT of resetting counters,
 *     indexed with PC xor BHR).
 *  3. Run the trace-driven simulation.
 *  4. Read the results: misprediction rate, the cumulative confidence
 *     curve, and a binary high/low confidence operating point.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [--benchmark jpeg] [--branches N]
 */

#include <cstdio>

#include "confidence/binary_signal.h"
#include "confidence/one_level.h"
#include "confidence/perceptron_margin.h"
#include "confidence/tage_confidence.h"
#include "metrics/confidence_curve.h"
#include "obs/branch_profiler.h"
#include "obs/telemetry.h"
#include "predictor/gshare.h"
#include "predictor/perceptron.h"
#include "predictor/tage.h"
#include "sim/driver.h"
#include "trace/trace_stats.h"
#include "util/cli.h"
#include "util/signal_cancellation.h"
#include "workload/workload_generator.h"

using namespace confsim;

int
main(int argc, char **argv)
{
    CliParser cli("confsim quickstart");
    cli.addOption("benchmark", "groff",
                  "IBS workload name (groff, gs, jpeg, mpeg, nroff, "
                  "real_gcc, sdet, verilog, video_play)");
    cli.addOption("branches", "1000000", "trace length");
    cli.addOption("telemetry", "",
                  "write JSONL telemetry (manifest + events) here");
    cli.addOption("branch-profile", "",
                  "write the per-branch attribution profile here "
                  "(CSV, or JSONL when the path ends in .jsonl)");
    cli.addFlag("compare-native",
                "also run TAGE and perceptron with their built-in "
                "confidence and compare against the CIR estimator");
    cli.addFlag("progress", "announce the run on stderr");
    if (!cli.parse(argc, argv))
        return 0;

    // 1. Workload.
    const BenchmarkProfile profile =
        ibsProfile(cli.getString("benchmark"));
    WorkloadGenerator workload(profile, cli.getUnsigned("branches"));

    // 2. Predictor + confidence estimator.
    GsharePredictor predictor = GsharePredictor::makeLargePaperConfig();
    OneLevelCounterConfidence confidence(
        IndexScheme::PcXorBhr, 1 << 16, CounterKind::Resetting, 16, 0);

    // Optional telemetry: a single-benchmark manifest plus the
    // driver's own events. Null (and therefore free) by default.
    TelemetryOptions telemetry_options;
    telemetry_options.jsonlPath = cli.getString("telemetry");
    telemetry_options.progress = cli.getFlag("progress");
    const auto telemetry = Telemetry::fromOptions(telemetry_options);

    // Optional branch attribution, same null-facade contract as
    // telemetry: off (and free) unless a path is given.
    const std::string profile_path = cli.getString("branch-profile");

    // Ctrl-C / SIGTERM cancel the run cooperatively: the driver
    // unwinds with Error{kCancelled}, the telemetry sink is flushed,
    // and the process exits 128+signo instead of dying mid-write.
    CancellationToken root;
    installSignalCancellation(root);

    DriverOptions options;
    options.cancel = &root;
    options.profileBranches = !profile_path.empty();
    if (telemetry) {
        RunManifest manifest = RunManifest::withBuildInfo();
        manifest.tool = "quickstart";
        manifest.suite = "single";
        ManifestBenchmark bench;
        bench.name = profile.name;
        bench.seed = profile.seed;
        bench.branches = cli.getUnsigned("branches");
        bench.traceChecksum = streamChecksum(workload, 4096);
        manifest.benchmarks.push_back(bench);
        manifest.predictor = predictor.name();
        manifest.predictorStorageBits = predictor.storageBits();
        manifest.estimators.push_back(confidence.name());
        telemetry->setManifest(manifest);
        options.telemetry = telemetry.get();
        options.telemetryLabel = profile.name;
    }

    // 3. Simulate.
    SimulationDriver driver(predictor, {&confidence}, options);
    DriverResult result;
    try {
        result = driver.run(workload);
    } catch (const Error &e) {
        if (e.category() != ErrorCategory::kCancelled)
            throw;
        if (telemetry)
            telemetry->finish();
        std::fprintf(stderr, "quickstart: %s\n", e.what());
        return exitCodeForSignal(lastCancellationSignal());
    }

    publishBranchProfile(result.branchProfile, profile_path, {},
                         telemetry.get());

    std::printf("benchmark      : %s\n", profile.name.c_str());
    std::printf("branches       : %llu\n",
                static_cast<unsigned long long>(result.branches));
    std::printf("mispredictions : %llu (%.2f%%)\n",
                static_cast<unsigned long long>(result.mispredicts),
                100.0 * result.mispredictRate());
    std::printf("predictor      : %s (%llu Kbit)\n",
                predictor.name().c_str(),
                static_cast<unsigned long long>(
                    predictor.storageBits() / 1024));
    std::printf("confidence     : %s (%llu Kbit)\n\n",
                confidence.name().c_str(),
                static_cast<unsigned long long>(
                    confidence.storageBits() / 1024));

    // 4a. The paper's cumulative curve.
    const auto curve =
        ConfidenceCurve::fromBucketStats(result.estimatorStats[0]);
    std::printf("misprediction coverage by low-confidence set size:\n");
    for (double frac : {0.05, 0.10, 0.20, 0.30}) {
        std::printf("  %4.0f%% of branches -> %5.1f%% of "
                    "mispredictions\n",
                    100.0 * frac,
                    100.0 * curve.mispredCoverageAt(frac));
    }

    // 4b. A concrete binary signal: everything below the saturated
    // counter is "low confidence" (Table 1's 0..15 operating point).
    const auto signal =
        BinaryConfidenceSignal::fromThreshold(confidence, 15);
    const auto &stats = result.estimatorStats[0];
    double low_refs = 0.0;
    double low_misses = 0.0;
    for (std::uint64_t b = 0; b < stats.numBuckets(); ++b) {
        if (signal.lowBuckets()[b]) {
            low_refs += stats[b].refs;
            low_misses += stats[b].mispredicts;
        }
    }
    std::printf("\noperating point 'counter < 16': %.1f%% of "
                "predictions flagged low, capturing %.1f%% of "
                "mispredictions\n",
                100.0 * low_refs / stats.totalRefs(),
                100.0 * low_misses / stats.totalMispredicts());

    // 5. Optional: the same trace under the modern predictors' native
    // confidence signals, reported at the paper's 20% operating point
    // (cov = mispredictions captured by the 20%-of-branches low set,
    // pvn = P(mispredict | flagged low) at that point).
    if (cli.getFlag("compare-native")) {
        std::printf("\nCIR vs native confidence (20%% low set):\n");
        std::printf("  %-22s %6s %6s %6s\n", "signal", "rate", "cov",
                    "pvn");
        const auto report = [](const char *label,
                               const DriverResult &run) {
            const auto c =
                ConfidenceCurve::fromBucketStats(run.estimatorStats[0]);
            const double cov = c.mispredCoverageAt(0.2);
            const double pvn =
                cov * run.mispredictRate() / 0.2;
            std::printf("  %-22s %5.2f%% %5.1f%% %5.1f%%\n", label,
                        100.0 * run.mispredictRate(), 100.0 * cov,
                        100.0 * pvn);
        };
        report("gshare + CIR counter", result);

        WorkloadGenerator tage_trace(profile,
                                     cli.getUnsigned("branches"));
        TagePredictor tage;
        TageProviderConfidence tage_conf;
        SimulationDriver tage_driver(tage, {&tage_conf});
        report("TAGE provider", tage_driver.run(tage_trace));

        WorkloadGenerator perc_trace(profile,
                                     cli.getUnsigned("branches"));
        PerceptronPredictor perceptron;
        PerceptronMarginConfidence perc_conf;
        SimulationDriver perc_driver(perceptron, {&perc_conf});
        report("perceptron margin", perc_driver.run(perc_trace));
    }
    return 0;
}
