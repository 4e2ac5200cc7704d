/**
 * @file
 * confbench: the confsim benchmark program.
 *
 *   confbench run --workload W --seed N --seconds S --trace 0|1
 *                 --expect FILE --work-dir DIR [--scale X]
 *   confbench expect --workload W --seed N --out FILE --work-dir DIR
 *                 [--scale X]
 *
 * `run` prints one JSON line last: {"correct", "attempted", "failed",
 * "metrics"}. With --trace 0 the metrics are the end-to-end ones (host
 * time per update, CPU time per update, set-up time, peak RSS); with
 * --trace 1 they are the per-layer rows and residuals. `expect`
 * computes a workload's expected outputs with a sequential,
 * single-thread run. confbench/run.py builds and drives both.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "common.h"
#include "layers.h"
#include "obs/run_manifest.h"
#include "trace/trace_io.h"
#include "workloads.h"

using namespace confbench;

namespace {

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupRepetitions = 9;

/** Branches the traced run's layer rows are measured over. */
constexpr std::uint64_t kProbeBranches = 600'000;

/**
 * Variables that silently change what is measured: thread counts,
 * pipelining, injected faults.
 */
const char *const kForbiddenEnv[] = {
    "CONFSIM_SEQUENTIAL", "CONFSIM_DECODE_AHEAD", "CONFSIM_BENCH_PARALLEL",
    "CONFSIM_FAULT_PLAN"};

std::map<std::string, std::string>
parseArgs(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 2; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            confsim::fatal(std::string("unexpected argument ") + argv[i]);
        args[argv[i] + 2] = argv[i + 1];
    }
    return args;
}

std::string
require(const std::map<std::string, std::string> &args,
        const std::string &name)
{
    const auto it = args.find(name);
    if (it == args.end())
        confsim::fatal("missing --" + name);
    return it->second;
}

void
printResult(const Checks &checks, const Rows &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checks.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted()),
                static_cast<unsigned long long>(checks.failed()));
    const char *separator = "";
    for (const Metric &metric : metrics.all()) {
        const double value = std::isfinite(metric.value) ? metric.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    separator, metric.name.c_str(), value,
                    metric.unit.c_str());
        separator = ", ";
    }
    std::printf("}}\n");
}

/** Run one iteration, counting a thrown error as one failed check. */
void
runChecked(Workload &workload, const Expected &expected, Checks &checks)
{
    try {
        workload.runOnce(expected, checks);
    } catch (const std::exception &e) {
        checks.fail(e.what());
    }
}

Rows
timedRun(Workload &workload, const Expected &expected, double seconds,
         Checks &checks)
{
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepetitions; ++i) {
        const Clock::time_point start = Clock::now();
        workload.setUp();
        setup_s.push_back(secondsSince(start));
    }

    // One untimed iteration first, so page faults and lazy
    // initialisation do not land in the timed phase.
    runChecked(workload, expected, checks);

    std::vector<double> wall_ns;
    std::vector<double> cpu_ns;
    const double updates = workload.updatesPerRun();
    const Clock::time_point start = Clock::now();
    while (wall_ns.size() < 3 || secondsSince(start) < seconds) {
        const double cpu0 = processCpuSeconds();
        const Clock::time_point t0 = Clock::now();
        runChecked(workload, expected, checks);
        wall_ns.push_back(secondsSince(t0) * 1e9 / updates);
        cpu_ns.push_back((processCpuSeconds() - cpu0) * 1e9 / updates);
    }
    std::fprintf(stderr, "confbench: %zu timed iterations, ns/update:",
                 wall_ns.size());
    for (const double ns : wall_ns)
        std::fprintf(stderr, " %.1f", ns);
    std::fprintf(stderr, "\n");

    Rows metrics;
    metrics.set("ns_per_update", "ns", median(wall_ns));
    metrics.set("cpu_ns_per_update", "ns", median(cpu_ns));
    metrics.set("setup_s", "s", median(setup_s));
    metrics.set("peak_rss_mib", "MiB", peakRssMib());
    return metrics;
}

Rows
tracedRun(Workload &workload, const Expected &expected, double seconds,
          const WorkloadParams &params, Checks &checks)
{
    const Clock::time_point start = Clock::now();
    workload.setUp();
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    runChecked(workload, expected, checks);
    const double updates = workload.updatesPerRun();
    const double wall_ns = secondsSince(t0) * 1e9 / updates;
    const double cpu_ns = (processCpuSeconds() - cpu0) * 1e9 / updates;

    // Layer rows over the first kProbeBranches of the workload's input
    // traces, split evenly across them.
    const std::vector<TraceSpec> all = workload.traces();
    const std::uint64_t probe_total = static_cast<std::uint64_t>(
        std::max(20'000.0, params.scale * kProbeBranches));
    const std::vector<TraceSpec> probe =
        truncated(all, probe_total / all.size());
    const std::string probe_file = params.workDir + "/probe.cbt";
    {
        ChainedSource source(probe);
        confsim::writeTraceFile(source, probe_file);
    }
    Rows rows;
    const double layer_budget = std::max(0.0, seconds - secondsSince(start));
    measureLayerRows(probe, probe_file,
                     Clock::now() + std::chrono::duration_cast<
                                        Clock::duration>(
                                        std::chrono::duration<double>(
                                            layer_budget / 2)),
                     rows);
    measureDriverRows(probe, rows);
    workload.addRows(rows);
    if (!rows.has("sim.sweep.shard_busy_frac")) {
        ChainedSource source(probe);
        const std::vector<confsim::BranchRecord> records = drain(source);
        const confsim::SweepRunResult exact = measureSweepRows(
            probe_file, records, std::max(1u, params.cpus - 1),
            params.workDir + "/ckpt", rows);
        if (!rows.has("sim.sampling.prepass_ms"))
            measureSamplingRows(records, exact, params.seed, params.cpus,
                                rows);
    }

    // Residual accounting: what the layer rows explain of this run.
    const double layer_sum = workload.layerSumNsPerUpdate(rows);
    rows.set("residual.ns_per_update", "ns", wall_ns);
    rows.set("residual.layer_sum_ns_per_update", "ns", layer_sum);
    rows.set("residual.wall_unexplained_ns_per_update", "ns",
             wall_ns - layer_sum / workload.busyThreads());
    rows.set("residual.cpu_unexplained_ns_per_update", "ns",
             cpu_ns - layer_sum);
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 2)
            confsim::fatal("usage: confbench run|expect --workload W ...");
        const std::string mode = argv[1];
        const auto args = parseArgs(argc, argv);

        WorkloadParams params;
        params.seed = std::stoull(require(args, "seed"));
        params.workDir = require(args, "work-dir");
        params.cpus = hostCpus();
        if (args.count("scale") != 0)
            params.scale = std::stod(args.at("scale"));
        const std::unique_ptr<Workload> workload =
            makeWorkload(require(args, "workload"), params);

        if (mode == "expect") {
            workload->setUp();
            workload->computeExpected().save(require(args, "out"));
            return 0;
        }
        if (mode != "run")
            confsim::fatal("unknown mode " + mode);
        for (const char *name : kForbiddenEnv) {
            if (std::getenv(name) != nullptr) {
                std::fprintf(stderr,
                             "confbench: refusing to run: %s is set and "
                             "changes what is measured; unset it\n",
                             name);
                return 2;
            }
        }

        const Expected expected = Expected::load(require(args, "expect"));
        const double seconds = std::stod(require(args, "seconds"));
        const bool traced = require(args, "trace") == "1";
        const confsim::RunManifest build =
            confsim::RunManifest::withBuildInfo();
        std::printf("{\"env\": {\"nproc\": %u, \"compiler\": \"%s\", "
                    "\"build_type\": \"%s\", \"workload\": \"%s\", "
                    "\"seed\": %llu, \"scale\": %g}}\n",
                    params.cpus, build.compiler.c_str(),
                    build.buildType.c_str(),
                    require(args, "workload").c_str(),
                    static_cast<unsigned long long>(params.seed),
                    params.scale);

        Checks checks;
        const Rows metrics =
            traced ? tracedRun(*workload, expected, seconds, params, checks)
                   : timedRun(*workload, expected, seconds, checks);
        printResult(checks, metrics);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "confbench: %s\n", e.what());
        return 1;
    }
}
