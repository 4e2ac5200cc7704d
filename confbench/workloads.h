/**
 * @file
 * The benchmark's workloads. Each one prepares its inputs (set-up),
 * runs one library entry point over them (one timed iteration), checks
 * the simulated outputs against expected values, and reports the
 * per-layer rows of its own mechanism in the traced run.
 */

#ifndef CONFBENCH_WORKLOADS_H
#define CONFBENCH_WORKLOADS_H

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "sim/experiment.h"

namespace confbench {

/** One generated input trace: a profile and its length. */
struct TraceSpec
{
    confsim::BenchmarkProfile profile;
    std::uint64_t branches = 0;
};

/** What every workload is built from. */
struct WorkloadParams
{
    std::uint64_t seed = 1;
    double scale = 1.0;      //!< trace-length multiplier (self-test)
    std::string workDir;     //!< scratch files (trace, checkpoints)
    unsigned cpus = 1;       //!< `nproc`; caps worker threads
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Prepare inputs and engine; timed as setup_s, may run repeatedly. */
    virtual void setUp() = 0;

    /** Expected outputs from a sequential, single-thread run. */
    virtual Expected computeExpected() const = 0;

    /** One timed iteration; counts its output checks into @p checks. */
    virtual void runOnce(const Expected &expected, Checks &checks) = 0;

    /** Updates per iteration: input branches times configurations. */
    virtual double updatesPerRun() const = 0;

    /** Threads the iteration keeps busy (simulation plus decode). */
    virtual unsigned busyThreads() const = 0;

    /** The input traces, in order (layer rows are measured on them). */
    virtual std::vector<TraceSpec> traces() const = 0;

    /**
     * Traced run: add the rows of this workload's own mechanism, after
     * runOnce() ran once. Rows it leaves out are measured by probes.
     */
    virtual void addRows(Rows &rows) = 0;

    /**
     * Serial ns per update the layer rows in @p rows account for: the
     * sum of the rows on this workload's critical path, per update.
     */
    virtual double layerSumNsPerUpdate(const Rows &rows) const = 0;
};

/** @return the workload named @p name; fatal() on an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadParams &params);

} // namespace confbench

#endif // CONFBENCH_WORKLOADS_H
