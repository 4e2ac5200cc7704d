/**
 * @file
 * A process-local registry of named metrics: monotonic counters,
 * last-value gauges, streaming statistics (util/running_stats.h
 * Welford accumulators), and fixed-bucket histograms. The registry is
 * the aggregation point of the telemetry layer: hot paths accumulate
 * into *local* RunningStats (lock-free) and merge them in at the end
 * of a run, while coarse-grained call sites (suite runner, examples)
 * record directly through the mutex-protected API.
 *
 * ScopedTimer is the RAII phase timer: construct it around a phase and
 * its wall time lands in a named stat when it goes out of scope.
 */

#ifndef CONFSIM_OBS_METRICS_REGISTRY_H
#define CONFSIM_OBS_METRICS_REGISTRY_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/running_stats.h"

namespace confsim {

/**
 * A point-in-time copy of everything a registry holds.
 *
 * Ordering contract: every vector — counters, gauges, stats, *and*
 * histograms — is sorted by name, ascending, byte-wise
 * (std::string::operator<). snapshot() builds each from a std::map
 * walk, so consumers (the metrics_snapshot telemetry event, CSV
 * exports, tests diffing two snapshots) may rely on deterministic,
 * insertion-order-independent output. Pinned by
 * `MetricsRegistryTest.SnapshotIsNameSortedIncludingHistograms`.
 */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, RunningStats>> stats;
    std::vector<std::pair<std::string, Histogram>> histograms;
};

/**
 * Thread-safe named-metric store. Names are free-form but the
 * convention is dotted lowercase paths ("suite.bench_wall_ms",
 * "sweep.branches").
 */
class MetricsRegistry
{
  public:
    /** Add @p delta to counter @p name (created at 0 on first use). */
    void increment(const std::string &name, std::uint64_t delta = 1);

    /** Set gauge @p name to @p value (created on first use). */
    void setGauge(const std::string &name, double value);

    /** Record one observation into stat @p name. */
    void observe(const std::string &name, double value);

    /** Merge a locally accumulated RunningStats into stat @p name. */
    void mergeStats(const std::string &name, const RunningStats &other);

    /**
     * Record one observation into histogram @p name, created with the
     * given shape on first use (the shape of an existing histogram is
     * not changed by later calls).
     */
    void observeHistogram(const std::string &name, double value,
                          double lo, double hi, std::size_t bins);

    /** @return counter value (0 when absent). */
    std::uint64_t counter(const std::string &name) const;

    /** @return gauge value (0.0 when absent). */
    double gauge(const std::string &name) const;

    /** @return a copy of stat @p name (empty stats when absent). */
    RunningStats stats(const std::string &name) const;

    /** @return a deterministic (name-sorted) copy of everything. */
    MetricsSnapshot snapshot() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, RunningStats> stats_;
    std::map<std::string, Histogram> histograms_;
};

/**
 * RAII wall-clock phase timer: records elapsed milliseconds into
 * registry stat @p name on destruction (or at stop()).
 */
class ScopedTimer
{
  public:
    /** Start timing; @p registry may be null (timer becomes a no-op). */
    ScopedTimer(MetricsRegistry *registry, std::string name)
        : registry_(registry), name_(std::move(name)),
          start_(std::chrono::steady_clock::now())
    {}

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    /** Record now instead of at scope exit. Idempotent. */
    double
    stop()
    {
        if (stopped_)
            return elapsedMs_;
        stopped_ = true;
        elapsedMs_ = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
        if (registry_ != nullptr)
            registry_->observe(name_, elapsedMs_);
        return elapsedMs_;
    }

    ~ScopedTimer() { stop(); }

  private:
    MetricsRegistry *registry_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    bool stopped_ = false;
    double elapsedMs_ = 0.0;
};

} // namespace confsim

#endif // CONFSIM_OBS_METRICS_REGISTRY_H
