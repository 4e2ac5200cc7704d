/**
 * @file
 * The telemetry context: one object owning the metrics registry, the
 * configured sinks, and the run clock. Simulation code takes a
 * `Telemetry *` (null = telemetry off) and calls emit(); the whole
 * feature costs a branch on a null pointer when disabled, which is the
 * contract that lets the hot simulation loop carry the hook
 * unconditionally.
 *
 * Thread-safety: emit() and the registry are safe to call from
 * concurrent benchmark workers; events are serialized into the sinks
 * in emission order.
 */

#ifndef CONFSIM_OBS_TELEMETRY_H
#define CONFSIM_OBS_TELEMETRY_H

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/run_manifest.h"
#include "obs/telemetry_sink.h"

namespace confsim {

/** User-facing telemetry knobs (CLI surface: --telemetry/--progress). */
struct TelemetryOptions
{
    std::string jsonlPath; //!< "" = no JSONL sink
    bool progress = false; //!< stderr heartbeat sink

    /** Heartbeat period, in finished benchmarks. */
    unsigned heartbeatEveryBenchmarks = 1;

    /** @return true iff any sink is configured. */
    bool
    enabled() const
    {
        return !jsonlPath.empty() || progress;
    }
};

/** Owns sinks + registry; the handle simulation code emits through. */
class Telemetry
{
  public:
    /** Construct with the sinks @p options selects (may be none). */
    explicit Telemetry(TelemetryOptions options);

    /**
     * @return a telemetry context, or null when @p options enables no
     * sink — so call sites can pass the result straight into
     * DriverOptions::telemetry and keep the disabled path free.
     */
    static std::unique_ptr<Telemetry>
    fromOptions(const TelemetryOptions &options);

    ~Telemetry();

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    /**
     * Write the manifest to every sink, before any events. The first
     * manifest wins: later calls are ignored, so a binary that runs
     * several experiments over one telemetry stream keeps a single
     * well-formed manifest-first file.
     */
    void setManifest(const RunManifest &manifest);

    /** Stamp @p event with the run clock and fan it to the sinks. */
    void emit(TelemetryEvent event);

    /** @return the shared metrics registry. */
    MetricsRegistry &registry() { return registry_; }

    /** @return milliseconds since construction (monotonic). */
    double elapsedMs() const;

    /** @return the options this context was built with. */
    const TelemetryOptions &options() const { return options_; }

    /**
     * Emit a metrics_snapshot event from the registry and flush all
     * sinks. Idempotent; also invoked by the destructor so a telemetry
     * file is complete even on early exit. A JSONL file is published
     * only if setManifest() ran: a run that failed before its manifest
     * leaves no file rather than one that is not manifest-first.
     */
    void finish();

  private:
    TelemetryOptions options_;
    MetricsRegistry registry_;
    std::vector<std::unique_ptr<TelemetrySink>> sinks_;
    std::chrono::steady_clock::time_point start_;
    std::mutex mutex_;
    bool manifestSet_ = false;
    bool finished_ = false;
};

} // namespace confsim

#endif // CONFSIM_OBS_TELEMETRY_H
