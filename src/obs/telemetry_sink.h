/**
 * @file
 * Telemetry output backends. A TelemetrySink consumes the structured
 * event stream (obs/event.h) plus one leading RunManifest; the
 * implementations here cover the two consumers a simulation campaign
 * has:
 *
 *  - JsonlTelemetrySink — machine-readable event log, one JSON object
 *    per line, manifest first. The format CI validates
 *    (scripts/validate_telemetry.py).
 *  - StderrProgressSink — human heartbeat for long suite runs: one
 *    stderr line every N finished benchmarks, counted per suite run
 *    from its suite_run_started event, plus watchdog notices.
 *
 * Sinks are driven by Telemetry (obs/telemetry.h), which serializes
 * calls, so implementations need no locking of their own.
 */

#ifndef CONFSIM_OBS_TELEMETRY_SINK_H
#define CONFSIM_OBS_TELEMETRY_SINK_H

#include <memory>
#include <string>

#include "obs/event.h"
#include "obs/run_manifest.h"
#include "util/atomic_file.h"

namespace confsim {

/** Abstract consumer of one telemetry stream. */
class TelemetrySink
{
  public:
    virtual ~TelemetrySink() = default;

    /** Called once, before any event. */
    virtual void writeManifest(const RunManifest &manifest) = 0;

    /** Called for every emitted event, in emission order. */
    virtual void writeEvent(const TelemetryEvent &event) = 0;

    /** Flush buffered output (end of run). */
    virtual void flush() {}

    /**
     * Finalize the output (end of stream). File-backed sinks write
     * through a `.tmp` sibling and atomically publish it here, so a
     * crashed run leaves either the previous complete file or nothing
     * under the final name — never a truncated log. Called once by
     * Telemetry::finish(); events arriving after close() are dropped.
     */
    virtual void close() {}
};

/**
 * JSON-lines sink: manifest object first, then one object per event.
 * close() publishes the file only if it received its manifest, and
 * otherwise abandons the `.tmp`: a log without its manifest is not a
 * telemetry file.
 */
class JsonlTelemetrySink : public TelemetrySink
{
  public:
    /** Open the `.tmp` sibling of @p path; calls fatal() on failure. */
    explicit JsonlTelemetrySink(const std::string &path);

    void writeManifest(const RunManifest &manifest) override;
    void writeEvent(const TelemetryEvent &event) override;
    void flush() override;
    void close() override;

  private:
    AtomicFileWriter out_;
    bool hasManifest_ = false;
};

/** Heartbeat sink for interactive/long runs; writes to stderr. */
class StderrProgressSink : public TelemetrySink
{
  public:
    /** @param every_benchmarks Heartbeat period in finished benchmarks. */
    explicit StderrProgressSink(unsigned every_benchmarks = 1);

    void writeManifest(const RunManifest &manifest) override;
    void writeEvent(const TelemetryEvent &event) override;

  private:
    unsigned every_;
    unsigned finished_ = 0;
    std::size_t total_ = 0;
};

} // namespace confsim

#endif // CONFSIM_OBS_TELEMETRY_SINK_H
