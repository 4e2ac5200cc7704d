#include "obs/telemetry.h"

#include <cstdio>

namespace confsim {

Telemetry::Telemetry(TelemetryOptions options)
    : options_(std::move(options)),
      start_(std::chrono::steady_clock::now())
{
    if (!options_.jsonlPath.empty()) {
        sinks_.push_back(
            std::make_unique<JsonlTelemetrySink>(options_.jsonlPath));
    }
    if (options_.progress) {
        sinks_.push_back(std::make_unique<StderrProgressSink>(
            options_.heartbeatEveryBenchmarks));
    }
}

std::unique_ptr<Telemetry>
Telemetry::fromOptions(const TelemetryOptions &options)
{
    if (!options.enabled())
        return nullptr;
    return std::make_unique<Telemetry>(options);
}

Telemetry::~Telemetry()
{
    finish();
}

void
Telemetry::setManifest(const RunManifest &manifest)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (manifestSet_)
        return; // first manifest wins: sinks promise manifest-first
    manifestSet_ = true;
    for (auto &sink : sinks_)
        sink->writeManifest(manifest);
}

void
Telemetry::emit(TelemetryEvent event)
{
    // Stamp under the lock so sink order matches timestamp order:
    // stamping first would let a concurrent emit overtake us and
    // write a later t_ms ahead of ours, breaking the monotonic-t_ms
    // guarantee the schema validator enforces.
    std::lock_guard<std::mutex> lock(mutex_);
    event.tMs = elapsedMs();
    for (auto &sink : sinks_)
        sink->writeEvent(event);
}

double
Telemetry::elapsedMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

void
Telemetry::finish()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (finished_)
            return;
        finished_ = true;
    }
    // One flat snapshot event: counters and gauges by name, stats as
    // name.{count,mean,min,max} — greppable and schema-stable.
    TelemetryEvent snapshot_event(events::kMetricsSnapshot, {});
    const MetricsSnapshot snap = registry_.snapshot();
    for (const auto &[name, value] : snap.counters)
        snapshot_event.fields.push_back(field(name, value));
    for (const auto &[name, value] : snap.gauges)
        snapshot_event.fields.push_back(field(name, value));
    for (const auto &[name, stats] : snap.stats) {
        snapshot_event.fields.push_back(
            field(name + ".count", stats.count()));
        snapshot_event.fields.push_back(
            field(name + ".mean", stats.mean()));
        if (stats.count() > 0) {
            snapshot_event.fields.push_back(
                field(name + ".min", stats.min()));
            snapshot_event.fields.push_back(
                field(name + ".max", stats.max()));
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot_event.tMs = elapsedMs();
    for (auto &sink : sinks_) {
        // A failing sink degrades observability, never the simulation:
        // flush/close failures (ENOSPC, injected sink faults) are
        // reported to stderr and the remaining sinks still get their
        // chance to publish. close() publishes file-backed sinks
        // atomically (tmp -> rename); finish() may also run from the
        // destructor, where a failure must not escape as an exception.
        try {
            sink->writeEvent(snapshot_event);
            sink->flush();
            sink->close();
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "[confsim] telemetry sink flush/close failed: %s\n",
                         e.what());
        }
    }
}

} // namespace confsim
