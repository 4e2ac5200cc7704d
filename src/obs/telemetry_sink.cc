#include "obs/telemetry_sink.h"

#include <cstdio>
#include <cstdlib>

#include "fault/fault_plan.h"

namespace confsim {

// ---------------------------------------------------------------------
// JSONL

JsonlTelemetrySink::JsonlTelemetrySink(const std::string &path)
    : out_(path)
{}

void
JsonlTelemetrySink::writeManifest(const RunManifest &manifest)
{
    out_.stream() << manifest.toJson() << '\n';
    hasManifest_ = true;
}

void
JsonlTelemetrySink::writeEvent(const TelemetryEvent &event)
{
    out_.stream() << event.toJson() << '\n';
}

void
JsonlTelemetrySink::flush()
{
    FaultInjector &injector = FaultInjector::instance();
    if (injector.armed())
        injector.fire(FaultSite::kSinkFlush, out_.path());
    out_.stream().flush();
}

void
JsonlTelemetrySink::close()
{
    if (hasManifest_)
        out_.commit();
    else
        out_.abandon();
}

// ---------------------------------------------------------------------
// stderr heartbeat

StderrProgressSink::StderrProgressSink(unsigned every_benchmarks)
    : every_(every_benchmarks == 0 ? 1 : every_benchmarks)
{}

void
StderrProgressSink::writeManifest(const RunManifest &manifest)
{
    std::fprintf(stderr, "[confsim] %s: suite '%s', %zu benchmark(s)\n",
                 manifest.tool.c_str(), manifest.suite.c_str(),
                 manifest.benchmarks.size());
}

void
StderrProgressSink::writeEvent(const TelemetryEvent &event)
{
    if (event.type == events::kSuiteRunStarted) {
        // One process may run several suites; each counts its own.
        finished_ = 0;
        total_ = std::strtoull(event.fieldValue("benchmarks").c_str(),
                               nullptr, 10);
    } else if (event.type == events::kBenchmarkFinished) {
        ++finished_;
        if (finished_ % every_ != 0 && finished_ != total_)
            return;
        const bool failed = event.fieldValue("error") != "";
        std::fprintf(stderr,
                     "[confsim] %u/%zu benchmarks done (last: %s, "
                     "%s ms%s)\n",
                     finished_, total_,
                     event.fieldValue("benchmark").c_str(),
                     event.fieldValue("wall_ms").c_str(),
                     failed ? ", FAILED" : "");
    } else if (event.type == events::kWatchdogTimeout) {
        std::fprintf(stderr, "[confsim] watchdog timeout in %s: %s\n",
                     event.fieldValue("benchmark").c_str(),
                     event.fieldValue("error").c_str());
    } else if (event.type == events::kSuiteRunFinished) {
        std::fprintf(stderr,
                     "[confsim] suite finished in %s ms (failed=%s)\n",
                     event.fieldValue("wall_ms").c_str(),
                     event.fieldValue("failed_benchmarks").c_str());
    }
}

} // namespace confsim
