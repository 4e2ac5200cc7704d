#include "obs/telemetry_sink.h"

#include <cstdio>
#include <cstdlib>

#include "fault/fault_plan.h"
#include "util/status.h"
#include "util/string_utils.h"

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
    out_.commit();
}

// ---------------------------------------------------------------------
// CSV (long format)

namespace {

/** RFC-4180 cell quoting, same rule as util/csv.cc. */
std::string
csvCell(const std::string &cell)
{
    if (cell.find_first_of(",\"\n\r") == std::string::npos)
        return cell;
    std::string quoted = "\"";
    for (const char c : cell) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

} // namespace

CsvTelemetrySink::CsvTelemetrySink(const std::string &path)
    : out_(path)
{
    out_.stream() << "t_ms,type,key,value\n";
}

void
CsvTelemetrySink::row(double t_ms, const std::string &type,
                      const std::string &key, const std::string &value)
{
    out_.stream() << formatFixed(t_ms, 3) << ',' << csvCell(type)
                  << ',' << csvCell(key) << ',' << csvCell(value)
                  << '\n';
}

void
CsvTelemetrySink::writeManifest(const RunManifest &manifest)
{
    row(0.0, "manifest", "schema", manifest.schema);
    row(0.0, "manifest", "tool", manifest.tool);
    row(0.0, "manifest", "suite", manifest.suite);
    for (const auto &bench : manifest.benchmarks) {
        row(0.0, "manifest", "benchmark",
            bench.name + ":seed=" + std::to_string(bench.seed) +
                ":branches=" + std::to_string(bench.branches) +
                ":crc=" + std::to_string(bench.traceChecksum));
    }
    row(0.0, "manifest", "predictor", manifest.predictor);
    for (const auto &estimator : manifest.estimators)
        row(0.0, "manifest", "estimator", estimator);
    row(0.0, "manifest", "build_type", manifest.buildType);
    row(0.0, "manifest", "compiler", manifest.compiler);
}

void
CsvTelemetrySink::writeEvent(const TelemetryEvent &event)
{
    if (event.fields.empty()) {
        row(event.tMs, event.type, "", "");
        return;
    }
    for (const auto &f : event.fields)
        row(event.tMs, event.type, f.key, f.value);
}

void
CsvTelemetrySink::flush()
{
    FaultInjector &injector = FaultInjector::instance();
    if (injector.armed())
        injector.fire(FaultSite::kSinkFlush, out_.path());
    out_.stream().flush();
}

void
CsvTelemetrySink::close()
{
    out_.commit();
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
                     "%s ms, %s attempt(s)%s)\n",
                     finished_, total_,
                     event.fieldValue("benchmark").c_str(),
                     event.fieldValue("wall_ms").c_str(),
                     event.fieldValue("attempts").c_str(),
                     failed ? ", FAILED" : "");
    } else if (event.type == events::kBenchmarkRetry) {
        std::fprintf(stderr, "[confsim] retrying %s (attempt %s): %s\n",
                     event.fieldValue("benchmark").c_str(),
                     event.fieldValue("attempt").c_str(),
                     event.fieldValue("error").c_str());
    } else if (event.type == events::kWatchdogTimeout) {
        std::fprintf(stderr, "[confsim] watchdog timeout in %s: %s\n",
                     event.fieldValue("benchmark").c_str(),
                     event.fieldValue("error").c_str());
    } else if (event.type == events::kSuiteRunFinished) {
        std::fprintf(stderr,
                     "[confsim] suite finished in %s ms "
                     "(degraded=%s, failed=%s)\n",
                     event.fieldValue("wall_ms").c_str(),
                     event.fieldValue("degraded").c_str(),
                     event.fieldValue("failed_benchmarks").c_str());
    }
}

} // namespace confsim
