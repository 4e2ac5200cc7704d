/**
 * @file
 * The structured telemetry event: a typed name, a monotonic timestamp
 * (stamped by Telemetry::emit), and an ordered list of key/value
 * fields. Events are the unit every TelemetrySink consumes, so the
 * whole simulation stack — driver, suite runner, fault injection,
 * trace recovery — reports through this one shape.
 *
 * Field values are carried pre-formatted as strings plus a kind tag,
 * which keeps the sinks trivial (JSONL quotes strings, CSV quotes
 * everything) without dragging in a variant/JSON value type. The
 * `field()` overloads do the formatting at the emission site.
 */

#ifndef CONFSIM_OBS_EVENT_H
#define CONFSIM_OBS_EVENT_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace confsim {

/** Canonical event type names (free-form types are also allowed). */
namespace events {

inline constexpr const char *kSuiteRunStarted = "suite_run_started";
inline constexpr const char *kSuiteRunFinished = "suite_run_finished";
inline constexpr const char *kBenchmarkStarted = "benchmark_started";
inline constexpr const char *kBenchmarkFinished = "benchmark_finished";
inline constexpr const char *kBenchmarkRetry = "benchmark_retry";
inline constexpr const char *kWatchdogTimeout = "watchdog_timeout";
inline constexpr const char *kFaultInjected = "fault_injected";
inline constexpr const char *kCorruptChunkSkipped =
    "corrupt_chunk_skipped";
inline constexpr const char *kMetricsSnapshot = "metrics_snapshot";
inline constexpr const char *kCheckpointWritten = "checkpoint_written";
inline constexpr const char *kCheckpointRestored =
    "checkpoint_restored";
inline constexpr const char *kCheckpointCorrupt = "checkpoint_corrupt";
inline constexpr const char *kSweepRunStarted = "sweep_run_started";
inline constexpr const char *kSweepRunFinished = "sweep_run_finished";
inline constexpr const char *kSweepConfigFinished =
    "sweep_config_finished";
inline constexpr const char *kSweepConfigFailed = "sweep_config_failed";
inline constexpr const char *kCheckpointWriteFailed =
    "checkpoint_write_failed";
inline constexpr const char *kBranchProfileWritten =
    "branch_profile_written";
inline constexpr const char *kSamplingRunFinished =
    "sampling_run_finished";

} // namespace events

/** One key/value pair of an event. */
struct EventField
{
    /** How the value should be rendered by typed sinks (JSON). */
    enum class Kind : std::uint8_t
    {
        kString,
        kNumber, //!< integer or double, already formatted
        kBool,
    };

    std::string key;
    std::string value;
    Kind kind = Kind::kString;

    /** @return the value as a JSON token (quoted iff a string). */
    std::string
    jsonValue() const
    {
        return kind == Kind::kString ? jsonString(value) : value;
    }
};

/** Build a string field. */
inline EventField
field(std::string key, std::string value)
{
    return {std::move(key), std::move(value),
            EventField::Kind::kString};
}

inline EventField
field(std::string key, const char *value)
{
    return field(std::move(key), std::string(value));
}

/** Build an unsigned integer field. */
inline EventField
field(std::string key, std::uint64_t value)
{
    return {std::move(key), std::to_string(value),
            EventField::Kind::kNumber};
}

/** Build a double field. */
inline EventField
field(std::string key, double value)
{
    return {std::move(key), jsonNumber(value),
            EventField::Kind::kNumber};
}

/** Build a boolean field. */
inline EventField
field(std::string key, bool value)
{
    return {std::move(key), value ? "true" : "false",
            EventField::Kind::kBool};
}

/** A structured telemetry event. */
struct TelemetryEvent
{
    std::string type;
    /** Milliseconds since Telemetry construction (set by emit()). */
    double tMs = 0.0;
    std::vector<EventField> fields;

    TelemetryEvent() = default;

    TelemetryEvent(std::string type_, std::vector<EventField> fields_)
        : type(std::move(type_)), fields(std::move(fields_))
    {}

    /** @return the field value for @p key, or "" when absent. */
    const std::string &
    fieldValue(const std::string &key) const
    {
        static const std::string kEmpty;
        for (const auto &f : fields) {
            if (f.key == key)
                return f.value;
        }
        return kEmpty;
    }

    /** @return this event as one JSON object (no trailing newline). */
    std::string
    toJson() const
    {
        std::string out = "{\"type\":" + jsonString(type) +
                          ",\"t_ms\":" + jsonNumber(tMs);
        for (const auto &f : fields)
            out += "," + jsonString(f.key) + ":" + f.jsonValue();
        out += "}";
        return out;
    }
};

} // namespace confsim

#endif // CONFSIM_OBS_EVENT_H
