/**
 * @file
 * Structured error taxonomy for the simulator.
 *
 * Every unrecoverable condition raised by library code carries an
 * ErrorCategory so callers (the suite runner's failure report, exit
 * codes, CI smoke checks) can react to the *kind* of failure instead
 * of pattern-matching message strings:
 *
 *   - kTrace       trace decode/IO failure (corrupt or truncated input)
 *   - kCheckpoint  checkpoint container/serialization failure
 *   - kResource    environment resource failure (ENOSPC, failed fsync,
 *                  unwritable paths) on checkpoints or telemetry sinks
 *   - kTimeout     cooperative wall-clock watchdog expiry
 *   - kConfig      invalid user configuration (bad flags, bad FaultPlan)
 *   - kCancelled   cooperative cancellation (fail-fast teardown, suite
 *                  deadline budget, external CancellationToken)
 *   - kInternal    simulator invariant violation / unclassified failure
 *
 * Error derives from std::runtime_error so every pre-taxonomy
 * `catch (const std::runtime_error &)` site keeps working unchanged.
 */

#ifndef CONFSIM_UTIL_ERROR_H
#define CONFSIM_UTIL_ERROR_H

#include <stdexcept>
#include <string>

namespace confsim {

enum class ErrorCategory : std::uint8_t {
    kTrace = 0,
    kCheckpoint,
    kResource,
    kTimeout,
    kConfig,
    kCancelled,
    kInternal,
};

/** Stable lowercase name for telemetry fields and log lines. */
inline const char *
toString(ErrorCategory category)
{
    switch (category) {
    case ErrorCategory::kTrace: return "trace";
    case ErrorCategory::kCheckpoint: return "checkpoint";
    case ErrorCategory::kResource: return "resource";
    case ErrorCategory::kTimeout: return "timeout";
    case ErrorCategory::kConfig: return "config";
    case ErrorCategory::kCancelled: return "cancelled";
    case ErrorCategory::kInternal: return "internal";
    }
    return "internal";
}

/** A categorized unrecoverable error. The what() string is the full,
 *  already-formatted message (no category prefix is prepended, so
 *  migrating a fatal() call site never changes observable text). */
class Error : public std::runtime_error
{
  public:
    Error(ErrorCategory category, const std::string &message)
        : std::runtime_error(message), category_(category)
    {}

    ErrorCategory category() const { return category_; }

  private:
    ErrorCategory category_;
};

/** Category of any exception: Error reports its own, everything else is
 *  kInternal (pre-taxonomy throw sites, standard library exceptions). */
inline ErrorCategory
categoryOf(const std::exception &e)
{
    const auto *err = dynamic_cast<const Error *>(&e);
    return err != nullptr ? err->category() : ErrorCategory::kInternal;
}

/** Categorized counterpart of fatal() in util/status.h: identical
 *  "fatal: " message text, but the thrown object carries @p category. */
[[noreturn]] inline void
fatal(ErrorCategory category, const std::string &message)
{
    throw Error(category, "fatal: " + message);
}

} // namespace confsim

#endif // CONFSIM_UTIL_ERROR_H
