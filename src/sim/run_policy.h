/**
 * @file
 * Fault-tolerance policy for suite-level runs.
 *
 * Large simulation campaigns live or die on being able to lose
 * individual benchmarks without invalidating — or re-running — the
 * whole campaign (cf. Ekman's sampling-methodology papers). RunPolicy
 * selects how SuiteRunner reacts when one benchmark task fails:
 * fail-fast (the default: the whole run throws, as before) or
 * continue-on-error (the failed benchmark is marked, survivors
 * composite, and the result carries a `degraded` flag). Bounded
 * per-benchmark retries cover transient failures, and a per-benchmark
 * wall-clock watchdog turns a hung benchmark into a failed one instead
 * of wedging the pool.
 */

#ifndef CONFSIM_SIM_RUN_POLICY_H
#define CONFSIM_SIM_RUN_POLICY_H

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/cancellation.h"
#include "util/error.h"

namespace confsim {

/** What a benchmark failure does to the rest of the suite run. */
enum class ErrorMode : std::uint8_t
{
    kFailFast = 0,      //!< first failure aborts the whole run (throws)
    kContinueOnError = 1 //!< mark the benchmark failed; run the rest
};

/**
 * Checkpoint/resume knobs for a suite run (see src/ckpt/). Enabled by
 * giving a directory; each benchmark then gets its own generation-
 * rotating CheckpointStore under it (label = benchmark name), the
 * sweep engine writes a checkpoint at the first batch boundary past
 * every `everyBranches` conditional branches, and a completed
 * benchmark leaves a done-marker holding every configuration's
 * result. With `resume` set, SuiteRunner loads finished
 * benchmarks from their done-markers and restarts interrupted ones
 * from their newest intact generation (falling back one generation per
 * corrupt file).
 */
struct CheckpointPolicy
{
    /** Checkpoint directory; "" disables the whole feature. */
    std::string directory;

    /** Conditional branches between mid-run checkpoints (0 = only
     * the completion marker is written). */
    std::uint64_t everyBranches = 250'000;

    /** Recover prior progress from `directory` before simulating. */
    bool resume = false;

    /** Mid-run generations retained per benchmark (newest kept). */
    unsigned keepGenerations = 2;

    /** @return true iff checkpointing is configured. */
    bool
    enabled() const
    {
        return !directory.empty();
    }
};

/** Per-suite-run fault-tolerance knobs. */
struct RunPolicy
{
    ErrorMode errorMode = ErrorMode::kFailFast;

    /** Checkpoint/resume configuration (disabled by default). */
    CheckpointPolicy checkpoint;

    /**
     * Total attempts per benchmark (>= 1). Retries target transient
     * failures (e.g. I/O races); a deterministic failure simply fails
     * identically each attempt. Watchdog timeouts are never retried —
     * a benchmark that blew its budget once would blow it again.
     */
    unsigned maxAttempts = 1;

    /**
     * Per-benchmark wall-clock budget in milliseconds (0 = none). The
     * replay kernel checks the deadline cooperatively in its record loop,
     * so the hung-benchmark thread unwinds cleanly rather than being
     * abandoned. The watchdog never fires on a benchmark that
     * finishes in time, so enabling it does not perturb results.
     */
    std::uint64_t watchdogMs = 0;

    /**
     * Base delay for exponential retry backoff in milliseconds
     * (0 = retry immediately, the pre-backoff behavior). Attempt k
     * sleeps ~retryBackoffMs * 2^(k-1), with deterministic ±25% jitter
     * seeded from the benchmark name so concurrent retries decorrelate
     * without making runs irreproducible. Retries are category-aware:
     * errors whose Error::retryable() is false (timeout, cancellation,
     * bad configuration) fail immediately regardless of maxAttempts.
     */
    std::uint64_t retryBackoffMs = 0;

    /**
     * Suite-level wall-clock budget in milliseconds (0 = none). Once
     * exhausted, in-flight benchmarks are cancelled cooperatively, no
     * further benchmarks or retries start, and the unrun benchmarks
     * are marked failed/cancelled (continue-on-error) or the run
     * throws (fail-fast). Per-benchmark watchdog budgets are clipped
     * to the remaining suite budget.
     */
    std::uint64_t deadlineMs = 0;

    /**
     * Optional external cancellation. When set, the suite runner (and
     * every sweep pass it starts) polls the token cooperatively and
     * unwinds with Error{kCancelled} after cancel(). The token must
     * outlive the run. Owned by the caller; never cancelled by the
     * library.
     */
    const CancellationToken *cancel = nullptr;

    /** The default: any benchmark failure aborts the run. */
    static RunPolicy
    failFast()
    {
        return {};
    }

    /** Isolate failures; composite over the surviving benchmarks. */
    static RunPolicy
    continueOnError()
    {
        RunPolicy policy;
        policy.errorMode = ErrorMode::kContinueOnError;
        return policy;
    }
};

/**
 * Thrown by the replay guard (sim/replay_kernel.h) when a run exceeds
 * its wall-clock budget (DriverOptions::wallClockLimitMs). A distinct type
 * so SuiteRunner can exempt timeouts from retry; an Error with
 * category kTimeout so policy code can also dispatch on the taxonomy.
 */
class WatchdogTimeout : public Error
{
  public:
    explicit WatchdogTimeout(const std::string &message)
        : Error(ErrorCategory::kTimeout, message)
    {}
};

} // namespace confsim

#endif // CONFSIM_SIM_RUN_POLICY_H
