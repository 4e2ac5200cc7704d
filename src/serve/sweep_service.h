/**
 * @file
 * The sweep job service: admission control, backpressure, tenant
 * isolation, and graceful drain over SuiteRunner::runSweep.
 *
 * A SweepService owns one host-sized SweepWorkerPool and multiplexes
 * every tenant's sweep jobs over it. Jobs pass through a bounded
 * admission queue: when the queue is full, submit() sheds load by
 * throwing Error{kResource} instead of letting callers pile up
 * unbounded work — the caller-visible backpressure signal. Admitted
 * jobs are scheduled FIFO with tenant fairness: a slot picks the
 * oldest queued job among the tenants with the fewest jobs already
 * running, and a per-tenant in-flight cap keeps one tenant from
 * monopolizing every slot no matter how fast it submits.
 *
 * Isolation: each job runs under its own CancellationToken (chained
 * beneath the service token, itself chained beneath an optional
 * external token such as a SIGTERM handler's), writes telemetry to its
 * own JSONL sink, and checkpoints into its own directory. RunPolicy
 * watchdog/retry/deadline semantics apply per job. Results are
 * bit-exact with running the same spec directly through
 * SuiteRunner::runSweep — scheduling never perturbs simulation.
 *
 * Graceful drain: drain() stops admission (further submits are
 * rejected and counted), then either waits for in-flight jobs
 * (kWait), cancels them (kCancel), or cancels them expecting their
 * checkpoint generations to make them resumable (kCheckpoint —
 * interrupted jobs that left generations are reported kDrained).
 * Drain joins every slot thread, merges final pool-occupancy metrics,
 * emits service_drained, and flushes the telemetry sinks; it is
 * idempotent and also runs from the destructor (kCancel), so a
 * SweepService never leaks threads.
 *
 * Accounting invariants (enforced by tests/serve/ and the chaos
 * suite): submitted == admitted + rejected, and after drain,
 * admitted == finished + failed + cancelled + drained.
 */

#ifndef CONFSIM_SERVE_SWEEP_SERVICE_H
#define CONFSIM_SERVE_SWEEP_SERVICE_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/job.h"
#include "sim/sweep_engine.h"
#include "util/cancellation.h"

namespace confsim {

class Telemetry;

/** What drain() does with queued and in-flight jobs. */
enum class DrainMode : std::uint8_t
{
    kWait = 0,   //!< run everything already admitted to completion
    kCancel,     //!< cancel queued + in-flight jobs cooperatively
    kCheckpoint, //!< cancel, reporting jobs that left resumable
                 //!< checkpoint generations as kDrained
};

/** @return "wait" / "cancel" / "checkpoint". */
inline const char *
toString(DrainMode mode)
{
    switch (mode) {
    case DrainMode::kWait: return "wait";
    case DrainMode::kCancel: return "cancel";
    case DrainMode::kCheckpoint: return "checkpoint";
    }
    return "wait";
}

/** Service sizing and wiring knobs. */
struct ServiceOptions
{
    /** Max jobs waiting in the admission queue (running jobs have
     *  left it). Submits beyond this shed with Error{kResource}. */
    std::size_t queueDepth = 16;

    /** Max jobs one tenant may have running at once (0 = no cap). */
    unsigned tenantMaxInFlight = 2;

    /** Concurrent job slots (scheduler threads; >= 1). */
    unsigned jobSlots = 2;

    /** Shared worker-pool threads (0 = one per hardware thread). */
    unsigned poolWorkers = 0;

    /**
     * Root of the per-job directories
     * (<jobDir>/<tenant>/<label>/{telemetry-<id>.jsonl, ckpt/}).
     * "" disables per-job telemetry and checkpointing (a spec
     * requesting checkpoints is then rejected at submit, kConfig).
     */
    std::string jobDir;

    /** Service-level telemetry stream (serve.* metrics, job_* events);
     *  not owned; null = off. Distinct from the per-job sinks. */
    Telemetry *telemetry = nullptr;

    /** Optional external root token (e.g. wired to SIGTERM). Must
     *  outlive the service. Cancelling it cancels every job. */
    const CancellationToken *cancel = nullptr;
};

/** Per-tenant slice of a ServiceStatus snapshot. */
struct TenantStatus
{
    std::string tenant;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    unsigned inFlight = 0; //!< running right now
    std::size_t queued = 0;
};

/** Point-in-time service counters (the live status surface). */
struct ServiceStatus
{
    std::size_t queued = 0;   //!< jobs in the admission queue
    unsigned running = 0;     //!< jobs on slots right now
    bool draining = false;

    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t finished = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t drained = 0;

    unsigned poolWorkers = 0;
    unsigned poolBusy = 0; //!< pool workers running a task right now

    std::vector<TenantStatus> tenants; //!< sorted by tenant name
};

/** The sweep job service. Construction spawns the slot threads. */
class SweepService
{
  public:
    explicit SweepService(ServiceOptions options);

    /** Drains with DrainMode::kCancel if not already drained. */
    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /**
     * Admit @p spec, returning its job id.
     *
     * @throws Error{kResource} when the admission queue is full (the
     *         load-shedding signal; counted as rejected).
     * @throws Error{kCancelled} when the service is draining or its
     *         token is cancelled (also counted as rejected).
     * @throws Error{kConfig} when the spec is unrunnable: no
     *         configurations, checkpoint/resume without a service
     *         jobDir, or a tenant+label pair that is still queued or
     *         running (labels key the per-job directory, so two live
     *         jobs must never share one). Config rejections are
     *         counted as rejected too — every submit is exactly one
     *         of admitted or rejected.
     */
    std::uint64_t submit(JobSpec spec);

    /** @return a snapshot of job @p id; throws Error{kConfig} when
     *  the id is unknown. */
    JobStatus status(std::uint64_t id) const;

    /** Block until job @p id reaches a terminal state; returns the
     *  final snapshot. Throws Error{kConfig} on unknown id. */
    JobStatus wait(std::uint64_t id);

    /**
     * Cancel one job: a queued job becomes kCancelled immediately, a
     * running job's token is cancelled and it unwinds cooperatively.
     * @return false when the job is unknown or already terminal.
     */
    bool cancelJob(std::uint64_t id);

    /** @return the live counters/queue/pool snapshot. */
    ServiceStatus serviceStatus() const;

    /**
     * Stop admitting and settle every admitted job per @p mode (see
     * DrainMode), then join the slot threads, publish final serve.*
     * metrics (including serve.pool_occupancy), emit service_drained,
     * and flush the telemetry sinks. Blocks until settled; idempotent
     * (later calls return immediately, whatever their mode).
     */
    void drain(DrainMode mode);

    /** @return true once drain() has completed. */
    bool drained() const;

  private:
    using Clock = std::chrono::steady_clock;

    /** Internal per-job record (stable address; owned by records_). */
    struct JobRecord
    {
        std::uint64_t id = 0;
        JobSpec spec;
        JobState state = JobState::kQueued;
        std::string error;
        ErrorCategory errorCategory = ErrorCategory::kInternal;
        bool checkpointed = false;
        std::string jobDir;
        std::string telemetryPath;
        Clock::time_point submitted;
        Clock::time_point started;
        Clock::time_point ended;
        std::shared_ptr<const SweepSuiteResult> result;
        /** Per-job token, chained under the service token. */
        std::unique_ptr<CancellationToken> token;
    };

    struct TenantCounters
    {
        std::uint64_t admitted = 0;
        std::uint64_t rejected = 0;
        unsigned inFlight = 0;
    };

    void slotMain();
    JobRecord *pickEligibleLocked();
    void runJob(JobRecord &job);
    void finalizeJobLocked(JobRecord &job, JobState state,
                           std::string error, ErrorCategory category);
    void emitJobEvent(const JobRecord &job, const char *type,
                      double waitMs);
    void publishGaugesLocked();
    JobStatus snapshotLocked(const JobRecord &job) const;
    void rejectLocked(const JobSpec &spec, const char *reason);

    ServiceOptions options_;
    CancellationToken serviceToken_;
    std::unique_ptr<SweepWorkerPool> pool_;
    unsigned poolWorkers_ = 0;

    mutable std::mutex mu_;
    std::condition_variable cvWork_; //!< slots: queue/tenant changes
    std::condition_variable cvDone_; //!< waiters: job transitions
    std::deque<JobRecord *> queue_;  //!< admission order (FIFO)
    std::map<std::uint64_t, std::unique_ptr<JobRecord>> records_;
    std::map<std::string, TenantCounters> tenants_;
    std::vector<std::thread> slots_;
    std::uint64_t nextId_ = 1;
    unsigned running_ = 0;
    bool draining_ = false;
    bool stopSlots_ = false;
    bool drainDone_ = false;
    DrainMode drainMode_ = DrainMode::kWait;

    std::uint64_t submitted_ = 0;
    std::uint64_t admitted_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t finished_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t cancelled_ = 0;
    std::uint64_t drained_ = 0;
};

/**
 * @return true when @p directory holds a mid-run checkpoint
 * generation — the "this job is resumable" probe the checkpoint-drain
 * path and the chaos tests share. Done-markers of finished benchmarks
 * do not count.
 */
bool hasCheckpointFiles(const std::string &directory);

/**
 * Sanitize @p name for use as a path component: [A-Za-z0-9._-] pass
 * through, everything else becomes '_', "" becomes "_". Purely
 * lexical, so equal names always map to equal directories (the
 * property label-keyed resume relies on).
 */
std::string sanitizePathComponent(const std::string &name);

} // namespace confsim

#endif // CONFSIM_SERVE_SWEEP_SERVICE_H
