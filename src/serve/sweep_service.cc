#include "serve/sweep_service.h"

#include <algorithm>
#include <filesystem>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>

#include "obs/event.h"
#include "obs/run_manifest.h"
#include "obs/telemetry.h"
#include "workload/suite.h"

namespace confsim {

namespace fs = std::filesystem;

namespace {

double
elapsedMs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

} // namespace

bool
hasCheckpointFiles(const std::string &directory)
{
    std::error_code ec;
    fs::directory_iterator it(directory, ec);
    if (ec)
        return false;
    // Mid-run generations are named <label>.g<n>.ckpt; a finished
    // benchmark's <label>.done.ckpt marker is not resumable progress.
    for (const auto &entry : it) {
        if (entry.is_regular_file(ec) &&
            entry.path().extension() == ".ckpt" &&
            entry.path().stem().extension().string().rfind(".g", 0) == 0)
            return true;
    }
    return false;
}

std::string
sanitizePathComponent(const std::string &name)
{
    if (name.empty())
        return "_";
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        out.push_back(ok ? c : '_');
    }
    return out;
}

SweepService::SweepService(ServiceOptions options)
    : options_(std::move(options)), serviceToken_(options_.cancel)
{
    if (options_.jobSlots == 0)
        options_.jobSlots = 1;
    poolWorkers_ = options_.poolWorkers != 0
                       ? options_.poolWorkers
                       : std::max(1u,
                                  std::thread::hardware_concurrency());
    pool_ = std::make_unique<SweepWorkerPool>(poolWorkers_);

    if (options_.telemetry != nullptr) {
        RunManifest manifest = RunManifest::withBuildInfo();
        manifest.tool = "sweep_service";
        manifest.suite = "service";
        options_.telemetry->setManifest(manifest);
        auto &registry = options_.telemetry->registry();
        registry.setGauge("serve.pool_workers",
                          static_cast<double>(poolWorkers_));
        registry.setGauge("serve.job_slots",
                          static_cast<double>(options_.jobSlots));
        registry.setGauge("serve.queue_limit",
                          static_cast<double>(options_.queueDepth));
    }

    slots_.reserve(options_.jobSlots);
    for (unsigned i = 0; i < options_.jobSlots; ++i)
        slots_.emplace_back([this] { slotMain(); });
}

SweepService::~SweepService()
{
    drain(DrainMode::kCancel);
}

void
SweepService::publishGaugesLocked()
{
    if (options_.telemetry == nullptr)
        return;
    auto &registry = options_.telemetry->registry();
    registry.setGauge("serve.queue_depth",
                      static_cast<double>(queue_.size()));
    registry.setGauge("serve.in_flight",
                      static_cast<double>(running_));
    for (const auto &[tenant, counters] : tenants_) {
        registry.setGauge("serve.tenant." +
                              sanitizePathComponent(tenant) +
                              ".in_flight",
                          static_cast<double>(counters.inFlight));
    }
}

void
SweepService::emitJobEvent(const JobRecord &job, const char *type,
                           double waitMs)
{
    if (options_.telemetry == nullptr)
        return;
    const std::string_view kind(type);
    TelemetryEvent event(type,
                         {field("job", job.id),
                          field("tenant", job.spec.tenant),
                          field("label", job.spec.label)});
    if (kind == events::kJobAdmitted) {
        event.fields.push_back(
            field("queue_depth",
                  static_cast<std::uint64_t>(queue_.size())));
    } else if (kind == events::kJobStarted) {
        event.fields.push_back(field("queue_ms", waitMs));
    } else if (kind == events::kJobFinished) {
        event.fields.push_back(field("run_ms", waitMs));
        event.fields.push_back(field(
            "configs",
            static_cast<std::uint64_t>(job.spec.configs.size())));
        event.fields.push_back(field(
            "degraded",
            job.result != nullptr && job.result->degraded()));
    } else if (kind == events::kJobFailed) {
        event.fields.push_back(field("state", toString(job.state)));
        event.fields.push_back(field("error", job.error));
        event.fields.push_back(
            field("category", toString(job.errorCategory)));
        event.fields.push_back(
            field("checkpointed", job.checkpointed));
    }
    options_.telemetry->emit(std::move(event));
}

void
SweepService::rejectLocked(const JobSpec &spec, const char *reason)
{
    ++rejected_;
    ++tenants_[spec.tenant].rejected;
    ErrorCategory category = ErrorCategory::kConfig;
    std::string message;
    if (std::string(reason) == "queue_full") {
        category = ErrorCategory::kResource;
        message = "sweep service queue is full (depth " +
                  std::to_string(options_.queueDepth) +
                  "); job rejected";
    } else if (std::string(reason) == "draining") {
        category = ErrorCategory::kCancelled;
        message = "sweep service is draining; job rejected";
    } else if (std::string(reason) == "no_configs") {
        message = "job has no sweep configurations";
    } else if (std::string(reason) == "no_job_dir") {
        message = "job requests checkpoint/resume but the service "
                  "has no job directory";
    } else {
        message = "a job with tenant '" + spec.tenant +
                  "' and label '" + spec.label +
                  "' is already queued or running";
    }
    if (options_.telemetry != nullptr) {
        options_.telemetry->registry().increment(
            "serve.jobs_rejected");
        options_.telemetry->emit(TelemetryEvent(
            events::kJobRejected,
            {field("tenant", spec.tenant),
             field("label", spec.label), field("reason", reason),
             field("category", toString(category))}));
    }
    publishGaugesLocked();
    throw Error(category, message);
}

std::uint64_t
SweepService::submit(JobSpec spec)
{
    std::unique_lock<std::mutex> lk(mu_);
    ++submitted_;
    if (spec.label.empty())
        spec.label = "job-" + std::to_string(nextId_);
    if (draining_ || serviceToken_.cancelled())
        rejectLocked(spec, "draining");
    if (queue_.size() >= options_.queueDepth)
        rejectLocked(spec, "queue_full");
    if (spec.configs.empty())
        rejectLocked(spec, "no_configs");
    if ((spec.checkpoint || spec.resume) && options_.jobDir.empty())
        rejectLocked(spec, "no_job_dir");
    for (const auto &[id, record] : records_) {
        if (!isTerminal(record->state) &&
            record->spec.tenant == spec.tenant &&
            record->spec.label == spec.label)
            rejectLocked(spec, "duplicate_label");
    }

    const std::uint64_t id = nextId_++;
    auto record = std::make_unique<JobRecord>();
    record->id = id;
    record->spec = std::move(spec);
    record->submitted = Clock::now();
    record->token =
        std::make_unique<CancellationToken>(&serviceToken_);
    if (!options_.jobDir.empty()) {
        record->jobDir =
            options_.jobDir + "/" +
            sanitizePathComponent(record->spec.tenant) + "/" +
            sanitizePathComponent(record->spec.label);
        record->telemetryPath = record->jobDir + "/telemetry-" +
                                std::to_string(id) + ".jsonl";
    }
    JobRecord *raw = record.get();
    records_.emplace(id, std::move(record));
    queue_.push_back(raw);
    ++admitted_;
    ++tenants_[raw->spec.tenant].admitted;
    if (options_.telemetry != nullptr)
        options_.telemetry->registry().increment(
            "serve.jobs_admitted");
    emitJobEvent(*raw, events::kJobAdmitted, 0.0);
    publishGaugesLocked();
    cvWork_.notify_one();
    return id;
}

SweepService::JobRecord *
SweepService::pickEligibleLocked()
{
    JobRecord *best = nullptr;
    unsigned bestInFlight = 0;
    for (JobRecord *job : queue_) {
        const unsigned inFlight = tenants_[job->spec.tenant].inFlight;
        if (options_.tenantMaxInFlight != 0 &&
            inFlight >= options_.tenantMaxInFlight)
            continue;
        // Queue order is FIFO, so the first job seen at the lowest
        // tenant occupancy is both the fairest and the oldest pick.
        if (best == nullptr || inFlight < bestInFlight) {
            best = job;
            bestInFlight = inFlight;
        }
    }
    return best;
}

void
SweepService::slotMain()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        JobRecord *job = nullptr;
        cvWork_.wait(lk, [&] {
            job = pickEligibleLocked();
            return job != nullptr || stopSlots_;
        });
        if (job == nullptr)
            return;
        queue_.erase(std::find(queue_.begin(), queue_.end(), job));
        job->state = JobState::kRunning;
        job->started = Clock::now();
        ++running_;
        ++tenants_[job->spec.tenant].inFlight;
        publishGaugesLocked();
        emitJobEvent(*job, events::kJobStarted,
                     elapsedMs(job->submitted, job->started));
        lk.unlock();
        runJob(*job);
        lk.lock();
    }
}

void
SweepService::runJob(JobRecord &job)
{
    const JobSpec &spec = job.spec;
    JobState final = JobState::kFinished;
    std::string error;
    ErrorCategory category = ErrorCategory::kInternal;
    std::shared_ptr<const SweepSuiteResult> result;
    std::unique_ptr<Telemetry> jobTelemetry;
    try {
        if (!job.jobDir.empty()) {
            fs::create_directories(job.jobDir);
            TelemetryOptions jobSink;
            jobSink.jsonlPath = job.telemetryPath;
            jobTelemetry = Telemetry::fromOptions(jobSink);
            RunManifest manifest = RunManifest::withBuildInfo();
            manifest.tool = "sweep_service job " + spec.label;
            manifest.suite = spec.benchmarks.empty()
                                 ? "ibs-small"
                                 : "ibs-subset";
            jobTelemetry->setManifest(manifest);
        }

        BenchmarkSuite suite =
            spec.benchmarks.empty()
                ? BenchmarkSuite::ibsSmall(spec.branches)
                : BenchmarkSuite::ibsSubset(spec.benchmarks,
                                            spec.branches);
        SuiteRunner runner(std::move(suite));
        if (spec.wrapSource)
            runner.setSourceWrapper(spec.wrapSource);

        DriverOptions driver = spec.driver;
        driver.telemetry = jobTelemetry.get();
        driver.cancel = nullptr; // the policy token governs

        RunPolicy policy = spec.policy;
        policy.cancel = job.token.get();
        policy.checkpoint = CheckpointPolicy{};
        if (spec.checkpoint || spec.resume) {
            policy.checkpoint.directory = job.jobDir + "/ckpt";
            policy.checkpoint.everyBranches = spec.checkpointEvery;
            policy.checkpoint.resume = spec.resume;
        }

        SweepOptions sweep = spec.sweep;
        sweep.pool = pool_.get();

        result = std::make_shared<const SweepSuiteResult>(
            runner.runSweep(spec.configs, driver, sweep, policy));
    } catch (const std::exception &e) {
        error = e.what();
        category = categoryOf(e);
        final = category == ErrorCategory::kCancelled
                    ? JobState::kCancelled
                    : JobState::kFailed;
    }
    if (jobTelemetry != nullptr)
        jobTelemetry->finish();
    const bool checkpointed =
        !job.jobDir.empty() &&
        hasCheckpointFiles(job.jobDir + "/ckpt");

    std::lock_guard<std::mutex> lk(mu_);
    if (final == JobState::kCancelled && draining_ &&
        drainMode_ == DrainMode::kCheckpoint && checkpointed)
        final = JobState::kDrained;
    job.checkpointed = checkpointed;
    job.result = std::move(result);
    --running_;
    --tenants_[spec.tenant].inFlight;
    finalizeJobLocked(job, final, std::move(error), category);
}

void
SweepService::finalizeJobLocked(JobRecord &job, JobState state,
                                std::string error,
                                ErrorCategory category)
{
    job.state = state;
    job.error = std::move(error);
    job.errorCategory = category;
    job.ended = Clock::now();
    const char *counterName = "serve.jobs_finished";
    switch (state) {
    case JobState::kFinished:
        ++finished_;
        break;
    case JobState::kFailed:
        ++failed_;
        counterName = "serve.jobs_failed";
        break;
    case JobState::kCancelled:
        ++cancelled_;
        counterName = "serve.jobs_cancelled";
        break;
    case JobState::kDrained:
        ++drained_;
        counterName = "serve.jobs_drained";
        break;
    default:
        break;
    }
    if (options_.telemetry != nullptr)
        options_.telemetry->registry().increment(counterName);
    if (state == JobState::kFinished) {
        emitJobEvent(job, events::kJobFinished,
                     elapsedMs(job.started, job.ended));
    } else {
        emitJobEvent(job, events::kJobFailed, 0.0);
    }
    publishGaugesLocked();
    cvDone_.notify_all();
    cvWork_.notify_all();
}

JobStatus
SweepService::snapshotLocked(const JobRecord &job) const
{
    JobStatus status;
    status.id = job.id;
    status.tenant = job.spec.tenant;
    status.label = job.spec.label;
    status.state = job.state;
    status.error = job.error;
    status.errorCategory = job.errorCategory;
    status.checkpointed = job.checkpointed;
    status.jobDir = job.jobDir;
    status.telemetryPath = job.telemetryPath;
    status.result = job.result;
    const auto now = Clock::now();
    switch (job.state) {
    case JobState::kQueued:
        status.queueMs = elapsedMs(job.submitted, now);
        break;
    case JobState::kRunning:
        status.queueMs = elapsedMs(job.submitted, job.started);
        status.runMs = elapsedMs(job.started, now);
        break;
    default:
        if (job.started.time_since_epoch().count() != 0) {
            status.queueMs = elapsedMs(job.submitted, job.started);
            status.runMs = elapsedMs(job.started, job.ended);
        } else {
            status.queueMs = elapsedMs(job.submitted, job.ended);
        }
        break;
    }
    return status;
}

JobStatus
SweepService::status(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = records_.find(id);
    if (it == records_.end())
        fatal(ErrorCategory::kConfig,
              "unknown job id " + std::to_string(id));
    return snapshotLocked(*it->second);
}

JobStatus
SweepService::wait(std::uint64_t id)
{
    std::unique_lock<std::mutex> lk(mu_);
    const auto it = records_.find(id);
    if (it == records_.end())
        fatal(ErrorCategory::kConfig,
              "unknown job id " + std::to_string(id));
    JobRecord *job = it->second.get();
    cvDone_.wait(lk, [&] { return isTerminal(job->state); });
    return snapshotLocked(*job);
}

bool
SweepService::cancelJob(std::uint64_t id)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = records_.find(id);
    if (it == records_.end())
        return false;
    JobRecord *job = it->second.get();
    if (isTerminal(job->state))
        return false;
    if (job->state == JobState::kQueued) {
        queue_.erase(std::find(queue_.begin(), queue_.end(), job));
        finalizeJobLocked(*job, JobState::kCancelled,
                          "job cancelled before it started",
                          ErrorCategory::kCancelled);
        return true;
    }
    job->token->cancel();
    return true;
}

ServiceStatus
SweepService::serviceStatus() const
{
    std::lock_guard<std::mutex> lk(mu_);
    ServiceStatus status;
    status.queued = queue_.size();
    status.running = running_;
    status.draining = draining_;
    status.submitted = submitted_;
    status.admitted = admitted_;
    status.rejected = rejected_;
    status.finished = finished_;
    status.failed = failed_;
    status.cancelled = cancelled_;
    status.drained = drained_;
    status.poolWorkers = poolWorkers_;
    status.poolBusy = pool_ != nullptr ? pool_->busyNow() : 0;
    for (const auto &[tenant, counters] : tenants_) {
        TenantStatus slice;
        slice.tenant = tenant;
        slice.admitted = counters.admitted;
        slice.rejected = counters.rejected;
        slice.inFlight = counters.inFlight;
        for (const JobRecord *job : queue_)
            slice.queued += job->spec.tenant == tenant ? 1 : 0;
        status.tenants.push_back(std::move(slice));
    }
    return status;
}

void
SweepService::drain(DrainMode mode)
{
    std::unique_lock<std::mutex> lk(mu_);
    if (drainDone_)
        return;
    if (draining_) {
        // Another thread owns the drain; wait for it to finish.
        cvDone_.wait(lk, [&] { return drainDone_; });
        return;
    }
    draining_ = true;
    drainMode_ = mode;
    if (mode != DrainMode::kWait) {
        serviceToken_.cancel();
        while (!queue_.empty()) {
            JobRecord *job = queue_.front();
            queue_.pop_front();
            finalizeJobLocked(*job, JobState::kCancelled,
                              "service drained before the job "
                              "started",
                              ErrorCategory::kCancelled);
        }
    }
    cvDone_.wait(lk, [&] { return queue_.empty() && running_ == 0; });
    stopSlots_ = true;
    cvWork_.notify_all();
    lk.unlock();
    for (auto &slot : slots_)
        slot.join();
    lk.lock();
    if (options_.telemetry != nullptr) {
        auto &registry = options_.telemetry->registry();
        registry.mergeStats("serve.pool_occupancy",
                            pool_->occupancyStats());
        publishGaugesLocked();
        options_.telemetry->emit(TelemetryEvent(
            events::kServiceDrained,
            {field("mode", toString(mode)),
             field("submitted", submitted_),
             field("admitted", admitted_),
             field("rejected", rejected_),
             field("finished", finished_), field("failed", failed_),
             field("cancelled", cancelled_),
             field("drained", drained_)}));
    }
    drainDone_ = true;
    cvDone_.notify_all();
    lk.unlock();
    if (options_.telemetry != nullptr)
        options_.telemetry->finish();
}

bool
SweepService::drained() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return drainDone_;
}

} // namespace confsim
