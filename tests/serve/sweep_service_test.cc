/**
 * @file
 * SweepService contract tests: admission control and load shedding,
 * tenant fairness, exact accounting under concurrency, per-job fault
 * isolation, cooperative cancellation, and every drain mode.
 *
 * The scheduling invariants the service promises are all checked
 * against the two accounting identities documented in
 * serve/sweep_service.h:
 *
 *   submitted == admitted + rejected          (always)
 *   admitted  == finished + failed
 *               + cancelled + drained         (after drain)
 *
 * Timing control uses GateSource, a TraceSource decorator that parks
 * a job's trace stream on a test-owned flag: jobs stay predictably
 * in-flight until the test releases them, with no sleeps-as-sync.
 * Bit-exactness is asserted against direct SuiteRunner::runSweep runs
 * of the same spec — scheduling must never perturb simulation.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint_store.h"
#include "confidence/one_level.h"
#include "fault/fault_injection.h"
#include "predictor/gshare.h"
#include "serve/sweep_service.h"
#include "sim/suite_runner.h"
#include "util/error.h"
#include "workload/suite.h"

namespace confsim {
namespace {

constexpr std::uint64_t kBranches = 20'000;

/** Shared open/reached flag for GateSource. */
using Flag = std::shared_ptr<std::atomic<bool>>;

Flag
makeFlag(bool value = false)
{
    return std::make_shared<std::atomic<bool>>(value);
}

/**
 * TraceSource decorator that delivers @p gateAfter records, then
 * parks until @p open becomes true (setting @p reached when it starts
 * waiting). A 30 s cap keeps a buggy test from deadlocking the suite.
 * Serialization delegates to the inner source, so a gated job's
 * checkpoints resume through an un-gated source bit-exactly.
 */
class GateSource : public TraceSource
{
  public:
    GateSource(std::unique_ptr<TraceSource> inner, Flag open,
               std::uint64_t gateAfter = 0, Flag reached = nullptr)
        : inner_(std::move(inner)), open_(std::move(open)),
          reached_(std::move(reached)), gateAfter_(gateAfter)
    {}

    bool
    next(BranchRecord &record) override
    {
        if (!passed_ && delivered_ == gateAfter_) {
            if (reached_)
                reached_->store(true);
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(30);
            while (!open_->load()) {
                if (std::chrono::steady_clock::now() > deadline)
                    break;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
            passed_ = true;
        }
        if (!inner_->next(record))
            return false;
        ++delivered_;
        return true;
    }

    void
    reset() override
    {
        inner_->reset();
        delivered_ = 0;
        passed_ = false;
    }

    bool checkpointable() const override
    {
        return inner_->checkpointable();
    }
    void saveState(StateWriter &out) const override
    {
        inner_->saveState(out);
    }
    void loadState(StateReader &in) override { inner_->loadState(in); }
    std::uint32_t stateVersion() const override
    {
        return inner_->stateVersion();
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    Flag open_;
    Flag reached_;
    std::uint64_t gateAfter_ = 0;
    std::uint64_t delivered_ = 0;
    bool passed_ = false;
};

/** A wrapSource hook that gates every benchmark of the job. */
SourceWrapper
gateWrapper(Flag open, std::uint64_t gateAfter = 0,
            Flag reached = nullptr)
{
    return [open, gateAfter, reached](std::size_t,
                                      std::unique_ptr<TraceSource>
                                          inner) {
        return std::make_unique<GateSource>(std::move(inner), open,
                                            gateAfter, reached);
    };
}

/** One cheap single-estimator configuration grid (small gshare). */
std::vector<SweepConfiguration>
testGrid(std::size_t configs = 1)
{
    std::vector<SweepConfiguration> grid;
    for (std::size_t i = 0; i < configs; ++i) {
        SweepConfiguration config;
        config.label = "cfg" + std::to_string(i);
        config.makePredictor = [] {
            return std::make_unique<GsharePredictor>(4096, 12);
        };
        config.makeEstimators = [i] {
            std::vector<std::unique_ptr<ConfidenceEstimator>> set;
            set.push_back(std::make_unique<OneLevelCounterConfidence>(
                IndexScheme::PcXorBhr, 1024,
                i % 2 == 0 ? CounterKind::Resetting
                           : CounterKind::Saturating,
                16, 0));
            return set;
        };
        grid.push_back(std::move(config));
    }
    return grid;
}

JobSpec
testSpec(std::string tenant, std::string label,
         std::size_t configs = 1)
{
    JobSpec spec;
    spec.tenant = std::move(tenant);
    spec.label = std::move(label);
    spec.benchmarks = {"groff"};
    spec.branches = kBranches;
    spec.configs = testGrid(configs);
    return spec;
}

/** Poll @p predicate for up to 10 s. */
template <typename Predicate>
bool
eventually(Predicate &&predicate)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
}

/** The two accounting identities, checked from one snapshot. */
void
expectExactAccounting(const ServiceStatus &status, bool settled)
{
    EXPECT_EQ(status.submitted, status.admitted + status.rejected);
    if (settled) {
        EXPECT_EQ(status.admitted, status.finished + status.failed +
                                       status.cancelled +
                                       status.drained);
    }
    std::uint64_t tenantAdmitted = 0;
    std::uint64_t tenantRejected = 0;
    for (const TenantStatus &tenant : status.tenants) {
        tenantAdmitted += tenant.admitted;
        tenantRejected += tenant.rejected;
    }
    EXPECT_EQ(tenantAdmitted, status.admitted);
    EXPECT_EQ(tenantRejected, status.rejected);
}

TEST(SweepServiceTest, RunsJobsToCompletionWithExactAccounting)
{
    SweepService service(ServiceOptions{});
    const std::uint64_t a = service.submit(testSpec("alice", "a", 2));
    const std::uint64_t b = service.submit(testSpec("bob", "b"));

    const JobStatus doneA = service.wait(a);
    const JobStatus doneB = service.wait(b);
    EXPECT_EQ(doneA.state, JobState::kFinished);
    EXPECT_EQ(doneB.state, JobState::kFinished);
    ASSERT_NE(doneA.result, nullptr);
    EXPECT_EQ(doneA.result->perConfig.size(), 2u);
    EXPECT_EQ(doneA.error, "");
    EXPECT_GE(doneA.runMs, 0.0);

    service.drain(DrainMode::kWait);
    const ServiceStatus status = service.serviceStatus();
    EXPECT_EQ(status.submitted, 2u);
    EXPECT_EQ(status.finished, 2u);
    EXPECT_EQ(status.rejected, 0u);
    expectExactAccounting(status, true);
    EXPECT_TRUE(service.drained());
}

TEST(SweepServiceTest, ResultsBitExactWithDirectRunSweep)
{
    SweepService service(ServiceOptions{});
    const std::uint64_t id =
        service.submit(testSpec("alice", "exact", 2));
    const JobStatus done = service.wait(id);
    ASSERT_EQ(done.state, JobState::kFinished);
    ASSERT_NE(done.result, nullptr);

    SuiteRunner runner(BenchmarkSuite::ibsSubset({"groff"}, kBranches));
    const SweepSuiteResult direct =
        runner.runSweep(testGrid(2), DriverOptions{}, SweepOptions{});

    ASSERT_EQ(done.result->perConfig.size(), direct.perConfig.size());
    for (std::size_t c = 0; c < direct.perConfig.size(); ++c) {
        const SuiteRunResult &got = done.result->perConfig[c];
        const SuiteRunResult &want = direct.perConfig[c];
        EXPECT_EQ(got.compositeMispredictRate,
                  want.compositeMispredictRate);
        ASSERT_EQ(got.perBenchmark.size(), want.perBenchmark.size());
        for (std::size_t b = 0; b < want.perBenchmark.size(); ++b) {
            EXPECT_EQ(got.perBenchmark[b].branches,
                      want.perBenchmark[b].branches);
            EXPECT_EQ(got.perBenchmark[b].mispredicts,
                      want.perBenchmark[b].mispredicts);
        }
    }
}

TEST(SweepServiceTest, ShedsLoadWhenQueueIsFull)
{
    const Flag open = makeFlag();
    ServiceOptions options;
    options.queueDepth = 1;
    options.jobSlots = 1;
    options.poolWorkers = 1;
    SweepService service(options);

    JobSpec running = testSpec("alice", "running");
    running.wrapSource = gateWrapper(open);
    const std::uint64_t first = service.submit(std::move(running));
    ASSERT_TRUE(eventually([&] {
        return service.status(first).state == JobState::kRunning;
    }));

    // One queued job fits; the next submit must shed with kResource.
    const std::uint64_t second =
        service.submit(testSpec("alice", "queued"));
    try {
        service.submit(testSpec("alice", "shed"));
        FAIL() << "expected Error{kResource}";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kResource);
        EXPECT_TRUE(e.retryable());
    }

    ServiceStatus status = service.serviceStatus();
    EXPECT_EQ(status.rejected, 1u);
    EXPECT_EQ(status.queued, 1u);
    expectExactAccounting(status, false);

    open->store(true);
    EXPECT_EQ(service.wait(first).state, JobState::kFinished);
    EXPECT_EQ(service.wait(second).state, JobState::kFinished);
    service.drain(DrainMode::kWait);
    status = service.serviceStatus();
    EXPECT_EQ(status.submitted, 3u);
    EXPECT_EQ(status.finished, 2u);
    expectExactAccounting(status, true);
}

TEST(SweepServiceTest, TenantInFlightCapYieldsSlotToOtherTenant)
{
    const Flag open = makeFlag();
    ServiceOptions options;
    options.jobSlots = 2;
    options.tenantMaxInFlight = 1;
    options.poolWorkers = 1;
    SweepService service(options);

    JobSpec a1 = testSpec("alice", "a1");
    a1.wrapSource = gateWrapper(open);
    JobSpec a2 = testSpec("alice", "a2");
    a2.wrapSource = gateWrapper(open);
    const std::uint64_t firstA = service.submit(std::move(a1));
    const std::uint64_t secondA = service.submit(std::move(a2));

    // Both slots are free, but alice's cap holds a2 in the queue.
    ASSERT_TRUE(eventually([&] {
        return service.status(firstA).state == JobState::kRunning;
    }));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(service.status(secondA).state, JobState::kQueued);
    EXPECT_EQ(service.serviceStatus().running, 1u);

    // A second tenant's job bypasses the queued a2 onto the idle slot.
    JobSpec b1 = testSpec("bob", "b1");
    b1.wrapSource = gateWrapper(open);
    const std::uint64_t firstB = service.submit(std::move(b1));
    ASSERT_TRUE(eventually([&] {
        return service.status(firstB).state == JobState::kRunning;
    }));
    EXPECT_EQ(service.status(secondA).state, JobState::kQueued);
    for (const TenantStatus &tenant :
         service.serviceStatus().tenants) {
        EXPECT_LE(tenant.inFlight, 1u) << tenant.tenant;
    }

    open->store(true);
    EXPECT_EQ(service.wait(firstA).state, JobState::kFinished);
    EXPECT_EQ(service.wait(secondA).state, JobState::kFinished);
    EXPECT_EQ(service.wait(firstB).state, JobState::kFinished);
    service.drain(DrainMode::kWait);
    expectExactAccounting(service.serviceStatus(), true);
}

TEST(SweepServiceTest, RejectsUnrunnableSpecsAsConfig)
{
    const Flag open = makeFlag();
    ServiceOptions options;
    options.poolWorkers = 1;
    options.jobSlots = 1;
    SweepService service(options); // no jobDir

    JobSpec empty = testSpec("alice", "empty");
    empty.configs.clear();
    EXPECT_THROW(
        {
            try {
                service.submit(std::move(empty));
            } catch (const Error &e) {
                EXPECT_EQ(e.category(), ErrorCategory::kConfig);
                throw;
            }
        },
        Error);

    JobSpec ckpt = testSpec("alice", "ckpt");
    ckpt.checkpoint = true;
    EXPECT_THROW(service.submit(std::move(ckpt)), Error);

    // A live duplicate tenant+label is rejected; after the original
    // finishes the label is reusable.
    JobSpec gated = testSpec("alice", "dup");
    gated.wrapSource = gateWrapper(open);
    const std::uint64_t id = service.submit(std::move(gated));
    EXPECT_THROW(service.submit(testSpec("alice", "dup")), Error);
    EXPECT_NO_THROW(service.submit(testSpec("bob", "dup")));
    open->store(true);
    EXPECT_EQ(service.wait(id).state, JobState::kFinished);
    EXPECT_NO_THROW(service.submit(testSpec("alice", "dup")));

    service.drain(DrainMode::kWait);
    const ServiceStatus status = service.serviceStatus();
    EXPECT_EQ(status.rejected, 3u);
    expectExactAccounting(status, true);
}

TEST(SweepServiceTest, FaultedJobNeverPerturbsItsSibling)
{
    ServiceOptions options;
    options.jobSlots = 2;
    SweepService service(options);

    // The faulty tenant's trace stream hard-fails mid-run; the clean
    // tenant's concurrent job must finish bit-exact with a direct run.
    JobSpec faulty = testSpec("mallory", "faulty");
    faulty.wrapSource = [](std::size_t,
                           std::unique_ptr<TraceSource> inner) {
        FaultSpec spec;
        spec.failAfter = 1'000;
        return std::make_unique<FaultInjectingTraceSource>(
            std::move(inner), spec);
    };
    JobSpec clean = testSpec("alice", "clean");

    const std::uint64_t badId = service.submit(std::move(faulty));
    const std::uint64_t goodId = service.submit(std::move(clean));
    const JobStatus bad = service.wait(badId);
    const JobStatus good = service.wait(goodId);

    EXPECT_EQ(bad.state, JobState::kFailed);
    EXPECT_EQ(bad.errorCategory, ErrorCategory::kTrace);
    EXPECT_NE(bad.error, "");
    EXPECT_EQ(bad.result, nullptr);

    ASSERT_EQ(good.state, JobState::kFinished);
    ASSERT_NE(good.result, nullptr);
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"groff"}, kBranches));
    const SweepSuiteResult direct =
        runner.runSweep(testGrid(), DriverOptions{}, SweepOptions{});
    EXPECT_EQ(good.result->perConfig[0].compositeMispredictRate,
              direct.perConfig[0].compositeMispredictRate);
    EXPECT_EQ(good.result->perConfig[0].perBenchmark[0].mispredicts,
              direct.perConfig[0].perBenchmark[0].mispredicts);

    service.drain(DrainMode::kWait);
    const ServiceStatus status = service.serviceStatus();
    EXPECT_EQ(status.finished, 1u);
    EXPECT_EQ(status.failed, 1u);
    expectExactAccounting(status, true);
}

TEST(SweepServiceTest, CancelsQueuedAndRunningJobs)
{
    const Flag open = makeFlag();
    ServiceOptions options;
    options.jobSlots = 1;
    options.poolWorkers = 1;
    SweepService service(options);

    JobSpec running = testSpec("alice", "running");
    running.wrapSource = gateWrapper(open);
    const std::uint64_t runId = service.submit(std::move(running));
    const std::uint64_t queuedId =
        service.submit(testSpec("alice", "queued"));
    ASSERT_TRUE(eventually([&] {
        return service.status(runId).state == JobState::kRunning;
    }));

    // Queued: cancels synchronously without ever starting.
    EXPECT_TRUE(service.cancelJob(queuedId));
    EXPECT_EQ(service.status(queuedId).state, JobState::kCancelled);
    EXPECT_FALSE(service.cancelJob(queuedId)); // already terminal
    EXPECT_FALSE(service.cancelJob(9999));     // unknown

    // Running: the per-job token unwinds it once the gate opens.
    EXPECT_TRUE(service.cancelJob(runId));
    open->store(true);
    const JobStatus cancelled = service.wait(runId);
    EXPECT_EQ(cancelled.state, JobState::kCancelled);
    EXPECT_EQ(cancelled.errorCategory, ErrorCategory::kCancelled);

    service.drain(DrainMode::kWait);
    const ServiceStatus status = service.serviceStatus();
    EXPECT_EQ(status.cancelled, 2u);
    EXPECT_EQ(status.finished, 0u);
    expectExactAccounting(status, true);
}

TEST(SweepServiceTest, AccountingStaysExactUnderConcurrentSubmits)
{
    ServiceOptions options;
    options.queueDepth = 4;
    options.jobSlots = 2;
    options.poolWorkers = 1;
    SweepService service(options);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 8;
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> shed{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                JobSpec spec =
                    testSpec("tenant" + std::to_string(t),
                             "job" + std::to_string(i));
                spec.branches = 2'000; // fast: accounting, not sim
                try {
                    service.submit(std::move(spec));
                    ++accepted;
                } catch (const Error &e) {
                    EXPECT_EQ(e.category(),
                              ErrorCategory::kResource);
                    ++shed;
                }
            }
        });
    }
    for (std::thread &thread : submitters)
        thread.join();

    service.drain(DrainMode::kWait);
    const ServiceStatus status = service.serviceStatus();
    EXPECT_EQ(status.submitted,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(status.admitted, accepted.load());
    EXPECT_EQ(status.rejected, shed.load());
    EXPECT_EQ(status.finished, accepted.load());
    expectExactAccounting(status, true);
}

TEST(SweepServiceTest, DrainCancelSettlesInFlightAndQueuedJobs)
{
    const Flag open = makeFlag();
    ServiceOptions options;
    options.jobSlots = 1;
    options.poolWorkers = 1;
    SweepService service(options);

    JobSpec running = testSpec("alice", "running");
    running.wrapSource = gateWrapper(open);
    const std::uint64_t runId = service.submit(std::move(running));
    const std::uint64_t queuedId =
        service.submit(testSpec("alice", "queued"));
    ASSERT_TRUE(eventually([&] {
        return service.status(runId).state == JobState::kRunning;
    }));

    // Drain blocks on the gated job; release the gate once the drain
    // has cancelled the service token so the driver unwinds.
    std::thread drainer([&] { service.drain(DrainMode::kCancel); });
    ASSERT_TRUE(
        eventually([&] { return service.serviceStatus().draining; }));
    open->store(true);
    drainer.join();

    EXPECT_TRUE(service.drained());
    EXPECT_EQ(service.status(runId).state, JobState::kCancelled);
    EXPECT_EQ(service.status(queuedId).state, JobState::kCancelled);

    // Post-drain submits are rejected (kCancelled) and still counted.
    try {
        service.submit(testSpec("alice", "late"));
        FAIL() << "expected Error{kCancelled}";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kCancelled);
    }
    const ServiceStatus status = service.serviceStatus();
    EXPECT_EQ(status.submitted, 3u);
    EXPECT_EQ(status.cancelled, 2u);
    EXPECT_EQ(status.rejected, 1u);
    expectExactAccounting(status, true);
}

TEST(SweepServiceTest, ExternalTokenCancelRejectsNewSubmits)
{
    CancellationToken external;
    ServiceOptions options;
    options.poolWorkers = 1;
    options.jobSlots = 1;
    options.cancel = &external;
    SweepService service(options);

    EXPECT_NO_THROW(service.submit(testSpec("alice", "before")));
    external.cancel();
    try {
        service.submit(testSpec("alice", "after"));
        FAIL() << "expected Error{kCancelled}";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kCancelled);
    }
    service.drain(DrainMode::kCancel);
    expectExactAccounting(service.serviceStatus(), true);
}

TEST(SweepServiceTest, CheckpointDrainLeavesResumableJobThatMatches)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() / "confsim_sweep_service_test";
    fs::remove_all(root);
    fs::create_directories(root);

    constexpr std::uint64_t kLongTrace = 60'000;
    const auto specFor = [&](bool resume) {
        JobSpec spec = testSpec("alice", "resumable");
        spec.branches = kLongTrace;
        spec.checkpoint = true;
        spec.checkpointEvery = 8'000;
        spec.resume = resume;
        return spec;
    };

    const Flag open = makeFlag();
    const Flag reached = makeFlag();
    std::uint64_t id = 0;
    {
        ServiceOptions options;
        options.jobSlots = 1;
        options.poolWorkers = 1;
        options.jobDir = root.string();
        SweepService service(options);

        // Deliver 30k records (several checkpoint generations), then
        // park until the drain below has cancelled the job.
        JobSpec spec = specFor(false);
        spec.wrapSource = gateWrapper(open, 30'000, reached);
        id = service.submit(std::move(spec));
        ASSERT_TRUE(eventually([&] { return reached->load(); }));

        std::thread drainer(
            [&] { service.drain(DrainMode::kCheckpoint); });
        ASSERT_TRUE(eventually(
            [&] { return service.serviceStatus().draining; }));
        open->store(true);
        drainer.join();

        const JobStatus status = service.status(id);
        EXPECT_EQ(status.state, JobState::kDrained);
        EXPECT_TRUE(status.checkpointed);
        EXPECT_TRUE(hasCheckpointFiles(status.jobDir + "/ckpt"));
        const ServiceStatus totals = service.serviceStatus();
        EXPECT_EQ(totals.drained, 1u);
        expectExactAccounting(totals, true);
    }

    // A fresh service over the same jobDir resumes the drained job
    // (same tenant+label keys the same directory) to completion.
    SweepSuiteResult resumed;
    {
        ServiceOptions options;
        options.jobSlots = 1;
        options.poolWorkers = 1;
        options.jobDir = root.string();
        SweepService service(options);
        const std::uint64_t resumeId = service.submit(specFor(true));
        const JobStatus done = service.wait(resumeId);
        ASSERT_EQ(done.state, JobState::kFinished) << done.error;
        ASSERT_NE(done.result, nullptr);
        resumed = *done.result;
        service.drain(DrainMode::kWait);
    }

    // Bit-exact with one uninterrupted direct run of the same spec.
    SuiteRunner runner(
        BenchmarkSuite::ibsSubset({"groff"}, kLongTrace));
    const SweepSuiteResult direct =
        runner.runSweep(testGrid(), DriverOptions{}, SweepOptions{});
    ASSERT_EQ(resumed.perConfig.size(), direct.perConfig.size());
    EXPECT_EQ(resumed.perConfig[0].compositeMispredictRate,
              direct.perConfig[0].compositeMispredictRate);
    EXPECT_EQ(resumed.perConfig[0].perBenchmark[0].mispredicts,
              direct.perConfig[0].perBenchmark[0].mispredicts);
    EXPECT_EQ(resumed.perConfig[0].perBenchmark[0].branches,
              direct.perConfig[0].perBenchmark[0].branches);

    fs::remove_all(root);
}

TEST(SweepServiceTest, CheckpointProbeCountsGenerationsNotDoneMarkers)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "confsim_checkpoint_probe_test";
    fs::remove_all(dir);
    EXPECT_FALSE(hasCheckpointFiles(dir.string()));

    // A finished benchmark's done-marker is not resumable progress...
    CheckpointStore store(dir.string(), "groff", 2);
    Checkpoint ckpt;
    ckpt.label = "groff";
    store.writeCompleted(ckpt);
    EXPECT_FALSE(hasCheckpointFiles(dir.string()));

    // ...a mid-run generation is.
    store.write(ckpt);
    EXPECT_TRUE(hasCheckpointFiles(dir.string()));
    store.removeGenerations();
    EXPECT_FALSE(hasCheckpointFiles(dir.string()));

    fs::remove_all(dir);
}

TEST(SweepServiceTest, SanitizePathComponentIsLexicalAndStable)
{
    EXPECT_EQ(sanitizePathComponent("alice-1.2_x"), "alice-1.2_x");
    EXPECT_EQ(sanitizePathComponent("../../etc"), ".._.._etc");
    EXPECT_EQ(sanitizePathComponent("a b/c"), "a_b_c");
    EXPECT_EQ(sanitizePathComponent(""), "_");
    EXPECT_EQ(sanitizePathComponent("tenant"),
              sanitizePathComponent("tenant"));
}

} // namespace
} // namespace confsim
