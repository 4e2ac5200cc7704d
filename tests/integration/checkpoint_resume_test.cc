/**
 * @file
 * End-to-end checkpoint/resume acceptance tests: each benchmark is
 * killed mid-run (by an injected source fault, or by cancelling its
 * DriverOptions token) in its own one-benchmark fail-fast run over a
 * shared checkpoint directory, then the whole suite resumes from the
 * on-disk checkpoints, and the recovered results must be BIT-EXACT
 * against an uninterrupted reference run — for a gshare + one-level
 * configuration and for a hybrid + two-level one. Corrupting the
 * newest generation must be detected, reported through telemetry, and
 * recovered by falling back one generation; completed benchmarks must
 * be reused from their done-markers without any re-simulation — for
 * every configuration of a multi-config sweep too.
 *
 * The checkpoint directory honours CONFSIM_CKPT_TEST_DIR (used by the
 * CI kill-resume job to upload the directory as an artifact when a
 * test fails); directories are kept on failure for that reason.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint_store.h"
#include "confidence/one_level.h"
#include "confidence/two_level.h"
#include "obs/telemetry.h"
#include "predictor/bimodal.h"
#include "predictor/gshare.h"
#include "predictor/hybrid.h"
#include "sim/suite_runner.h"
#include "sim/sweep_engine.h"
#include "fault/fault_injection.h"
#include "fault/fault_plan.h"
#include "util/cancellation.h"
#include "util/error.h"

namespace confsim {
namespace {

PredictorFactory
gshareFactory()
{
    return [] { return std::make_unique<GsharePredictor>(4096, 12); };
}

EstimatorSetFactory
oneLevelFactory()
{
    return [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::PcXorBhr, 4096, CounterKind::Resetting, 16,
            0));
        return out;
    };
}

PredictorFactory
hybridFactory()
{
    return [] {
        return std::make_unique<HybridPredictor>(
            std::make_unique<GsharePredictor>(1024, 10),
            std::make_unique<BimodalPredictor>(1024), 1024);
    };
}

EstimatorSetFactory
twoLevelFactory()
{
    return [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<TwoLevelConfidence>(
            IndexScheme::PcXorBhr, 1024, 6, SecondLevelIndex::Cir, 4));
        return out;
    };
}

/**
 * Delivers the wrapped source's records and cancels @p token once
 * @p after of them have gone out. Serialization delegates to the
 * wrapped source, so a cancelled run's checkpoints resume through the
 * wrapped source alone.
 */
class CancelAfterSource : public TraceSource
{
  public:
    CancelAfterSource(std::unique_ptr<TraceSource> inner,
                      CancellationToken &token, std::uint64_t after)
        : inner_(std::move(inner)), token_(&token), after_(after)
    {}

    bool
    next(BranchRecord &record) override
    {
        if (!inner_->next(record))
            return false;
        if (++delivered_ == after_)
            token_->cancel();
        return true;
    }

    void
    reset() override
    {
        inner_->reset();
        delivered_ = 0;
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
    CancellationToken *token_;
    std::uint64_t after_;
    std::uint64_t delivered_ = 0;
};

/** How killEach() stops each checkpointed run. */
enum class Interruption
{
    kSourceFault, //!< the source throws after kKillAfter records
    kCancel,      //!< the run's DriverOptions::cancel token is cancelled then
};

class CheckpointResumeTest : public ::testing::Test
{
  protected:
    static constexpr std::uint64_t kBranches = 50000;
    static constexpr std::uint64_t kEvery = 5000;
    static constexpr std::uint64_t kKillAfter = 30000; // records

    std::vector<std::string> names_ = {"jpeg", "groff"};
    BenchmarkSuite suite_ = BenchmarkSuite::ibsSubset(names_,
                                                      kBranches);
    std::string dir_;

    void
    SetUp() override
    {
        const char *base = std::getenv("CONFSIM_CKPT_TEST_DIR");
        dir_ = (base != nullptr && *base != '\0') ? std::string(base)
                                                  : ::testing::TempDir();
        dir_ += "/confsim_resume_";
        dir_ += ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name();
        std::filesystem::remove_all(dir_);
    }

    void
    TearDown() override
    {
        // Keep the directory when the test failed so CI can upload it.
        if (!HasFailure())
            std::filesystem::remove_all(dir_);
    }

    /**
     * Wrap every benchmark's generator in a FaultInjectingTraceSource.
     * ALL runs (reference, killed, resumed) use this wrapper so the
     * checkpointed "source" component always matches the live source
     * type; @p fail_after == 0 makes the wrapper transparent.
     */
    static SourceWrapper
    faultWrapper(std::uint64_t fail_after)
    {
        return [fail_after](std::size_t,
                            std::unique_ptr<TraceSource> inner)
                   -> std::unique_ptr<TraceSource> {
            FaultSpec spec;
            spec.failAfter = fail_after;
            return std::make_unique<FaultInjectingTraceSource>(
                std::move(inner), spec);
        };
    }

    /**
     * faultWrapper(0), with a CancelAfterSource on top that cancels
     * @p token after kKillAfter records.
     */
    static SourceWrapper
    cancelWrapper(CancellationToken &token)
    {
        return [&token](std::size_t bench,
                        std::unique_ptr<TraceSource> inner)
                   -> std::unique_ptr<TraceSource> {
            return std::make_unique<CancelAfterSource>(
                faultWrapper(0)(bench, std::move(inner)), token,
                kKillAfter);
        };
    }

    RunPolicy
    checkpointed(bool resume) const
    {
        RunPolicy policy;
        policy.checkpoint.directory = dir_;
        policy.checkpoint.everyBranches = kEvery;
        policy.checkpoint.resume = resume;
        return policy;
    }

    /** The checkpoint store label of benchmark @p name. */
    std::string
    label(const std::string &name) const
    {
        for (std::size_t bench = 0; bench < suite_.size(); ++bench) {
            if (suite_.profile(bench).name == name)
                return checkpointLabel(suite_, bench);
        }
        ADD_FAILURE() << name << " is not in the suite";
        return name;
    }

    /** Files in the checkpoint dir whose name starts with @p prefix. */
    std::vector<std::string>
    filesWithPrefix(const std::string &prefix) const
    {
        std::vector<std::string> out;
        for (const auto &entry :
             std::filesystem::directory_iterator(dir_)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind(prefix, 0) == 0)
                out.push_back(entry.path().string());
        }
        std::sort(out.begin(), out.end());
        return out;
    }

    static void
    corruptFile(const std::string &path)
    {
        std::fstream file(path, std::ios::binary | std::ios::in |
                                    std::ios::out);
        ASSERT_TRUE(file);
        file.seekg(0, std::ios::end);
        const auto pos = static_cast<std::streamoff>(file.tellg()) / 2;
        file.seekg(pos);
        char byte = 0;
        file.get(byte);
        file.seekp(pos);
        file.put(static_cast<char>(byte ^ 0x08));
    }

    /**
     * The acceptance bar: every count identical, every double the
     * exact same bit pattern (EXPECT_EQ on doubles is exact equality).
     */
    static void
    expectBitExact(const SuiteRunResult &got, const SuiteRunResult &want)
    {
        ASSERT_EQ(got.perBenchmark.size(), want.perBenchmark.size());
        for (std::size_t i = 0; i < want.perBenchmark.size(); ++i) {
            const auto &g = got.perBenchmark[i];
            const auto &w = want.perBenchmark[i];
            SCOPED_TRACE(w.name);
            EXPECT_EQ(g.name, w.name);
            EXPECT_EQ(g.branches, w.branches);
            EXPECT_EQ(g.mispredicts, w.mispredicts);
            EXPECT_EQ(g.mispredictRate, w.mispredictRate);
            EXPECT_EQ(g.estimatorNames, w.estimatorNames);
            ASSERT_EQ(g.estimatorStats.size(), w.estimatorStats.size());
            for (std::size_t e = 0; e < w.estimatorStats.size(); ++e) {
                const auto &gs = g.estimatorStats[e];
                const auto &ws = w.estimatorStats[e];
                ASSERT_EQ(gs.numBuckets(), ws.numBuckets());
                for (std::uint64_t b = 0; b < ws.numBuckets(); ++b) {
                    EXPECT_EQ(gs[b].refs, ws[b].refs)
                        << "bucket " << b;
                    EXPECT_EQ(gs[b].mispredicts, ws[b].mispredicts)
                        << "bucket " << b;
                }
            }
        }
        EXPECT_EQ(got.compositeMispredictRate,
                  want.compositeMispredictRate);
    }

    /**
     * Stop each benchmark after kKillAfter records by @p interruption,
     * in its own one-benchmark fail-fast run over the shared checkpoint
     * directory, so every benchmark leaves rotating checkpoint
     * generations behind. Each run must throw its interruption.
     */
    void
    killEach(const PredictorFactory &make_predictor,
             const EstimatorSetFactory &make_estimators,
             Interruption interruption)
    {
        for (const auto &name : names_) {
            SCOPED_TRACE(name);
            CancellationToken token;
            DriverOptions options;
            SuiteRunner killed_runner(
                BenchmarkSuite::ibsSubset({name}, kBranches));
            if (interruption == Interruption::kSourceFault) {
                killed_runner.setSourceWrapper(faultWrapper(kKillAfter));
            } else {
                killed_runner.setSourceWrapper(cancelWrapper(token));
                options.cancel = &token;
            }
            try {
                (void)killed_runner.run(make_predictor, make_estimators,
                                        options, checkpointed(false));
                ADD_FAILURE() << "the killed run completed";
            } catch (const Error &e) {
                EXPECT_EQ(e.category(),
                          interruption == Interruption::kCancel
                              ? ErrorCategory::kCancelled
                              : ErrorCategory::kTrace)
                    << e.what();
            }
            ASSERT_FALSE(filesWithPrefix(label(name) + ".g").empty())
                << "killed run left no checkpoints for " << name;
        }
    }

    /**
     * Kill every benchmark by @p interruption (killEach()), resume the
     * whole suite, and compare against the clean reference.
     */
    void
    runKillResume(const PredictorFactory &make_predictor,
                  const EstimatorSetFactory &make_estimators,
                  Interruption interruption = Interruption::kSourceFault)
    {
        // Uninterrupted reference (no checkpointing at all).
        SuiteRunner reference_runner(suite_);
        reference_runner.setSourceWrapper(faultWrapper(0));
        const SuiteRunResult reference =
            reference_runner.run(make_predictor, make_estimators);

        killEach(make_predictor, make_estimators, interruption);

        // Resumed run: picks up from the newest intact generation.
        SuiteRunner resumed_runner(suite_);
        resumed_runner.setSourceWrapper(faultWrapper(0));
        const SuiteRunResult resumed = resumed_runner.run(
            make_predictor, make_estimators, {}, checkpointed(true));

        expectBitExact(resumed, reference);

        // Completion replaced the generations with done-markers.
        for (const auto &name : names_) {
            EXPECT_TRUE(filesWithPrefix(label(name) + ".g").empty());
            EXPECT_EQ(filesWithPrefix(label(name) + ".done").size(), 1u);
        }
    }
};

TEST_F(CheckpointResumeTest, BitExactResumeGshareOneLevel)
{
    runKillResume(gshareFactory(), oneLevelFactory());
}

TEST_F(CheckpointResumeTest, BitExactResumeHybridTwoLevel)
{
    runKillResume(hybridFactory(), twoLevelFactory());
}

TEST_F(CheckpointResumeTest, CancelledRunResumesBitExact)
{
    runKillResume(gshareFactory(), oneLevelFactory(),
                  Interruption::kCancel);
}

TEST_F(CheckpointResumeTest, CorruptGenerationFallsBackAndReports)
{
    SuiteRunner reference_runner(suite_);
    reference_runner.setSourceWrapper(faultWrapper(0));
    const SuiteRunResult reference =
        reference_runner.run(gshareFactory(), oneLevelFactory());

    killEach(gshareFactory(), oneLevelFactory(),
             Interruption::kSourceFault);

    // Damage groff's NEWEST generation; the older one must carry the
    // resume (the fall-back-one-generation rule).
    const auto groff_gens = filesWithPrefix(label("groff") + ".g");
    ASSERT_GE(groff_gens.size(), 2u);
    corruptFile(groff_gens.back()); // zero-padded => sorted = numeric

    const std::string events_path = dir_ + "/resume_events.jsonl";
    SuiteRunResult resumed;
    {
        TelemetryOptions telemetry_options;
        telemetry_options.jsonlPath = events_path;
        const auto telemetry =
            Telemetry::fromOptions(telemetry_options);
        ASSERT_NE(telemetry, nullptr);
        telemetry->setManifest(RunManifest::withBuildInfo());
        DriverOptions options;
        options.telemetry = telemetry.get();
        SuiteRunner resumed_runner(suite_);
        resumed_runner.setSourceWrapper(faultWrapper(0));
        resumed = resumed_runner.run(gshareFactory(), oneLevelFactory(),
                                     options, checkpointed(true));
    } // telemetry closes (atomically publishes) the JSONL here

    expectBitExact(resumed, reference);

    // The event stream must carry the corruption report AND the
    // successful restore from the older generation.
    std::ifstream events(events_path);
    ASSERT_TRUE(events);
    bool saw_corrupt = false;
    bool saw_restored = false;
    bool saw_written = false;
    for (std::string line; std::getline(events, line);) {
        saw_corrupt |=
            line.find("\"checkpoint_corrupt\"") != std::string::npos &&
            line.find("groff") != std::string::npos;
        saw_restored |=
            line.find("\"checkpoint_restored\"") != std::string::npos;
        saw_written |=
            line.find("\"checkpoint_written\"") != std::string::npos;
    }
    EXPECT_TRUE(saw_corrupt);
    EXPECT_TRUE(saw_restored);
    EXPECT_TRUE(saw_written);
}

TEST_F(CheckpointResumeTest, FaultAfterRestoreFailsTheResume)
{
    // A generation that restored is not damaged because the replay
    // after it fails: the resumed run fails fast with the fault, and
    // does not blame the generation and run the benchmark again from
    // an older one or from scratch (where a one-shot fault would not
    // fire again).
    killEach(gshareFactory(), oneLevelFactory(),
             Interruption::kSourceFault);
    Telemetry telemetry{TelemetryOptions{}};
    DriverOptions options;
    options.telemetry = &telemetry;
    SuiteRunner resumed_runner(suite_);
    resumed_runner.setSourceWrapper(faultWrapper(0));
    ScopedFaultPlan scoped("decode:batch=3:throw");
    try {
        (void)resumed_runner.run(gshareFactory(), oneLevelFactory(),
                                 options, checkpointed(true));
        FAIL() << "the faulted resume completed";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kTrace) << e.what();
        EXPECT_NE(std::string(e.what()).find("injected fault"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(telemetry.registry().counter("ckpt.corrupt"), 0u);
}

TEST_F(CheckpointResumeTest, DoneMarkerSkipsCompletedBenchmarks)
{
    // Full checkpointed run to completion: leaves only done-markers.
    SuiteRunner first_runner(suite_);
    first_runner.setSourceWrapper(faultWrapper(0));
    const SuiteRunResult first = first_runner.run(
        gshareFactory(), oneLevelFactory(), {}, checkpointed(false));
    for (const auto &name : names_) {
        ASSERT_EQ(filesWithPrefix(label(name) + ".done").size(), 1u);
        ASSERT_TRUE(filesWithPrefix(label(name) + ".g").empty());
    }

    // Poisoned resume: any attempt to actually simulate dies on the
    // first record, and the policy is fail-fast — so success proves
    // every benchmark was served from its done-marker.
    SuiteRunner resumed_runner(suite_);
    resumed_runner.setSourceWrapper(faultWrapper(1));
    const SuiteRunResult resumed = resumed_runner.run(
        gshareFactory(), oneLevelFactory(), {}, checkpointed(true));

    expectBitExact(resumed, first);
}

TEST_F(CheckpointResumeTest, SweepDoneMarkersCarryEveryConfiguration)
{
    const std::vector<SweepConfiguration> configs = {
        {"gshare-1lvl", gshareFactory(), oneLevelFactory()},
        {"hybrid-2lvl", hybridFactory(), twoLevelFactory()}};
    SweepOptions sweep;
    sweep.threads = 2;

    SuiteRunner first_runner(suite_);
    first_runner.setSourceWrapper(faultWrapper(0));
    const SweepSuiteResult first =
        first_runner.runSweep(configs, {}, sweep, checkpointed(false));
    for (const auto &name : names_) {
        ASSERT_EQ(filesWithPrefix(label(name) + ".done").size(), 1u);
        ASSERT_TRUE(filesWithPrefix(label(name) + ".g").empty());
    }

    // A done-marker in an older layout does not decode: that benchmark
    // re-simulates, the other is served from its marker.
    {
        CheckpointStore store(dir_, label("jpeg"));
        Checkpoint legacy;
        legacy.label = "jpeg";
        legacy.add("suite:result", 1, {});
        store.writeCompleted(legacy);
    }
    SuiteRunner resumed_runner(suite_);
    resumed_runner.setSourceWrapper(faultWrapper(0));
    const SweepSuiteResult resumed =
        resumed_runner.runSweep(configs, {}, sweep, checkpointed(true));
    ASSERT_EQ(resumed.perConfig.size(), configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE(configs[c].label);
        expectBitExact(resumed.perConfig[c], first.perConfig[c]);
    }

    // Every benchmark now holds a current-layout marker: a poisoned
    // source that dies on its first record is never read.
    SuiteRunner poisoned_runner(suite_);
    poisoned_runner.setSourceWrapper(faultWrapper(1));
    const SweepSuiteResult served =
        poisoned_runner.runSweep(configs, {}, sweep, checkpointed(true));
    for (std::size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE(configs[c].label);
        expectBitExact(served.perConfig[c], first.perConfig[c]);
    }
}

} // namespace
} // namespace confsim
