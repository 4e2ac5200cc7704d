/**
 * @file
 * End-to-end fault-tolerance tests: a suite run over trace files where
 * one benchmark's file is corrupted on disk. A strict reader fails the
 * run fast, naming the benchmark and the CRC mismatch; kSkipCorrupt
 * turns the hard failure into a partial (but successful) benchmark.
 */

#include <cstdio>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "predictor/gshare.h"
#include "sim/suite_runner.h"
#include "trace/trace_io.h"

namespace confsim {
namespace {

PredictorFactory
makePredictor()
{
    return [] { return std::make_unique<GsharePredictor>(4096, 12); };
}

EstimatorSetFactory
makeEstimators()
{
    return [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::PcXorBhr, 4096, CounterKind::Resetting, 16,
            0));
        return out;
    };
}

class FaultToleranceTest : public ::testing::Test
{
  protected:
    static constexpr std::uint64_t kBranches = 20000;
    std::vector<std::string> names_ = {"jpeg", "groff", "real_gcc"};
    BenchmarkSuite suite_ = BenchmarkSuite::ibsSubset(names_,
                                                      kBranches);
    std::vector<std::string> paths_;

    void
    SetUp() override
    {
        // Materialize each benchmark's trace as a CBT2 file, named per
        // test so tests running in parallel never share a file.
        const std::string test = ::testing::UnitTest::GetInstance()
                                     ->current_test_info()
                                     ->name();
        for (std::size_t bench = 0; bench < suite_.size(); ++bench) {
            paths_.push_back(::testing::TempDir() + "/confsim_ft_" +
                             test + "_" + names_[bench] + ".cbt");
            auto generator = suite_.makeGenerator(bench);
            writeTraceFile(*generator, paths_.back());
        }
    }

    void
    TearDown() override
    {
        for (const auto &path : paths_)
            std::remove(path.c_str());
    }

    /** Flip one payload bit of the first chunk of @p path. */
    void
    corruptFile(const std::string &path)
    {
        std::fstream file(path, std::ios::binary | std::ios::in |
                                    std::ios::out);
        ASSERT_TRUE(file);
        // 16-byte CBT2 header + 12-byte chunk header, then payload.
        file.seekp(16 + 12 + 100);
        char byte = 0;
        file.seekg(16 + 12 + 100);
        file.get(byte);
        file.seekp(16 + 12 + 100);
        file.put(static_cast<char>(byte ^ 0x10));
    }

    /** Replay benchmarks from their trace files. */
    SourceWrapper
    fileWrapper(RecoveryMode mode)
    {
        auto paths = paths_;
        return [paths, mode](std::size_t bench,
                             std::unique_ptr<TraceSource>)
                   -> std::unique_ptr<TraceSource> {
            return std::make_unique<TraceFileReader>(paths[bench],
                                                     mode);
        };
    }
};

TEST_F(FaultToleranceTest, CorruptFileFailsFastByDefault)
{
    corruptFile(paths_[1]);
    SuiteRunner runner(suite_);
    runner.setSourceWrapper(fileWrapper(RecoveryMode::kStrict));
    try {
        runner.run(makePredictor(), makeEstimators());
        FAIL() << "corrupt benchmark trace did not abort the run";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("groff"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("CRC"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(FaultToleranceTest, SkipCorruptReaderAvoidsTheFailureEntirely)
{
    corruptFile(paths_[1]);
    SuiteRunner runner(suite_);
    runner.setSourceWrapper(fileWrapper(RecoveryMode::kSkipCorrupt));
    const auto result = runner.run(makePredictor(), makeEstimators());

    // Recovery downgraded the hard failure to a shorter benchmark:
    // the fail-fast run completes, but the corrupted benchmark lost
    // its first chunk.
    ASSERT_EQ(result.perBenchmark.size(), 3u);
    EXPECT_FALSE(result.compositeDegraded);
    EXPECT_LT(result.perBenchmark[1].branches,
              result.perBenchmark[0].branches);
    EXPECT_GT(result.perBenchmark[1].branches, 0u);
}

} // namespace
} // namespace confsim
