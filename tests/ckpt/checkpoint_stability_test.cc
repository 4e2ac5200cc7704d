/**
 * @file
 * Checkpoint-format stability for the figure configuration: the large
 * gshare with PCxorBHR-ideal, two-level CIR and resetting-counter
 * estimators, static profiling on. Its configuration fingerprint and
 * the bytes of its trained state are pinned to values recorded when
 * CIR tables held 64-bit entries, counters 32-bit ones and the static
 * profile was a std::unordered_map. The narrower in-memory tables
 * must encode exactly as those did, so checkpoints and done-markers
 * written before still resume.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/state_io.h"
#include "sim/experiment.h"
#include "sim/replay_kernel.h"
#include "trace/record_batch.h"
#include "util/crc32.h"
#include "workload/suite.h"

namespace confsim {
namespace {

/** One figure configuration, freshly built. */
struct FigureConfiguration
{
    std::unique_ptr<BranchPredictor> predictor = largeGshareFactory()();
    std::vector<std::unique_ptr<ConfidenceEstimator>> owned;
    std::vector<ConfidenceEstimator *> estimators;
    DriverOptions options;

    FigureConfiguration()
    {
        const IndexScheme x = IndexScheme::PcXorBhr;
        for (const EstimatorConfig &config :
             {oneLevelIdealConfig(x), twoLevelConfig(x, SecondLevelIndex::Cir),
              oneLevelCounterConfig(x, CounterKind::Resetting)}) {
            owned.push_back(config.make());
            estimators.push_back(owned.back().get());
        }
        options.bhrBits = paper::kLargeHistoryBits;
        options.gcirBits = paper::kCirBits;
        options.profileStatic = true;
    }
};

TEST(ConfigFingerprintTest, FigureConfigurationMatchesRecordedValue)
{
    const FigureConfiguration figure;
    EXPECT_EQ(configFingerprint(*figure.predictor, figure.estimators,
                                figure.options),
              0xAD964BB0u);
}

TEST(ConfigFingerprintTest, TrainedFigureStateMatchesRecordedBytes)
{
    FigureConfiguration figure;
    ReplayKernel kernel(*figure.predictor, figure.estimators, "figure",
                        figure.options);
    const ReplayGuard guard(figure.options);
    const auto source = BenchmarkSuite::ibsSmall(20'000).makeGenerator(0);
    RecordBatch batch;
    while (batch.refill(*source) != 0)
        kernel.replay(batch, guard);

    StateWriter out;
    figure.predictor->saveState(out);
    for (const ConfidenceEstimator *estimator : figure.estimators)
        estimator->saveState(out);
    for (const BucketStats &stats : kernel.result().estimatorStats)
        stats.saveState(out);
    kernel.result().staticProfile.saveState(out);

    EXPECT_EQ(out.bytes().size(), 2'141'768u);
    EXPECT_EQ(crc32(out.bytes().data(), out.bytes().size()), 0x7F7F10BEu);
}

} // namespace
} // namespace confsim
