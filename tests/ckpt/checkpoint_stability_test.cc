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
 *
 * The native configurations (TAGE with provider confidence, the
 * perceptron with margin confidence) are pinned the same way, to
 * values recorded when TAGE kept a vector per tagged table and the
 * perceptron 32-bit weights.
 */

#include <memory>
#include <string>
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

/** A native configuration as runSuiteExperiment builds it. */
struct NativeConfiguration
{
    std::unique_ptr<BranchPredictor> predictor;
    std::unique_ptr<ConfidenceEstimator> estimator;
    std::vector<ConfidenceEstimator *> estimators;
    DriverOptions options;

    NativeConfiguration(const PredictorFactory &make_predictor,
                        const EstimatorConfig &config)
        : predictor(make_predictor()), estimator(config.make()),
          estimators{estimator.get()}
    {
        options.bhrBits = paper::kLargeHistoryBits;
        options.gcirBits = paper::kCirBits;
        options.profileStatic = true;
    }
};

NativeConfiguration
tageConfiguration()
{
    return NativeConfiguration(tageFactory(), tageProviderConfig());
}

NativeConfiguration
perceptronConfiguration()
{
    return NativeConfiguration(perceptronFactory(),
                               perceptronMarginConfig());
}

/** The size and CRC-32 of a component's saveState bytes. */
struct Encoding
{
    std::size_t size;
    std::uint32_t crc;
};

template <typename Component>
Encoding
encodingOf(const Component &component)
{
    StateWriter out;
    component.saveState(out);
    return {out.bytes().size(),
            crc32(out.bytes().data(), out.bytes().size())};
}

TEST(ConfigFingerprintTest, NativeConfigurationsMatchRecordedValues)
{
    const NativeConfiguration tage = tageConfiguration();
    EXPECT_EQ(configFingerprint(*tage.predictor, tage.estimators,
                                tage.options),
              0x48FD51D9u);
    const NativeConfiguration perceptron = perceptronConfiguration();
    EXPECT_EQ(configFingerprint(*perceptron.predictor,
                                perceptron.estimators, perceptron.options),
              0xED9D700Eu);
}

TEST(ConfigFingerprintTest, TrainedNativeStateMatchesRecordedBytes)
{
    struct Recorded
    {
        std::string label;
        NativeConfiguration configuration;
        Encoding predictor;
        Encoding estimator;
    };
    Recorded recorded[] = {
        {"tage", tageConfiguration(), {32'812u, 0xCC6DF299u},
         {8u, 0xEBADD88Au}},
        {"perceptron", perceptronConfiguration(), {51'216u, 0x58BE8263u},
         {16u, 0xAA6AF131u}},
    };
    for (Recorded &r : recorded) {
        SCOPED_TRACE(r.label);
        NativeConfiguration &c = r.configuration;
        ReplayKernel kernel(*c.predictor, c.estimators, r.label, c.options);
        const ReplayGuard guard(c.options);
        const auto source =
            BenchmarkSuite::ibsSmall(20'000).makeGenerator(0);
        RecordBatch batch;
        while (batch.refill(*source) != 0)
            kernel.replay(batch, guard);

        const Encoding predictor = encodingOf(*c.predictor);
        const Encoding estimator = encodingOf(*c.estimator);
        EXPECT_EQ(predictor.size, r.predictor.size);
        EXPECT_EQ(predictor.crc, r.predictor.crc);
        EXPECT_EQ(estimator.size, r.estimator.size);
        EXPECT_EQ(estimator.crc, r.estimator.crc);
    }
}

} // namespace
} // namespace confsim
