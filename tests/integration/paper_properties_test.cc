/** @file
 * Property tests for the paper's qualitative claims, run at reduced
 * scale (a benchmark subset with shorter traces) so the full test
 * suite stays fast. The bench/ harnesses reproduce the quantitative
 * figures at full scale.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "sim/experiment.h"

namespace confsim {
namespace {

/** Shared small-scale experiment environment. */
ExperimentEnv
smallEnv()
{
    ExperimentEnv env;
    env.branchesPerBenchmark = 150000;
    env.fullSuite = false; // jpeg, real_gcc, groff
    return env;
}

double
coverageAt20(const NamedCurve &curve)
{
    return curve.curve.mispredCoverageAt(0.20);
}

class OneLevelProperties : public ::testing::Test
{
  protected:
    static const SuiteRunResult &
    result()
    {
        static const SuiteRunResult r = runSuiteExperiment(
            smallEnv(),
            {{"run", largeGshareFactory(),
              {
                  oneLevelIdealConfig(IndexScheme::Pc),
                  oneLevelIdealConfig(IndexScheme::Bhr),
                  oneLevelIdealConfig(IndexScheme::PcXorBhr),
                  oneLevelIdealConfig(IndexScheme::Gcir),
                  oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                        CounterKind::Resetting),
                  oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                        CounterKind::Saturating),
                  oneLevelOnesCountConfig(IndexScheme::PcXorBhr),
              }}})
            .perConfig.front();
        return r;
    }
};

TEST_F(OneLevelProperties, DynamicBeatsIdealStatic)
{
    // Section 4.1: "the dynamic methods are capable of performing
    // much better than the optimistic static method."
    const auto dynamic = compositeCurve(result(), 2, "PCxorBHR");
    const auto static_curve = staticCompositeCurve(result());
    EXPECT_GT(coverageAt20(dynamic), coverageAt20(static_curve) + 0.05);
}

TEST_F(OneLevelProperties, PcXorBhrIsBestIndexing)
{
    // Fig. 5 ordering: PC^BHR > BHR > PC.
    const double pc = coverageAt20(compositeCurve(result(), 0, "PC"));
    const double bhr = coverageAt20(compositeCurve(result(), 1, "BHR"));
    const double both =
        coverageAt20(compositeCurve(result(), 2, "PCxorBHR"));
    EXPECT_GT(both, pc);
    EXPECT_GE(both, bhr - 0.01); // "a close second"
    EXPECT_GT(bhr, pc);
}

TEST_F(OneLevelProperties, GcirIndexingIsPoor)
{
    // Section 3.1: "indexing with a global CIR is of little value".
    const double gcir =
        coverageAt20(compositeCurve(result(), 3, "GCIR"));
    const double both =
        coverageAt20(compositeCurve(result(), 2, "PCxorBHR"));
    EXPECT_LT(gcir, both - 0.10);
}

TEST_F(OneLevelProperties, ResettingTracksIdealClosely)
{
    // Fig. 8: the resetting counter "tracks the ideal curve closely".
    const double ideal =
        coverageAt20(compositeCurve(result(), 2, "ideal"));
    const double reset =
        coverageAt20(compositeCurve(result(), 4, "reset"));
    EXPECT_GT(reset, ideal - 0.12);
}

TEST_F(OneLevelProperties, SaturatingCannotCoverBeyondItsMaxBucket)
{
    // Fig. 8: saturating counters inflate the max-count bucket, so
    // their curve cannot reach high coverage before the huge bucket.
    // Compare the ref-fraction needed for 85% coverage.
    const auto reset = compositeCurve(result(), 4, "reset");
    const auto sat = compositeCurve(result(), 5, "sat");
    EXPECT_LT(reset.curve.refFractionForCoverage(0.85),
              sat.curve.refFractionForCoverage(0.85));
}

TEST_F(OneLevelProperties, SaturatingMaxBucketOutweighsResettingMax)
{
    // The mechanism behind the previous test: the saturated bucket of
    // the saturating counter carries more misprediction mass than the
    // resetting counter's.
    const auto &reset_stats = result().compositeEstimatorStats[4];
    const auto &sat_stats = result().compositeEstimatorStats[5];
    const double reset_max_miss_share =
        reset_stats[16].mispredicts / reset_stats.totalMispredicts();
    const double sat_max_miss_share =
        sat_stats[16].mispredicts / sat_stats.totalMispredicts();
    EXPECT_GT(sat_max_miss_share, reset_max_miss_share);
}

TEST_F(OneLevelProperties, OnesCountZeroBucketMatchesIdealZeroBucket)
{
    // Fig. 8: "for ones counting the zero bucket lines up with the
    // optimistic zero bucket (as it should)" — bucket 0 of the
    // ones-count estimator aggregates exactly the all-zeros CIRs.
    const auto &ideal_stats = result().compositeEstimatorStats[2];
    const auto &ones_stats = result().compositeEstimatorStats[6];
    EXPECT_NEAR(ones_stats[0].refs, ideal_stats[0].refs,
                1e-6 * std::max(1.0, ideal_stats[0].refs));
    EXPECT_NEAR(ones_stats[0].mispredicts, ideal_stats[0].mispredicts,
                1e-6 * std::max(1.0, ideal_stats[0].mispredicts));
}

TEST_F(OneLevelProperties, ZeroBucketDominatesReferences)
{
    // Section 4.1: the all-zeros CIR is by far the most frequent
    // pattern (paper: ~80% of predictions with a 96% accurate
    // predictor).
    const auto &stats = result().compositeEstimatorStats[2];
    EXPECT_GT(stats[0].refs / stats.totalRefs(), 0.5);
    // ... but carries a small share of the mispredictions.
    EXPECT_LT(stats[0].mispredicts / stats.totalMispredicts(), 0.3);
}

class TwoLevelProperties : public ::testing::Test
{
  protected:
    static const SuiteRunResult &
    result()
    {
        static const SuiteRunResult r = runSuiteExperiment(
            smallEnv(),
            {{"run", largeGshareFactory(),
              {
                  oneLevelIdealConfig(IndexScheme::PcXorBhr),
                  twoLevelConfig(IndexScheme::PcXorBhr,
                                 SecondLevelIndex::Cir),
              }}})
            .perConfig.front();
        return r;
    }
};

TEST_F(TwoLevelProperties, TwoLevelIsNotBetterThanOneLevel)
{
    // Fig. 7: "the one and two level methods give very similar
    // performance. If anything, the two level method performs very
    // slightly worse."
    const double one =
        coverageAt20(compositeCurve(result(), 0, "1lvl"));
    const double two =
        coverageAt20(compositeCurve(result(), 1, "2lvl"));
    EXPECT_LT(two, one + 0.03);
}

TEST(InitializationProperties, ZerosInitIsWorst)
{
    // Fig. 11: all-zeros CT initialization performs clearly worse;
    // ones / random / lastbit are similar.
    ExperimentEnv env = smallEnv();
    const auto result = runSuiteExperiment(
        env,
        {{"run", largeGshareFactory(),
          {
              oneLevelIdealConfig(IndexScheme::PcXorBhr,
                                  paper::kLargeCtEntries,
                                  paper::kCirBits, CtInit::Ones),
              oneLevelIdealConfig(IndexScheme::PcXorBhr,
                                  paper::kLargeCtEntries,
                                  paper::kCirBits, CtInit::Zeros),
              oneLevelIdealConfig(IndexScheme::PcXorBhr,
                                  paper::kLargeCtEntries,
                                  paper::kCirBits, CtInit::LastBit),
          }}})
        .perConfig.front();
    const double ones = coverageAt20(compositeCurve(result, 0, "1"));
    const double zeros = coverageAt20(compositeCurve(result, 1, "0"));
    const double lastbit =
        coverageAt20(compositeCurve(result, 2, "lb"));
    EXPECT_GT(ones, zeros);
    EXPECT_NEAR(lastbit, ones, 0.05);
}

TEST(SmallTableProperties, AliasingDegradesGracefully)
{
    // Fig. 10: performance diminishes in a well-behaved manner as the
    // CT shrinks.
    ExperimentEnv env = smallEnv();
    env.branchesPerBenchmark = 100000;
    const auto result = runSuiteExperiment(
        env,
        {{"run", smallGshareFactory(),
          {
              oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                    CounterKind::Resetting, 4096),
              oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                    CounterKind::Resetting, 512),
              oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                    CounterKind::Resetting, 128),
          }}})
        .perConfig.front();
    const double big = coverageAt20(compositeCurve(result, 0, "4096"));
    const double mid = coverageAt20(compositeCurve(result, 1, "512"));
    const double tiny = coverageAt20(compositeCurve(result, 2, "128"));
    EXPECT_GT(big, mid - 0.02);
    EXPECT_GT(mid, tiny - 0.02);
    EXPECT_GT(big, tiny);
    // Still useful even tiny (paper: smaller tables remain "fairly
    // good").
    EXPECT_GT(tiny, 0.35);
}

TEST(BenchmarkVariationProperties, JpegBeatsGcc)
{
    // Fig. 9: jpeg is the best-behaved benchmark, gcc the worst.
    ExperimentEnv env;
    env.branchesPerBenchmark = 150000;
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 env.branchesPerBenchmark));
    DriverOptions options;
    options.profileStatic = false;
    const auto result = runner.run(
        largeGshareFactory(),
        [] {
            std::vector<std::unique_ptr<ConfidenceEstimator>> out;
            out.push_back(oneLevelIdealConfig(IndexScheme::PcXorBhr)
                              .make());
            return out;
        },
        options);
    const auto jpeg = ConfidenceCurve::fromBucketStats(
        result.perBenchmark[0].estimatorStats[0]);
    const auto gcc = ConfidenceCurve::fromBucketStats(
        result.perBenchmark[1].estimatorStats[0]);
    EXPECT_LT(result.perBenchmark[0].mispredictRate,
              result.perBenchmark[1].mispredictRate);
    // jpeg's zero bucket holds a larger fraction of branches.
    const auto &jpeg_stats = result.perBenchmark[0].estimatorStats[0];
    const auto &gcc_stats = result.perBenchmark[1].estimatorStats[0];
    EXPECT_GT(jpeg_stats[0].refs / jpeg_stats.totalRefs(),
              gcc_stats[0].refs / gcc_stats.totalRefs());
}

} // namespace
} // namespace confsim
