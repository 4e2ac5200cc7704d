/**
 * @file
 * Property/invariant tests for every confidence estimator family.
 *
 * Three invariants that must hold for ANY estimator, independent of
 * workload:
 *
 *  1. Bucket ceiling: bucketOf() never reaches numBuckets(), and for
 *     the CIR/counter families numBuckets() equals the bit-width or
 *     counter-range ceiling the geometry implies (a b-bit CIR can only
 *     produce 2^b raw patterns; a max-M counter only M+1 values). On
 *     the same stream, update() returns exactly the bucketOf() value
 *     read just before it: the replay kernel records update()'s
 *     return alone, so a family whose two methods disagreed would
 *     change results silently.
 *  2. Conservation: the driver's per-estimator bucket totals sum
 *     exactly to the number of recorded conditional branches — every
 *     prediction lands in exactly one bucket.
 *  3. Threshold monotonicity: sorting buckets by misprediction rate
 *     (the paper's reduction order) and growing the low-confidence
 *     prefix one bucket at a time, PVN (P(mispredict | low)) and SPEC
 *     (fraction of correct predictions left in the high set) are both
 *     non-increasing. PVN is a running weighted average of
 *     non-increasing rates; SPEC only loses correct predictions as
 *     the high set shrinks. A violation means either the reduction
 *     sort or the bucket accounting is broken.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "confidence/associative_ct.h"
#include "confidence/composite_confidence.h"
#include "confidence/one_level.h"
#include "confidence/self_counter.h"
#include "confidence/two_level.h"
#include "confidence/unaliased.h"
#include "metrics/classification_metrics.h"
#include "predictor/gshare.h"
#include "predictor/history_register.h"
#include "sim/driver.h"
#include "util/shift_register.h"
#include "workload/suite.h"

namespace confsim {
namespace {

constexpr std::uint64_t kBranches = 30'000;

/** A labelled estimator builder for the property matrix. */
struct NamedEstimator
{
    std::string label;
    std::unique_ptr<ConfidenceEstimator> estimator;
};

std::vector<NamedEstimator>
allEstimators()
{
    std::vector<NamedEstimator> out;
    out.push_back({"one_level_raw",
                   std::make_unique<OneLevelCirConfidence>(
                       IndexScheme::PcXorBhr, 1024, 8,
                       CirReduction::RawPattern, CtInit::Ones)});
    out.push_back({"one_level_ones",
                   std::make_unique<OneLevelCirConfidence>(
                       IndexScheme::Pc, 1024, 12,
                       CirReduction::OnesCount, CtInit::Ones)});
    out.push_back({"counter_saturating",
                   std::make_unique<OneLevelCounterConfidence>(
                       IndexScheme::PcXorBhr, 1024,
                       CounterKind::Saturating, 16, 0)});
    out.push_back({"counter_resetting",
                   std::make_unique<OneLevelCounterConfidence>(
                       IndexScheme::PcXorBhr, 1024,
                       CounterKind::Resetting, 16, 0)});
    out.push_back({"counter_half_reset",
                   std::make_unique<OneLevelCounterConfidence>(
                       IndexScheme::Pc, 1024, CounterKind::HalfReset,
                       16, 0)});
    out.push_back({"two_level",
                   std::make_unique<TwoLevelConfidence>(
                       IndexScheme::Pc, 1024, 8,
                       SecondLevelIndex::CirXorPc, 8)});
    out.push_back({"self_counter",
                   std::make_unique<SelfCounterConfidence>(
                       IndexScheme::Pc, 1024, 3)});
    out.push_back({"unaliased",
                   std::make_unique<UnaliasedCounterConfidence>(
                       IndexScheme::PcXorBhr, CounterKind::Resetting,
                       16)});
    out.push_back({"associative",
                   std::make_unique<AssociativeCounterConfidence>(
                       IndexScheme::Pc, 256, 4, 8,
                       CounterKind::Saturating, 16)});
    out.push_back({"composite",
                   std::make_unique<CompositeConfidence>(
                       std::make_unique<OneLevelCounterConfidence>(
                           IndexScheme::PcXorBhr, 1024,
                           CounterKind::Resetting, 16, 0),
                       std::make_unique<SelfCounterConfidence>(
                           IndexScheme::Pc, 1024, 3))});
    return out;
}

TEST(EstimatorInvariants, GeometryCeilingsMatchBitWidths)
{
    // A b-bit CIR has exactly 2^b raw patterns and b+1 ones-counts.
    EXPECT_EQ(OneLevelCirConfidence(IndexScheme::Pc, 64, 8,
                                    CirReduction::RawPattern)
                  .numBuckets(),
              std::uint64_t{1} << 8);
    EXPECT_EQ(OneLevelCirConfidence(IndexScheme::Pc, 64, 12,
                                    CirReduction::RawPattern)
                  .numBuckets(),
              std::uint64_t{1} << 12);
    EXPECT_EQ(OneLevelCirConfidence(IndexScheme::Pc, 64, 8,
                                    CirReduction::OnesCount)
                  .numBuckets(),
              9u);
    // A counter saturating at M emits exactly M+1 values.
    EXPECT_EQ(OneLevelCounterConfidence(IndexScheme::Pc, 64,
                                        CounterKind::Saturating, 16)
                  .numBuckets(),
              17u);
    EXPECT_EQ(OneLevelCounterConfidence(IndexScheme::Pc, 64,
                                        CounterKind::Resetting, 7)
                  .numBuckets(),
              8u);
}

TEST(EstimatorInvariants, BucketsNeverExceedCeiling)
{
    // Drive every estimator with a realistic predictor-correctness
    // stream and assert the emitted bucket stays below numBuckets(),
    // and that update() returns it, on every single branch.
    for (auto &named : allEstimators()) {
        SCOPED_TRACE(named.label);
        ConfidenceEstimator &estimator = *named.estimator;
        const std::uint64_t ceiling = estimator.numBuckets();
        ASSERT_GT(ceiling, 0u);

        GsharePredictor predictor(4096, 12);
        HistoryRegister bhr(16);
        ShiftRegister gcir(16, 0);
        BranchContext ctx;

        const auto suite = BenchmarkSuite::ibsSmall(kBranches);
        const auto source = suite.makeGenerator(0);
        BranchRecord record;
        while (source->next(record)) {
            if (!record.isConditional())
                continue;
            ctx.pc = record.pc;
            ctx.bhr = bhr.value();
            ctx.gcir = gcir.value();
            const bool correct =
                predictor.predict(record.pc) == record.taken;
            const std::uint64_t bucket = estimator.bucketOf(ctx);
            ASSERT_LT(bucket, ceiling);
            ASSERT_EQ(estimator.update(ctx, correct, record.taken), bucket);
            predictor.update(record.pc, record.taken);
            bhr.recordOutcome(record.taken);
            gcir.shiftIn(!correct);
        }
    }
}

TEST(EstimatorInvariants, BucketTotalsSumToRecordedBranches)
{
    // Every prediction lands in exactly one bucket: the driver's
    // per-estimator totals must equal its recorded branch count,
    // exactly, with and without context switches.
    for (const std::uint64_t interval : {std::uint64_t{0},
                                         std::uint64_t{5'000}}) {
        auto named = allEstimators();
        std::vector<ConfidenceEstimator *> raw;
        raw.reserve(named.size());
        for (auto &entry : named)
            raw.push_back(entry.estimator.get());

        GsharePredictor predictor(4096, 12);
        DriverOptions options;
        options.contextSwitchInterval = interval;
        SimulationDriver driver(predictor, raw, options);
        const auto suite = BenchmarkSuite::ibsSmall(kBranches);
        const auto source = suite.makeGenerator(1);
        const DriverResult result = driver.run(*source);

        ASSERT_GT(result.branches, 0u);
        for (std::size_t e = 0; e < raw.size(); ++e) {
            SCOPED_TRACE(named[e].label + " interval=" +
                         std::to_string(interval));
            EXPECT_EQ(result.estimatorStats[e].totalRefs(),
                      static_cast<double>(result.branches));
            EXPECT_EQ(result.estimatorStats[e].totalMispredicts(),
                      static_cast<double>(result.mispredicts));
        }
    }
}

TEST(EstimatorInvariants, PvnAndSpecMonotoneAlongRateSortedThresholds)
{
    auto named = allEstimators();
    std::vector<ConfidenceEstimator *> raw;
    raw.reserve(named.size());
    for (auto &entry : named)
        raw.push_back(entry.estimator.get());

    GsharePredictor predictor(4096, 12);
    SimulationDriver driver(predictor, raw, DriverOptions{});
    const auto suite = BenchmarkSuite::ibsSmall(kBranches);
    const auto source = suite.makeGenerator(2);
    const DriverResult result = driver.run(*source);

    // Exact-count sums tolerate no rounding, but the PVN/SPEC ratios
    // divide accumulated doubles, so allow for one ulp of slack.
    constexpr double kEps = 1e-12;
    for (std::size_t e = 0; e < raw.size(); ++e) {
        SCOPED_TRACE(named[e].label);
        std::vector<KeyedBucketCounts> buckets =
            result.estimatorStats[e].nonEmpty();
        ASSERT_GT(buckets.size(), 1u)
            << "degenerate run: everything in one bucket";
        // The paper's reduction order: worst (highest-rate) first.
        std::sort(buckets.begin(), buckets.end(),
                  [](const KeyedBucketCounts &a,
                     const KeyedBucketCounts &b) {
                      return a.counts.rate() > b.counts.rate();
                  });

        double total_refs = 0.0, total_miss = 0.0;
        for (const auto &bucket : buckets) {
            total_refs += bucket.counts.refs;
            total_miss += bucket.counts.mispredicts;
        }
        const double total_correct = total_refs - total_miss;

        double low_refs = 0.0, low_miss = 0.0;
        double prev_pvn = 1.0 + kEps, prev_spec = 1.0 + kEps;
        for (std::size_t k = 0; k + 1 < buckets.size(); ++k) {
            low_refs += buckets[k].counts.refs;
            low_miss += buckets[k].counts.mispredicts;
            const double pvn = low_miss / low_refs;
            const double low_correct = low_refs - low_miss;
            const double spec =
                (total_correct - low_correct) / total_correct;
            EXPECT_LE(pvn, prev_pvn + kEps)
                << "PVN rose at threshold " << k;
            EXPECT_LE(spec, prev_spec + kEps)
                << "SPEC rose at threshold " << k;
            prev_pvn = pvn;
            prev_spec = spec;
        }
    }
}

} // namespace
} // namespace confsim
