/**
 * @file
 * Property tests for the perceptron predictor and its margin-based
 * confidence estimator. The load-bearing invariants: the prediction is
 * exactly the sign of the margin, training fires iff the prediction
 * was wrong or |margin| <= theta (and moves every weight by exactly
 * +/-1 toward agreement, clamped to the weight range), the memoized
 * margin always equals the dot product recomputed from the weights,
 * the confidence bucket is monotone in |margin|, and a bound estimator
 * reads its predictor's margin.
 */

#include "predictor/perceptron.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/state_io.h"
#include "confidence/perceptron_margin.h"
#include "predictor/gshare.h"
#include "util/error.h"

namespace confsim {
namespace {

/** Deterministic xorshift stream for synthesizing branch activity. */
class Xorshift
{
  public:
    explicit Xorshift(std::uint64_t seed)
        : state_(seed)
    {}

    std::uint64_t
    next()
    {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        return state_;
    }

  private:
    std::uint64_t state_;
};

constexpr std::int32_t kWeightMax =
    (1 << (PerceptronPredictor::kWeightBits - 1)) - 1;
constexpr std::int32_t kWeightMin = -kWeightMax - 1;

TEST(PerceptronTest, PredictionIsSignOfMargin)
{
    PerceptronPredictor pred;
    Xorshift rng(0x9EC50001u);
    for (int i = 0; i < 50'000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t pc = ((r >> 8) & 0xFF) * 4;
        const bool taken = (r & 1) != 0;
        ASSERT_EQ(pred.predict(pc), pred.marginOf(pc) >= 0)
            << "step " << i;
        pred.update(pc, taken);
    }
}

TEST(PerceptronTest, TrainsIffMispredictOrMarginWithinTheta)
{
    PerceptronPredictor pred;
    // Jimenez's tuned threshold: floor(1.93 h + 14) for h = 24.
    ASSERT_EQ(PerceptronPredictor::kTheta, 60);

    Xorshift rng(0x9EC50002u);
    int trained = 0;
    int skipped = 0;
    for (int i = 0; i < 50'000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t pc = ((r >> 8) & 0xFF) * 4;
        const bool taken = (r & 1) != 0;

        const std::int64_t margin = pred.marginOf(pc);
        const bool mispredict = (margin >= 0) != taken;
        const bool should_train =
            mispredict || std::llabs(margin) <= PerceptronPredictor::kTheta;
        ASSERT_EQ(pred.wouldTrain(pc, taken), should_train)
            << "step " << i;

        const std::uint64_t row = pred.rowOf(pc);
        const std::uint64_t history = pred.historyValue();
        std::vector<std::int32_t> before;
        for (unsigned w = 0; w <= PerceptronPredictor::kHistoryBits; ++w)
            before.push_back(pred.weightAt(row, w));

        pred.update(pc, taken);

        for (unsigned w = 0; w <= PerceptronPredictor::kHistoryBits; ++w) {
            std::int32_t expected = before[w];
            if (should_train) {
                // Bias trains on the outcome itself; weight i trains
                // on agreement between history bit i and the outcome.
                const bool agree =
                    w == 0 ? taken
                           : (((history >> (w - 1)) & 1) != 0) == taken;
                expected += agree ? 1 : -1;
                if (expected > kWeightMax)
                    expected = kWeightMax;
                if (expected < kWeightMin)
                    expected = kWeightMin;
            }
            ASSERT_EQ(pred.weightAt(row, w), expected)
                << "weight " << w << " at step " << i
                << (should_train ? " (trained)" : " (frozen)");
        }
        (should_train ? trained : skipped) += 1;
    }
    EXPECT_GT(trained, 1000);
    EXPECT_GT(skipped, 1000)
        << "stream never exercised the confident-skip path";
}

TEST(PerceptronTest, WeightsStayClampedUnderConstantOutcome)
{
    PerceptronPredictor pred;

    // A single always-taken branch drives its bias to saturation.
    for (int i = 0; i < 4 * kWeightMax; ++i)
        pred.update(0x40, true);
    const std::uint64_t row = pred.rowOf(0x40);
    for (unsigned w = 0; w <= PerceptronPredictor::kHistoryBits; ++w) {
        ASSERT_LE(pred.weightAt(row, w), kWeightMax);
        ASSERT_GE(pred.weightAt(row, w), kWeightMin);
    }
    EXPECT_TRUE(pred.predict(0x40));
    EXPECT_GT(pred.marginOf(0x40), PerceptronPredictor::kTheta)
        << "saturated weights should clear the training threshold";
}

/** The dot product for @p pc, recomputed from the weights. */
std::int64_t
recomputedMargin(const PerceptronPredictor &pred, std::uint64_t pc)
{
    const std::uint64_t row = pred.rowOf(pc);
    const std::uint64_t hist = pred.historyValue();
    std::int64_t sum = pred.weightAt(row, 0);
    for (unsigned i = 0; i < PerceptronPredictor::kHistoryBits; ++i) {
        const std::int32_t w = pred.weightAt(row, i + 1);
        sum += ((hist >> i) & 1) != 0 ? w : -w;
    }
    return sum;
}

TEST(PerceptronTest, MemoizedMarginMatchesRecomputedDotProduct)
{
    // After every update, the reset, and the load (into a predictor
    // whose memo holds the PC checked next), marginOf() must be the
    // dot product of the current weights and history, for the PC just
    // trained and for another one.
    auto pred = std::make_unique<PerceptronPredictor>();
    Xorshift rng(0x9EC50004u);
    std::uint64_t pc = 0;
    for (int i = 0; i < 50'000; ++i) {
        const std::uint64_t r = rng.next();
        pc = ((r >> 8) & 0xFF) * 4;
        const std::uint64_t other = ((r >> 16) & 0xFF) * 4;
        (void)pred->predict(pc);
        pred->update(pc, (r & 1) != 0);
        ASSERT_EQ(pred->marginOf(pc), recomputedMargin(*pred, pc))
            << "after update at step " << i;
        ASSERT_EQ(pred->marginOf(other), recomputedMargin(*pred, other))
            << "another PC at step " << i;
        (void)pred->marginOf(pc);
        if (i == 20'000) {
            pred->reset();
            ASSERT_EQ(pred->marginOf(pc), recomputedMargin(*pred, pc))
                << "after reset";
        }
        if (i == 40'000) {
            StateWriter out;
            pred->saveState(out);
            auto restored = std::make_unique<PerceptronPredictor>();
            ASSERT_EQ(restored->marginOf(pc), 0);
            StateReader in(out.bytes());
            restored->loadState(in);
            ASSERT_NE(recomputedMargin(*restored, pc), 0);
            ASSERT_EQ(restored->marginOf(pc), recomputedMargin(*restored, pc))
                << "after loadState";
            pred = std::move(restored);
        }
    }
}

TEST(PerceptronTest, LoadStateRejectsMismatchedGeometry)
{
    // A payload of one row too few.
    constexpr std::size_t kWeights =
        (PerceptronPredictor::kRows - 1) *
        (PerceptronPredictor::kHistoryBits + 1);
    StateWriter out;
    out.putU64(kWeights);
    for (std::size_t w = 0; w < kWeights; ++w)
        out.putU32(0);
    out.putU64(0);

    PerceptronPredictor pred;
    StateReader in(out.bytes());
    EXPECT_THROW(pred.loadState(in), std::runtime_error);
}

TEST(PerceptronTest, LoadStateRejectsWeightOutsideEightBits)
{
    // A checkpoint holds each weight as a sign-extended 32-bit word; a
    // value no 8-bit weight can hold is a corrupt payload.
    constexpr std::size_t kWeights =
        PerceptronPredictor::kRows * (PerceptronPredictor::kHistoryBits + 1);
    for (const std::int32_t bad : {kWeightMax + 1, kWeightMin - 1}) {
        StateWriter out;
        out.putU64(kWeights);
        for (std::size_t w = 0; w < kWeights; ++w)
            out.putU32(static_cast<std::uint32_t>(w == 7 ? bad : 0));
        out.putU64(0);

        PerceptronPredictor pred;
        StateReader in(out.bytes());
        try {
            pred.loadState(in);
            ADD_FAILURE() << "loaded weight " << bad;
        } catch (const Error &e) {
            EXPECT_EQ(e.category(), ErrorCategory::kCheckpoint) << e.what();
        }
    }
}

TEST(PerceptronMarginConfidenceTest, BucketIsMonotoneInMargin)
{
    PerceptronMarginConfidence conf(8);
    EXPECT_EQ(conf.numBuckets(), 8u);
    EXPECT_TRUE(conf.bucketsAreOrdered());

    const std::int64_t theta = PerceptronPredictor::kTheta;
    std::uint64_t prev = 0;
    for (std::int64_t m = 0; m <= theta + 16; ++m) {
        const std::uint64_t bucket = conf.bucketForMargin(m);
        ASSERT_GE(bucket, prev) << "bucket fell at |margin| = " << m;
        ASSERT_LT(bucket, conf.numBuckets());
        // Sign never matters: confidence is the magnitude.
        ASSERT_EQ(conf.bucketForMargin(-m), bucket);
        prev = bucket;
    }
    EXPECT_EQ(conf.bucketForMargin(0), 0u);
    EXPECT_EQ(conf.bucketForMargin(theta + 1), conf.numBuckets() - 1);
    EXPECT_EQ(prev, conf.numBuckets() - 1)
        << "the top bucket is unreachable";
}

TEST(PerceptronMarginConfidenceTest, RejectsDegenerateLevelCount)
{
    EXPECT_THROW(PerceptronMarginConfidence(1), std::runtime_error);
}

TEST(PerceptronMarginConfidenceTest, BoundBucketFollowsPredictorMargin)
{
    PerceptronPredictor pred;
    PerceptronMarginConfidence conf(8);
    conf.bindPredictor(pred);

    Xorshift rng(0x9EC50003u);
    BranchContext ctx;
    std::vector<bool> seen(conf.numBuckets(), false);
    for (int i = 0; i < 50'000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t pc = ((r >> 8) & 0xFF) * 4;
        const bool taken = (r & 1) != 0;
        ctx.pc = pc;

        // The replay kernel's order: predict, bucket, train.
        const bool correct = pred.predict(pc) == taken;
        const std::uint64_t want =
            conf.bucketForMargin(recomputedMargin(pred, pc));
        const std::uint64_t bucket = conf.bucketOf(ctx);
        ASSERT_EQ(bucket, want) << "step " << i;
        seen[bucket] = true;
        // The kernel records update()'s return alone.
        ASSERT_EQ(conf.update(ctx, correct, taken), bucket)
            << "step " << i;
        pred.update(pc, taken);
    }
    EXPECT_GE(std::count(seen.begin(), seen.end(), true), 4);
}

TEST(PerceptronMarginConfidenceTest, UnboundEstimatorReturnsBucketZero)
{
    PerceptronMarginConfidence conf(8);
    Xorshift rng(0x9EC50005u);
    BranchContext ctx;
    for (int i = 0; i < 1'000; ++i) {
        const std::uint64_t r = rng.next();
        ctx.pc = ((r >> 8) & 0xFF) * 4;
        ASSERT_EQ(conf.bucketOf(ctx), 0u);
        conf.update(ctx, (r & 2) != 0, (r & 1) != 0);
    }
    EXPECT_EQ(conf.storageBits(), 0u);
}

TEST(PerceptronMarginConfidenceTest, BindRejectsOtherFamily)
{
    PerceptronMarginConfidence conf(8);
    try {
        conf.bindPredictor(GsharePredictor(4096, 12));
        ADD_FAILURE() << "bound to gshare";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kConfig) << e.what();
    }

    const PerceptronPredictor perceptron;
    EXPECT_NO_THROW(conf.bindPredictor(perceptron));
}

} // namespace
} // namespace confsim
