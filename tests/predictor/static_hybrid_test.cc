/** @file Unit tests for static predictors and the McFarling hybrid. */

#include "predictor/hybrid.h"

#include <memory>

#include <gtest/gtest.h>

#include "predictor/bimodal.h"
#include "predictor/gshare.h"
#include "support/static_predictor.h"

namespace confsim {
namespace {

TEST(StaticPredictorTest, AlwaysTakenAndNotTaken)
{
    StaticPredictor taken(StaticPolicy::AlwaysTaken);
    StaticPredictor not_taken(StaticPolicy::AlwaysNotTaken);
    EXPECT_TRUE(taken.predict(0x1000));
    EXPECT_FALSE(not_taken.predict(0x1000));
    // Updates never change anything.
    taken.update(0x1000, false);
    not_taken.update(0x1000, true);
    EXPECT_TRUE(taken.predict(0x1000));
    EXPECT_FALSE(not_taken.predict(0x1000));
}

TEST(StaticPredictorTest, BtfntUsesTargetDirection)
{
    StaticPredictor pred(StaticPolicy::BackwardTaken);
    pred.setTarget(0x2000, 0x1000); // backward -> predict taken
    pred.setTarget(0x3000, 0x4000); // forward -> predict not taken
    EXPECT_TRUE(pred.predict(0x2000));
    EXPECT_FALSE(pred.predict(0x3000));
    // Unknown branch falls back to not-taken.
    EXPECT_FALSE(pred.predict(0x9999));
}

TEST(StaticPredictorTest, ZeroStorageAndNames)
{
    StaticPredictor pred(StaticPolicy::AlwaysTaken);
    EXPECT_EQ(pred.storageBits(), 0u);
    EXPECT_EQ(pred.name(), "static-taken");
    EXPECT_EQ(StaticPredictor(StaticPolicy::BackwardTaken).name(),
              "static-btfnt");
}

std::unique_ptr<HybridPredictor>
makeHybrid()
{
    return std::make_unique<HybridPredictor>(
        std::make_unique<BimodalPredictor>(1024),
        std::make_unique<GsharePredictor>(1024, 10), 1024);
}

TEST(HybridTest, StorageIsSumOfParts)
{
    auto hybrid = makeHybrid();
    const std::uint64_t expected = 2048u             // bimodal
                                   + 2048u + 10u     // gshare + BHR
                                   + 2048u;          // chooser
    EXPECT_EQ(hybrid->storageBits(), expected);
}

TEST(HybridTest, ChooserMovesTowardCorrectConstituent)
{
    // Construct a stream the gshare constituent learns but bimodal
    // cannot: a strict alternation. The chooser must migrate to the
    // second (gshare) constituent.
    auto hybrid = makeHybrid();
    bool outcome = false;
    for (int i = 0; i < 4000; ++i) {
        hybrid->update(0x1000, outcome);
        outcome = !outcome;
    }
    EXPECT_TRUE(hybrid->selectsSecond(0x1000));
    int correct = 0;
    for (int i = 0; i < 200; ++i) {
        correct += (hybrid->predict(0x1000) == outcome);
        hybrid->update(0x1000, outcome);
        outcome = !outcome;
    }
    EXPECT_GT(correct, 190);
}

TEST(HybridTest, AgreementDoesNotTrainChooser)
{
    auto hybrid = makeHybrid();
    // Both constituents learn "always taken" and agree; the chooser
    // must stay at its initial weakly-first state.
    const bool initially_second = hybrid->selectsSecond(0x2000);
    for (int i = 0; i < 500; ++i)
        hybrid->update(0x2000, true);
    EXPECT_EQ(hybrid->selectsSecond(0x2000), initially_second);
}

TEST(HybridTest, TracksBetterThanWorseConstituentOnMixedStream)
{
    auto hybrid = makeHybrid();
    auto bimodal_alone = std::make_unique<BimodalPredictor>(1024);
    bool outcome = false;
    int hybrid_correct = 0;
    int bimodal_correct = 0;
    const int warmup = 3000;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        // Alternation: worst case for bimodal.
        if (i >= warmup) {
            hybrid_correct += (hybrid->predict(0x3000) == outcome);
            bimodal_correct +=
                (bimodal_alone->predict(0x3000) == outcome);
        }
        hybrid->update(0x3000, outcome);
        bimodal_alone->update(0x3000, outcome);
        outcome = !outcome;
    }
    EXPECT_GT(hybrid_correct, bimodal_correct + 500);
}

TEST(HybridTest, ResetRestoresEverything)
{
    auto hybrid = makeHybrid();
    bool outcome = false;
    for (int i = 0; i < 2000; ++i) {
        hybrid->update(0x1000, outcome);
        outcome = !outcome;
    }
    hybrid->reset();
    EXPECT_FALSE(hybrid->selectsSecond(0x1000));
    EXPECT_TRUE(hybrid->predict(0x1000)); // weakly taken again
}

TEST(HybridTest, NullConstituentIsFatal)
{
    EXPECT_THROW(HybridPredictor(nullptr,
                                 std::make_unique<BimodalPredictor>(64),
                                 64),
                 std::runtime_error);
}

TEST(HybridTest, NameCombinesConstituents)
{
    auto hybrid = makeHybrid();
    EXPECT_EQ(hybrid->name(),
              "hybrid(bimodal-1024,gshare-1024x2b-h10)");
}

} // namespace
} // namespace confsim
