/**
 * @file
 * Save/load round-trip property tests for every checkpointable
 * component: train an instance, snapshot it, desynchronize a fresh
 * instance, restore the snapshot into it, and require bit-identical
 * behaviour on a continued input stream. This is the per-component
 * half of the bit-exact-resume guarantee; the whole-driver half lives
 * in tests/integration/checkpoint_resume_test.cc.
 */

#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint_store.h"
#include "ckpt/state_io.h"
#include "confidence/associative_ct.h"
#include "confidence/composite_confidence.h"
#include "confidence/one_level.h"
#include "confidence/perceptron_margin.h"
#include "confidence/self_counter.h"
#include "confidence/static_confidence.h"
#include "confidence/tage_confidence.h"
#include "confidence/two_level.h"
#include "confidence/unaliased.h"
#include "predictor/agree.h"
#include "predictor/bimodal.h"
#include "predictor/gselect.h"
#include "predictor/gshare.h"
#include "predictor/hybrid.h"
#include "predictor/perceptron.h"
#include "predictor/static_predictor.h"
#include "predictor/tage.h"
#include "predictor/two_level.h"
#include "sim/suite_runner.h"
#include "sim/sweep_engine.h"
#include "fault/fault_injection.h"
#include "trace/vector_trace_source.h"
#include "workload/workload_generator.h"

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

/** One synthetic dynamic branch: address, context, and resolution. */
struct Step
{
    std::uint64_t pc;
    BranchContext ctx;
    bool correct;
    bool taken;
};

Step
makeStep(Xorshift &rng)
{
    const std::uint64_t r = rng.next();
    Step step;
    // 256 static branches on a 4-byte grid, random 16-bit histories.
    step.pc = ((r >> 8) & 0xFF) * 4;
    step.ctx.pc = step.pc;
    step.ctx.bhr = (r >> 16) & 0xFFFF;
    step.ctx.bhrBits = 16;
    step.ctx.gcir = (r >> 32) & 0xFFFF;
    step.ctx.gcirBits = 16;
    step.correct = ((r >> 1) & 1) != 0;
    step.taken = (r & 1) != 0;
    return step;
}

// ---------------------------------------------------------------------
// Predictors

using PredictorFactory =
    std::function<std::unique_ptr<BranchPredictor>()>;

void
trainPredictor(BranchPredictor &predictor, std::uint64_t seed,
               int steps)
{
    Xorshift rng(seed);
    for (int i = 0; i < steps; ++i) {
        const Step step = makeStep(rng);
        (void)predictor.predict(step.pc);
        predictor.update(step.pc, step.taken);
    }
}

/**
 * The round-trip property: snapshot a trained instance A, restore it
 * into a desynchronized fresh instance B, and drive both through the
 * same continued stream asserting identical predictions throughout.
 */
void
expectPredictorRoundTrip(const PredictorFactory &make)
{
    const auto a = make();
    SCOPED_TRACE(a->name());
    ASSERT_TRUE(a->checkpointable())
        << a->name() << " is not checkpointable";
    trainPredictor(*a, 0xA11CE, 5000);

    StateWriter out;
    a->saveState(out);

    const auto b = make();
    trainPredictor(*b, 0xB0B, 1234); // desynchronize before restore

    StateReader in(out.bytes());
    b->loadState(in);
    EXPECT_TRUE(in.atEnd())
        << a->name() << " left " << in.remaining()
        << " unconsumed byte(s)";

    // serialize -> restore -> serialize is byte-identical.
    StateWriter again;
    b->saveState(again);
    EXPECT_EQ(again.bytes(), out.bytes())
        << a->name() << " re-serialization differs after restore";

    Xorshift rng(0xC0FFEE);
    for (int i = 0; i < 5000; ++i) {
        const Step step = makeStep(rng);
        ASSERT_EQ(a->predict(step.pc), b->predict(step.pc))
            << "diverged at step " << i;
        a->update(step.pc, step.taken);
        b->update(step.pc, step.taken);
    }
}

TEST(PredictorRoundTripTest, Bimodal)
{
    expectPredictorRoundTrip(
        [] { return std::make_unique<BimodalPredictor>(4096); });
}

TEST(PredictorRoundTripTest, Gshare)
{
    expectPredictorRoundTrip(
        [] { return std::make_unique<GsharePredictor>(4096, 12); });
}

TEST(PredictorRoundTripTest, Gselect)
{
    expectPredictorRoundTrip(
        [] { return std::make_unique<GselectPredictor>(4096, 6); });
}

TEST(PredictorRoundTripTest, Agree)
{
    expectPredictorRoundTrip(
        [] { return std::make_unique<AgreePredictor>(4096, 10); });
}

TEST(PredictorRoundTripTest, TwoLevelGAg)
{
    expectPredictorRoundTrip([] {
        return std::make_unique<TwoLevelPredictor>(TwoLevelScheme::GAg,
                                                   12);
    });
}

TEST(PredictorRoundTripTest, TwoLevelPAp)
{
    expectPredictorRoundTrip([] {
        return std::make_unique<TwoLevelPredictor>(TwoLevelScheme::PAp,
                                                   8, 512, 16);
    });
}

TEST(PredictorRoundTripTest, Hybrid)
{
    expectPredictorRoundTrip([] {
        return std::make_unique<HybridPredictor>(
            std::make_unique<GsharePredictor>(1024, 10),
            std::make_unique<BimodalPredictor>(1024), 1024);
    });
}

TEST(PredictorRoundTripTest, Tage)
{
    // Tagged tables, bimodal base, use_alt counter, aging clock and
    // global history all have to survive the trip for the provider
    // selection to stay bit-exact.
    expectPredictorRoundTrip([] {
        return std::make_unique<TagePredictor>(
            TageConfig::makeSmall());
    });
}

TEST(PredictorRoundTripTest, Perceptron)
{
    expectPredictorRoundTrip([] {
        return std::make_unique<PerceptronPredictor>(
            PerceptronConfig::makeSmall());
    });
}

TEST(PredictorRoundTripTest, Static)
{
    expectPredictorRoundTrip([] {
        return std::make_unique<StaticPredictor>(
            StaticPolicy::AlwaysTaken);
    });
}

// ---------------------------------------------------------------------
// Confidence estimators

using EstimatorFactory =
    std::function<std::unique_ptr<ConfidenceEstimator>()>;

void
trainEstimator(ConfidenceEstimator &estimator, std::uint64_t seed,
               int steps)
{
    Xorshift rng(seed);
    for (int i = 0; i < steps; ++i) {
        const Step step = makeStep(rng);
        (void)estimator.bucketOf(step.ctx);
        estimator.update(step.ctx, step.correct, step.taken);
    }
}

void
expectEstimatorRoundTrip(const EstimatorFactory &make)
{
    const auto a = make();
    SCOPED_TRACE(a->name());
    ASSERT_TRUE(a->checkpointable())
        << a->name() << " is not checkpointable";
    trainEstimator(*a, 0xA11CE, 5000);

    StateWriter out;
    a->saveState(out);

    const auto b = make();
    trainEstimator(*b, 0xB0B, 1234); // desynchronize before restore

    StateReader in(out.bytes());
    b->loadState(in);
    EXPECT_TRUE(in.atEnd())
        << a->name() << " left " << in.remaining()
        << " unconsumed byte(s)";

    // serialize -> restore -> serialize is byte-identical.
    StateWriter again;
    b->saveState(again);
    EXPECT_EQ(again.bytes(), out.bytes())
        << a->name() << " re-serialization differs after restore";

    Xorshift rng(0xC0FFEE);
    for (int i = 0; i < 5000; ++i) {
        const Step step = makeStep(rng);
        ASSERT_EQ(a->bucketOf(step.ctx), b->bucketOf(step.ctx))
            << "diverged at step " << i;
        a->update(step.ctx, step.correct, step.taken);
        b->update(step.ctx, step.correct, step.taken);
    }
}

TEST(EstimatorRoundTripTest, OneLevelCirRawPattern)
{
    expectEstimatorRoundTrip([] {
        return std::make_unique<OneLevelCirConfidence>(
            IndexScheme::PcXorBhr, 4096, 4, CirReduction::RawPattern);
    });
}

TEST(EstimatorRoundTripTest, OneLevelCirOnesCount)
{
    expectEstimatorRoundTrip([] {
        return std::make_unique<OneLevelCirConfidence>(
            IndexScheme::Pc, 1024, 8, CirReduction::OnesCount,
            CtInit::Zeros);
    });
}

TEST(EstimatorRoundTripTest, OneLevelCounterSaturating)
{
    expectEstimatorRoundTrip([] {
        return std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::PcXorBhr, 4096, CounterKind::Saturating, 16,
            0);
    });
}

TEST(EstimatorRoundTripTest, OneLevelCounterResetting)
{
    expectEstimatorRoundTrip([] {
        return std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::PcXorBhr, 4096, CounterKind::Resetting, 16,
            0);
    });
}

TEST(EstimatorRoundTripTest, OneLevelCounterHalfReset)
{
    expectEstimatorRoundTrip([] {
        return std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::Pc, 1024, CounterKind::HalfReset, 16, 0);
    });
}

TEST(EstimatorRoundTripTest, TwoLevelCir)
{
    expectEstimatorRoundTrip([] {
        return std::make_unique<TwoLevelConfidence>(
            IndexScheme::PcXorBhr, 4096, 8, SecondLevelIndex::Cir, 4);
    });
}

TEST(EstimatorRoundTripTest, TwoLevelCirXorPcXorBhr)
{
    expectEstimatorRoundTrip([] {
        return std::make_unique<TwoLevelConfidence>(
            IndexScheme::Pc, 1024, 6,
            SecondLevelIndex::CirXorPcXorBhr, 5);
    });
}

TEST(EstimatorRoundTripTest, SelfCounter)
{
    expectEstimatorRoundTrip([] {
        return std::make_unique<SelfCounterConfidence>(IndexScheme::Pc,
                                                       4096, 3);
    });
}

TEST(EstimatorRoundTripTest, AssociativeCounter)
{
    // Tagged and associative: replacement state must survive the trip.
    expectEstimatorRoundTrip([] {
        return std::make_unique<AssociativeCounterConfidence>(
            IndexScheme::Pc, 256, 4, 8, CounterKind::Resetting, 16);
    });
}

TEST(EstimatorRoundTripTest, UnaliasedCounter)
{
    // Backed by an unordered per-PC map: serialization must impose a
    // deterministic order for the round trip to be bit-exact.
    expectEstimatorRoundTrip([] {
        return std::make_unique<UnaliasedCounterConfidence>(
            IndexScheme::Pc, CounterKind::Saturating, 16);
    });
}

TEST(EstimatorRoundTripTest, Composite)
{
    expectEstimatorRoundTrip([] {
        return std::make_unique<CompositeConfidence>(
            std::make_unique<OneLevelCounterConfidence>(
                IndexScheme::PcXorBhr, 1024, CounterKind::Saturating,
                16, 0),
            std::make_unique<SelfCounterConfidence>(IndexScheme::Pc,
                                                    1024, 3));
    });
}

TEST(EstimatorRoundTripTest, TageProvider)
{
    // The estimator is a full shadow TAGE replica; its state is the
    // predictor's state and must restore to the same bucket stream.
    expectEstimatorRoundTrip([] {
        return std::make_unique<TageProviderConfidence>(
            TageConfig::makeSmall());
    });
}

TEST(EstimatorRoundTripTest, PerceptronMargin)
{
    expectEstimatorRoundTrip([] {
        return std::make_unique<PerceptronMarginConfidence>(
            PerceptronConfig::makeSmall(), 8);
    });
}

TEST(EstimatorRoundTripTest, StaticProfile)
{
    expectEstimatorRoundTrip([] {
        return std::make_unique<StaticConfidence>(
            std::unordered_set<std::uint64_t>{0x10, 0x40, 0x100});
    });
}

// ---------------------------------------------------------------------
// Trace sources

TEST(TraceSourceRoundTripTest, WorkloadGeneratorResumesMidStream)
{
    const BenchmarkProfile profile = ibsProfile("groff");
    WorkloadGenerator a(profile, 40000);
    ASSERT_TRUE(a.checkpointable());

    BranchRecord record;
    for (int i = 0; i < 15000; ++i)
        ASSERT_TRUE(a.next(record));

    StateWriter out;
    a.saveState(out);

    WorkloadGenerator b(profile, 40000);
    for (int i = 0; i < 37; ++i) // desynchronize before restore
        ASSERT_TRUE(b.next(record));
    StateReader in(out.bytes());
    b.loadState(in);
    EXPECT_TRUE(in.atEnd());

    // Both must now emit the identical remainder of the trace.
    std::uint64_t remaining = 0;
    for (;;) {
        BranchRecord ra;
        BranchRecord rb;
        const bool more_a = a.next(ra);
        const bool more_b = b.next(rb);
        ASSERT_EQ(more_a, more_b);
        if (!more_a)
            break;
        ASSERT_EQ(ra, rb) << "diverged " << remaining
                          << " records after restore";
        ++remaining;
    }
    EXPECT_EQ(remaining, 25000u);
}

TEST(TraceSourceRoundTripTest, FaultInjectingSourceResumesMidStream)
{
    // The decorator carries an Rng plus drop/duplicate bookkeeping on
    // top of its inner source; all of it must survive the round trip.
    std::vector<BranchRecord> records;
    Xorshift rng(0x7EA5E);
    for (int i = 0; i < 2000; ++i) {
        const Step step = makeStep(rng);
        BranchRecord record;
        record.pc = step.pc;
        record.target = step.pc + 8;
        record.taken = step.taken;
        records.push_back(record);
    }
    FaultSpec spec;
    spec.dropProb = 0.1;
    spec.duplicateProb = 0.1;

    FaultInjectingTraceSource a(
        std::make_unique<VectorTraceSource>(records), spec);
    ASSERT_TRUE(a.checkpointable());
    BranchRecord record;
    for (int i = 0; i < 500; ++i)
        ASSERT_TRUE(a.next(record));

    StateWriter out;
    a.saveState(out);

    FaultInjectingTraceSource b(
        std::make_unique<VectorTraceSource>(records), spec);
    for (int i = 0; i < 7; ++i) // desynchronize before restore
        ASSERT_TRUE(b.next(record));
    StateReader in(out.bytes());
    b.loadState(in);
    EXPECT_TRUE(in.atEnd());

    for (;;) {
        BranchRecord ra;
        BranchRecord rb;
        const bool more_a = a.next(ra);
        const bool more_b = b.next(rb);
        ASSERT_EQ(more_a, more_b);
        if (!more_a)
            break;
        ASSERT_EQ(ra, rb);
    }
}

// ---------------------------------------------------------------------
// The checkpointable gate, on the one replay path every run takes

/** An estimator that never audited its state (checkpointable()==false). */
class OpaqueEstimator : public ConfidenceEstimator
{
  public:
    std::uint64_t
    bucketOf(const BranchContext &) const override
    {
        return 0;
    }
    void update(const BranchContext &, bool, bool) override {}
    std::uint64_t numBuckets() const override { return 1; }
    std::uint64_t storageBits() const override { return 0; }
    std::string name() const override { return "opaque"; }
    void reset() override {}
};

TEST(DriverCheckpointGateTest, RefusesNonCheckpointableEstimator)
{
    const std::string dir =
        ::testing::TempDir() + "/confsim_ckpt_gate";
    std::filesystem::remove_all(dir);

    const SweepConfiguration opaque{
        "opaque", [] { return std::make_unique<GsharePredictor>(1024, 10); },
        [] {
            std::vector<std::unique_ptr<ConfidenceEstimator>> out;
            out.push_back(std::make_unique<OpaqueEstimator>());
            return out;
        }};
    std::vector<BranchRecord> records(5000);
    for (std::size_t i = 0; i < records.size(); ++i) {
        records[i].pc = 0x1000 + 4 * (i % 64);
        records[i].taken = (i % 3) != 0;
    }
    CheckpointStore store(dir, "gate", 2);

    // A period with no store, and a non-checkpointable estimator with
    // a period, must both be rejected up front — never mid-run.
    SweepEngine engine({opaque});
    EXPECT_THROW(engine.checkpointEvery(1000, nullptr),
                 std::runtime_error);
    engine.checkpointEvery(1000, &store);
    VectorTraceSource refused(records);
    EXPECT_THROW(engine.run(refused), std::runtime_error);
    EXPECT_TRUE(store.generations().empty());

    // Disabling is always allowed.
    engine.checkpointEvery(0, nullptr);
    VectorTraceSource allowed(records);
    EXPECT_NO_THROW(engine.run(allowed));

    // The suite runner's per-benchmark path refuses the same way.
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg"}, 2000));
    RunPolicy policy;
    policy.checkpoint.directory = dir;
    EXPECT_THROW(runner.run(opaque.makePredictor, opaque.makeEstimators,
                            {}, policy),
                 std::runtime_error);

    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace confsim
