/**
 * @file
 * Differential test of the replay kernel against the independent
 * reference model (reference_model.h). Every case draws a random trace,
 * predictor and estimator geometry, and context-switch interval from
 * its seed, runs both SimulationDriver and the model over
 * the same records, and requires identical branch, misprediction,
 * context-switch, and per-bucket counts. The native predictors (TAGE,
 * the perceptron) and their confidence estimators are checked branch
 * by branch against the model's scalar TAGE and perceptron.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/state_io.h"
#include "confidence/one_level.h"
#include "confidence/perceptron_margin.h"
#include "confidence/tage_confidence.h"
#include "confidence/two_level.h"
#include "predictor/gshare.h"
#include "predictor/perceptron.h"
#include "predictor/tage.h"
#include "reference_model.h"
#include "sim/driver.h"
#include "trace/vector_trace_source.h"
#include "workload/suite.h"

namespace confsim {
namespace {

constexpr int kCases = 64;

/** splitmix64: a seeded stream independent of src/util/rng. */
class Stream
{
  public:
    explicit Stream(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        state_ += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** @return a value in [lo, hi]. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + next() % (hi - lo + 1);
    }

    bool chance(unsigned percent) { return next() % 100 < percent; }

  private:
    std::uint64_t state_;
};

/**
 * A random trace over a pool of static branches: biased, periodic, and
 * history-correlated outcomes, visited with locality, plus a sprinkle
 * of non-conditional records the replay must skip.
 */
std::vector<BranchRecord>
randomTrace(Stream &rng)
{
    const std::size_t statics = rng.range(2, 300);
    const std::uint64_t base = rng.range(0, 1u << 20) * 4;
    std::vector<unsigned> bias(statics);
    std::vector<unsigned> period(statics);
    for (std::size_t s = 0; s < statics; ++s) {
        bias[s] = static_cast<unsigned>(rng.range(0, 100));
        period[s] = rng.chance(30) ? static_cast<unsigned>(rng.range(2, 9))
                                   : 0;
    }
    std::vector<BranchRecord> trace(rng.range(200, 8000));
    std::size_t at = 0;
    bool last = false;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        at = rng.chance(70) ? (at + 1) % statics : rng.range(0, statics - 1);
        BranchRecord &record = trace[i];
        record.pc = base + 4 * at;
        record.target = record.pc + 64;
        if (rng.chance(5)) {
            record.type = rng.chance(50) ? BranchType::Call
                                         : BranchType::Unconditional;
            record.taken = true;
            continue;
        }
        if (period[at] != 0)
            record.taken = (i % period[at]) != 0;
        else if (bias[at] < 10)
            record.taken = !last; // correlated with the previous outcome
        else
            record.taken = rng.chance(bias[at]);
        last = record.taken;
    }
    return trace;
}

reference::EstimatorSpec
randomSpec(Stream &rng)
{
    reference::EstimatorSpec spec;
    spec.kind = static_cast<reference::Kind>(rng.range(0, 3));
    spec.index = static_cast<reference::Index>(rng.range(0, 2));
    spec.indexBits = static_cast<unsigned>(rng.range(1, 12));
    switch (spec.kind) {
      case reference::Kind::CirIdeal:
        spec.width = static_cast<unsigned>(rng.range(1, 10));
        break;
      case reference::Kind::Saturating:
      case reference::Kind::Resetting:
        spec.width = static_cast<unsigned>(rng.range(1, 16));
        spec.init = static_cast<unsigned>(rng.range(0, spec.width + 2));
        break;
      case reference::Kind::TwoLevel:
        spec.width = static_cast<unsigned>(rng.range(1, 8));
        spec.width2 = static_cast<unsigned>(rng.range(1, 8));
        break;
    }
    return spec;
}

IndexScheme
schemeOf(reference::Index index)
{
    switch (index) {
      case reference::Index::Pc: return IndexScheme::Pc;
      case reference::Index::Bhr: return IndexScheme::Bhr;
      case reference::Index::PcXorBhr: return IndexScheme::PcXorBhr;
    }
    return IndexScheme::Pc;
}

/** The simulator's estimator for @p spec. */
std::unique_ptr<ConfidenceEstimator>
makeEstimator(const reference::EstimatorSpec &spec)
{
    const std::size_t entries = std::size_t{1} << spec.indexBits;
    const IndexScheme scheme = schemeOf(spec.index);
    switch (spec.kind) {
      case reference::Kind::CirIdeal:
        return std::make_unique<OneLevelCirConfidence>(
            scheme, entries, spec.width, CirReduction::RawPattern);
      case reference::Kind::Saturating:
        return std::make_unique<OneLevelCounterConfidence>(
            scheme, entries, CounterKind::Saturating, spec.width,
            spec.init);
      case reference::Kind::Resetting:
        return std::make_unique<OneLevelCounterConfidence>(
            scheme, entries, CounterKind::Resetting, spec.width,
            spec.init);
      case reference::Kind::TwoLevel:
        return std::make_unique<TwoLevelConfidence>(
            scheme, entries, spec.width, SecondLevelIndex::Cir,
            spec.width2);
    }
    return nullptr;
}

TEST(ReferenceDifferential, KernelMatchesReferenceModelOnRandomCases)
{
    for (int seed = 0; seed < kCases; ++seed) {
        SCOPED_TRACE("case " + std::to_string(seed));
        Stream rng(0xC0FFEEull * static_cast<std::uint64_t>(seed + 1));
        const std::vector<BranchRecord> trace = randomTrace(rng);

        const unsigned index_bits = static_cast<unsigned>(rng.range(2, 12));
        const unsigned history_bits =
            static_cast<unsigned>(rng.range(1, index_bits));
        std::vector<reference::EstimatorSpec> specs(rng.range(1, 4));
        for (auto &spec : specs)
            spec = randomSpec(rng);

        reference::Options model_options;
        model_options.bhrBits = static_cast<unsigned>(rng.range(1, 20));
        model_options.switchInterval =
            rng.chance(35) ? 0 : rng.range(1, trace.size() / 2);

        std::vector<reference::Estimator> model_estimators;
        for (const auto &spec : specs)
            model_estimators.emplace_back(spec);
        const reference::Result expected = reference::simulate(
            trace, reference::Gshare(index_bits, history_bits),
            model_estimators, model_options);

        GsharePredictor predictor(std::size_t{1} << index_bits,
                                  history_bits);
        std::vector<std::unique_ptr<ConfidenceEstimator>> owned;
        std::vector<ConfidenceEstimator *> estimators;
        for (const auto &spec : specs) {
            owned.push_back(makeEstimator(spec));
            estimators.push_back(owned.back().get());
        }
        DriverOptions options;
        options.bhrBits = model_options.bhrBits;
        options.contextSwitchInterval = model_options.switchInterval;
        SimulationDriver driver(predictor, estimators, options);
        VectorTraceSource source(trace);
        const DriverResult actual = driver.run(source);

        EXPECT_EQ(actual.branches, expected.branches);
        EXPECT_EQ(actual.mispredicts, expected.mispredicts);
        EXPECT_EQ(actual.contextSwitches, expected.contextSwitches);
        ASSERT_EQ(actual.estimatorStats.size(), specs.size());
        for (std::size_t e = 0; e < specs.size(); ++e) {
            SCOPED_TRACE(actual.estimatorNames[e]);
            const BucketStats &stats = actual.estimatorStats[e];
            const auto &want = expected.buckets[e];
            ASSERT_EQ(stats.numBuckets(), want.size());
            for (std::uint64_t b = 0; b < want.size(); ++b) {
                EXPECT_EQ(stats[b].refs, static_cast<double>(want[b].refs))
                    << "bucket " << b;
                EXPECT_EQ(stats[b].mispredicts,
                          static_cast<double>(want[b].mispredicts))
                    << "bucket " << b;
            }
        }
    }
}

/** One conditional branch of a native-predictor stream. */
struct Outcome
{
    std::uint64_t pc;
    bool taken;
};

/** The conditional branches of IBS benchmark @p index, short. */
std::vector<Outcome>
ibsOutcomes(std::size_t index)
{
    const auto source =
        BenchmarkSuite::ibs(20'000).makeGenerator(index);
    std::vector<Outcome> out;
    BranchRecord record;
    while (source->next(record)) {
        if (record.isConditional())
            out.push_back({record.pc, record.taken});
    }
    return out;
}

/**
 * Branches over 4,096 random full-width PCs, so every PC bit reaches
 * the folds: per-PC biases, some outcomes copying the previous one.
 */
std::vector<Outcome>
randomPcOutcomes()
{
    Stream rng(0x7A6EC0DEull);
    std::vector<std::uint64_t> pcs(4096);
    std::vector<unsigned> bias(pcs.size());
    for (std::size_t s = 0; s < pcs.size(); ++s) {
        pcs[s] = rng.next() & ~std::uint64_t{3};
        bias[s] = static_cast<unsigned>(rng.range(0, 100));
    }
    std::vector<Outcome> out(40'000);
    bool last = false;
    for (Outcome &o : out) {
        const std::size_t s = rng.chance(80) ? rng.range(0, 63)
                                             : rng.range(0, pcs.size() - 1);
        o.pc = pcs[s];
        o.taken = bias[s] < 15 ? last : rng.chance(bias[s]);
        last = o.taken;
    }
    return out;
}

/** TAGE and its provider confidence against the reference, per branch,
 *  then the final tables through the checkpoint encoding. */
void
expectTageMatches(const std::vector<Outcome> &stream)
{
    TagePredictor tage;
    TageProviderConfidence confidence;
    confidence.bindPredictor(tage);
    reference::Tage model;
    BranchContext ctx;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const auto [pc, taken] = stream[i];
        const reference::Tage::Detail want = model.lookup(pc);
        const bool predicted = tage.predict(pc);
        const TagePrediction got = tage.predictDetail(pc);
        ASSERT_EQ(predicted, want.taken) << "branch " << i;
        ASSERT_EQ(got.taken, want.taken) << "branch " << i;
        ASSERT_EQ(got.providerTaken, want.providerTaken) << "branch " << i;
        ASSERT_EQ(got.altTaken, want.altTaken) << "branch " << i;
        ASSERT_EQ(got.providerTable, want.providerTable) << "branch " << i;
        ASSERT_EQ(got.altTable, want.altTable) << "branch " << i;
        ASSERT_EQ(got.providerCtr, want.providerCtr) << "branch " << i;
        ASSERT_EQ(got.providerStrength, want.providerStrength)
            << "branch " << i;
        ASSERT_EQ(got.newlyAllocated, want.newlyAllocated)
            << "branch " << i;
        ASSERT_EQ(got.usedAlt, want.usedAlt) << "branch " << i;
        ctx.pc = pc;
        ASSERT_EQ(confidence.update(ctx, predicted == taken, taken),
                  reference::Tage::bucket(want))
            << "branch " << i;
        tage.update(pc, taken);
        model.train(pc, taken);
    }

    StateWriter out;
    tage.saveState(out);
    StateReader in(out.bytes());
    ASSERT_EQ(in.getU64(), reference::Tage::kTables);
    ASSERT_EQ(in.getU64(), model.tables[0].size());
    for (std::size_t t = 0; t < model.tables.size(); ++t) {
        for (std::size_t e = 0; e < model.tables[t].size(); ++e) {
            const reference::Tage::Entry &entry = model.tables[t][e];
            ASSERT_EQ(in.getU16(), entry.tag) << "table " << t << " " << e;
            ASSERT_EQ(in.getU8(), entry.ctr) << "table " << t << " " << e;
            ASSERT_EQ(in.getU8(), entry.u) << "table " << t << " " << e;
        }
    }
    ASSERT_EQ(in.getU64(), model.base.size());
    for (std::size_t e = 0; e < model.base.size(); ++e)
        ASSERT_EQ(in.getU32(), model.base[e]) << "base " << e;
    EXPECT_EQ(in.getU64(),
              model.history & reference::lowBits(reference::Tage::kLengths[3]));
    EXPECT_EQ(in.getU32(), model.useAlt);
    EXPECT_EQ(in.getU64(), model.updates);
}

/** The perceptron and its margin confidence against the reference,
 *  per branch, then the final weights through the checkpoint
 *  encoding. */
void
expectPerceptronMatches(const std::vector<Outcome> &stream)
{
    PerceptronPredictor perceptron;
    PerceptronMarginConfidence confidence;
    confidence.bindPredictor(perceptron);
    reference::Perceptron model;
    BranchContext ctx;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const auto [pc, taken] = stream[i];
        const int want = model.margin(pc);
        const bool predicted = perceptron.predict(pc);
        ASSERT_EQ(predicted, want >= 0) << "branch " << i;
        ASSERT_EQ(perceptron.marginOf(pc), want) << "branch " << i;
        ctx.pc = pc;
        ASSERT_EQ(confidence.update(ctx, predicted == taken, taken),
                  reference::Perceptron::bucket(want,
                                                confidence.numBuckets()))
            << "branch " << i;
        perceptron.update(pc, taken);
        model.train(pc, taken);
    }

    StateWriter out;
    perceptron.saveState(out);
    StateReader in(out.bytes());
    ASSERT_EQ(in.getU64(),
              model.rows.size() * (reference::Perceptron::kHistory + 1));
    for (std::size_t r = 0; r < model.rows.size(); ++r) {
        for (std::size_t w = 0; w < model.rows[r].size(); ++w) {
            ASSERT_EQ(static_cast<std::int32_t>(in.getU32()),
                      model.rows[r][w])
                << "row " << r << " weight " << w;
        }
    }
    EXPECT_EQ(in.getU64(), model.history);
}

TEST(ReferenceDifferential, NativePredictorsMatchReferenceModel)
{
    const BenchmarkSuite suite = BenchmarkSuite::ibs();
    for (std::size_t b = 0; b <= suite.size(); ++b) {
        SCOPED_TRACE(b < suite.size() ? suite.names()[b] : "random PCs");
        const std::vector<Outcome> stream =
            b < suite.size() ? ibsOutcomes(b) : randomPcOutcomes();
        ASSERT_NO_FATAL_FAILURE(expectTageMatches(stream));
        ASSERT_NO_FATAL_FAILURE(expectPerceptronMatches(stream));
    }
}

} // namespace
} // namespace confsim
