/**
 * @file
 * Differential test of the replay kernel against the independent
 * reference model (reference_model.h). Every case draws a random trace,
 * predictor and estimator geometry, warmup length, and context-switch
 * interval from its seed, runs both SimulationDriver and the model over
 * the same records, and requires identical branch, misprediction,
 * context-switch, and per-bucket counts.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "confidence/two_level.h"
#include "predictor/gshare.h"
#include "reference_model.h"
#include "sim/driver.h"
#include "trace/vector_trace_source.h"

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
        model_options.warmup =
            rng.chance(30) ? 0 : rng.range(0, trace.size() / 2);
        model_options.switchInterval =
            rng.chance(35) ? 0 : rng.range(1, trace.size() / 2);
        model_options.flushPredictor = rng.chance(60);
        model_options.flushEstimators = rng.chance(60);

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
        options.warmupBranches = model_options.warmup;
        options.contextSwitchInterval = model_options.switchInterval;
        options.flushPredictorOnSwitch = model_options.flushPredictor;
        options.flushEstimatorsOnSwitch = model_options.flushEstimators;
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

} // namespace
} // namespace confsim
