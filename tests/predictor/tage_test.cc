/**
 * @file
 * Property tests for the TAGE predictor and its provider-confidence
 * estimator. The white-box invariants here are the ones the paper-wall
 * relies on: useful counters move only on provider-vs-alternate
 * disagreement outcomes, periodic aging halves every useful counter,
 * allocation on a mispredict claims the first u == 0 candidate (or
 * decays all candidates when none is free), the incremental history
 * folds and the memoized lookup always agree with hashes recomputed
 * from the history register, and a bound TageProviderConfidence reads
 * its predictor's provider.
 */

#include "predictor/tage.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/state_io.h"
#include "confidence/tage_confidence.h"
#include "predictor/gshare.h"
#include "util/bits.h"
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

/** Streams shorter than this never reach an aging boundary, so their
 *  u deltas are fully attributable. */
static_assert(TagePredictor::kAgingPeriod > 200'000);

TEST(TageTest, NameAndStorageReflectGeometry)
{
    TagePredictor pred;
    EXPECT_EQ(pred.name(), "tage-4x1024-h52");
    EXPECT_EQ(TagePredictor::kTables, 4u);
    // 3-bit counters (values 0..7, midpoint 4) distinguish 4
    // strength levels per direction.
    EXPECT_EQ(pred.strengthLevels(), 4u);
    EXPECT_GT(pred.storageBits(), 0u);
}

TEST(TageTest, UsefulCounterMovesOnlyOnProviderAltDisagreement)
{
    TagePredictor pred;
    const std::uint8_t u_max = 3; // 2-bit useful counters

    Xorshift rng(0x7A6E0001u);
    int disagreements = 0;
    for (int i = 0; i < 200'000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t pc = ((r >> 8) & 0x3F) * 4;
        const bool taken = (r & 1) != 0;

        const TagePrediction d = pred.predictDetail(pc);
        if (d.providerTable < 0) {
            pred.update(pc, taken);
            continue;
        }
        const auto table = static_cast<std::size_t>(d.providerTable);
        const std::uint64_t index = pred.indexOf(table, pc);
        const std::uint8_t u_before = pred.entryAt(table, index).u;

        pred.update(pc, taken);
        const std::uint8_t u_after = pred.entryAt(table, index).u;

        if (d.providerTaken == d.altTaken) {
            // Agreement carries no evidence about the provider's worth.
            // Allocation/decay can only touch *longer* tables, so the
            // provider entry's u must be untouched.
            ASSERT_EQ(u_after, u_before)
                << "u moved without provider/alt disagreement at step "
                << i;
        } else {
            ++disagreements;
            const std::uint8_t expected =
                d.providerTaken == taken
                    ? static_cast<std::uint8_t>(
                          u_before < u_max ? u_before + 1 : u_max)
                    : static_cast<std::uint8_t>(
                          u_before > 0 ? u_before - 1 : 0);
            ASSERT_EQ(u_after, expected)
                << "wrong u delta on disagreement at step " << i;
        }
    }
    EXPECT_GT(disagreements, 100)
        << "stream never exercised the disagreement path";
}

TEST(TageTest, PeriodicAgingHalvesUsefulCounters)
{
    TagePredictor pred;

    Xorshift rng(0x7A6E0002u);
    // Stop one update short of the aging boundary.
    while (pred.updateCount() < TagePredictor::kAgingPeriod - 1) {
        const std::uint64_t r = rng.next();
        pred.update(((r >> 8) & 0x3F) * 4, (r & 1) != 0);
    }

    // The final update may itself move u at the entries it touches
    // (provider entry, allocation candidates at this pc's indices), so
    // check the halving on every entry it cannot reach.
    const std::uint64_t r = rng.next();
    const std::uint64_t pc = ((r >> 8) & 0x3F) * 4;
    const bool taken = (r & 1) != 0;
    std::vector<std::vector<std::uint8_t>> before(TagePredictor::kTables);
    std::vector<std::uint64_t> touched(TagePredictor::kTables);
    std::uint64_t nonzero = 0;
    for (std::size_t t = 0; t < TagePredictor::kTables; ++t) {
        touched[t] = pred.indexOf(t, pc);
        for (std::uint64_t e = 0; e < TagePredictor::kEntries; ++e) {
            before[t].push_back(pred.entryAt(t, e).u);
            if (pred.entryAt(t, e).u != 0)
                ++nonzero;
        }
    }
    ASSERT_GT(nonzero, 0u) << "training left no useful counters set";

    pred.update(pc, taken);
    ASSERT_EQ(pred.updateCount(), TagePredictor::kAgingPeriod);
    for (std::size_t t = 0; t < TagePredictor::kTables; ++t) {
        for (std::uint64_t e = 0; e < TagePredictor::kEntries; ++e) {
            if (e == touched[t])
                continue;
            ASSERT_EQ(pred.entryAt(t, e).u,
                      static_cast<std::uint8_t>(before[t][e] >> 1))
                << "table " << t << " entry " << e
                << " was not halved at the aging boundary";
        }
    }
}

TEST(TageTest, MispredictAllocatesFirstFreeCandidateOrDecaysAll)
{
    TagePredictor pred;
    const std::uint8_t ctr_mid = 4; // 3-bit counter midpoint

    Xorshift rng(0x7A6E0003u);
    int allocations = 0;
    int decays = 0;
    for (int i = 0; i < 200'000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t pc = ((r >> 8) & 0x3F) * 4;
        const bool taken = (r & 1) != 0;

        const TagePrediction d = pred.predictDetail(pc);
        const auto first =
            static_cast<std::size_t>(d.providerTable + 1);
        const bool mispredicted = d.taken != taken;
        if (!mispredicted || first >= TagePredictor::kTables) {
            pred.update(pc, taken);
            continue;
        }

        struct Candidate
        {
            std::uint64_t index;
            std::uint16_t tag;
            TageEntry before;
        };
        std::vector<Candidate> candidates;
        int victim = -1;
        for (std::size_t t = first; t < TagePredictor::kTables; ++t) {
            Candidate c;
            c.index = pred.indexOf(t, pc);
            c.tag = pred.tagOf(t, pc);
            c.before = pred.entryAt(t, c.index);
            if (victim < 0 && c.before.u == 0)
                victim = static_cast<int>(t - first);
            candidates.push_back(c);
        }

        pred.update(pc, taken);

        for (std::size_t c = 0; c < candidates.size(); ++c) {
            const std::size_t t = first + c;
            const TageEntry after =
                pred.entryAt(t, candidates[c].index);
            if (victim >= 0 &&
                c == static_cast<std::size_t>(victim)) {
                // The first free candidate is claimed, weakly
                // initialized toward the actual outcome.
                ++allocations;
                EXPECT_EQ(after.tag, candidates[c].tag);
                EXPECT_EQ(after.ctr,
                          taken ? ctr_mid
                                : static_cast<std::uint8_t>(ctr_mid -
                                                            1));
                EXPECT_EQ(after.u, 0);
            } else if (victim >= 0) {
                // Everything else is left alone.
                EXPECT_EQ(after.tag, candidates[c].before.tag);
                EXPECT_EQ(after.u, candidates[c].before.u);
            } else {
                // No free slot: every candidate decays instead.
                ++decays;
                EXPECT_EQ(after.tag, candidates[c].before.tag);
                EXPECT_EQ(after.u,
                          static_cast<std::uint8_t>(
                              candidates[c].before.u > 0
                                  ? candidates[c].before.u - 1
                                  : 0));
            }
        }
    }
    EXPECT_GT(allocations, 100) << "stream never allocated";
    EXPECT_GT(decays, 0) << "stream never hit the all-useful decay path";
}

TEST(TageTest, ResetRestoresInitialPredictions)
{
    TagePredictor pred;
    TagePredictor fresh;
    Xorshift rng(0x7A6E0004u);
    for (int i = 0; i < 20'000; ++i) {
        const std::uint64_t r = rng.next();
        pred.update(((r >> 8) & 0xFF) * 4, (r & 1) != 0);
    }
    pred.reset();
    EXPECT_EQ(pred.updateCount(), 0u);
    EXPECT_EQ(pred.historyValue(), 0u);
    for (std::uint64_t pc = 0; pc < 1024; pc += 4)
        ASSERT_EQ(pred.predict(pc), fresh.predict(pc)) << pc;
}

TEST(TageTest, LoadStateRejectsMismatchedGeometry)
{
    // A payload that claims one table too few, then one with too few
    // entries per table.
    for (const auto &[tables, entries] :
         {std::pair{TagePredictor::kTables - 1, TagePredictor::kEntries},
          std::pair{TagePredictor::kTables, TagePredictor::kEntries / 8}}) {
        StateWriter out;
        out.putU64(tables);
        out.putU64(entries);
        for (std::size_t e = 0; e < tables * entries; ++e) {
            out.putU16(0);
            out.putU8(0);
            out.putU8(0);
        }
        TagePredictor pred;
        StateReader in(out.bytes());
        EXPECT_THROW(pred.loadState(in), std::runtime_error)
            << tables << " tables of " << entries;
    }
}

/** The index hash of table @p t, folded directly from the history. */
std::uint64_t
recomputedIndex(const TagePredictor &pred, std::size_t t, std::uint64_t pc)
{
    const unsigned bits = TagePredictor::kIndexBits;
    const std::uint64_t pc_field = pc >> 2;
    const std::uint64_t hist =
        pred.historyValue() & mask(TagePredictor::kHistoryLengths[t]);
    return (xorFold(pc_field, bits) ^ xorFold(pc_field >> (t + 1), bits) ^
            xorFold(hist, bits)) &
           mask(bits);
}

/** The tag hash of table @p t, folded directly from the history. */
std::uint16_t
recomputedTag(const TagePredictor &pred, std::size_t t, std::uint64_t pc)
{
    const unsigned bits = TagePredictor::kTagBits;
    const std::uint64_t hist =
        pred.historyValue() & mask(TagePredictor::kHistoryLengths[t]);
    return static_cast<std::uint16_t>(
        (xorFold(pc >> 2, bits) ^ xorFold(hist, bits) ^
         (xorFold(hist, bits - 1) << 1)) &
        mask(bits));
}

void
expectRecomputedHashes(const TagePredictor &pred, std::uint64_t pc, int step)
{
    for (std::size_t t = 0; t < TagePredictor::kTables; ++t) {
        ASSERT_EQ(pred.indexOf(t, pc), recomputedIndex(pred, t, pc))
            << "table " << t << " index at step " << step;
        ASSERT_EQ(pred.tagOf(t, pc), recomputedTag(pred, t, pc))
            << "table " << t << " tag at step " << step;
    }
}

/**
 * Drive 100k random branches and check every table's index and tag
 * against folds recomputed from the history after every update, across
 * one reset() and one saveState -> loadState round trip into a
 * predictor whose memo holds a stale lookup for the very PC checked
 * next.
 */
void
expectFoldsMatchRecomputed(std::uint64_t seed)
{
    auto pred = std::make_unique<TagePredictor>();
    Xorshift rng(seed);
    std::uint64_t pc = 0;
    for (int i = 0; i < 100'000; ++i) {
        const std::uint64_t r = rng.next();
        pc = ((r >> 8) & 0xFFFFF) * 4;
        (void)pred->predict(pc);
        pred->update(pc, (r & 1) != 0);
        ASSERT_NO_FATAL_FAILURE(expectRecomputedHashes(*pred, pc, i));
        if (i == 30'000) {
            pred->reset();
            ASSERT_NO_FATAL_FAILURE(expectRecomputedHashes(*pred, pc, i));
        }
        if (i == 60'000) {
            StateWriter out;
            pred->saveState(out);
            auto restored = std::make_unique<TagePredictor>();
            (void)restored->predict(pc); // a memo for the next check
            StateReader in(out.bytes());
            restored->loadState(in);
            ASSERT_NE(restored->historyValue(), 0u);
            ASSERT_NO_FATAL_FAILURE(expectRecomputedHashes(*restored, pc, i));
            pred = std::move(restored);
        }
    }
}

TEST(TageTest, IncrementalFoldsMatchRecomputedHashes)
{
    // The first table folds 5 history bits into a 10-bit index and a
    // 9-bit tag: a history shorter than the fold. The last folds 52.
    expectFoldsMatchRecomputed(0x7A6E0007u);
}

TEST(TageTest, InterleavedLookupsNeverChangeTheUpdate)
{
    // predict(a), predictDetail(b), update(a) must see b's own lookup
    // and train exactly like update(a) alone: the memo is keyed by PC.
    TagePredictor probed;
    TagePredictor twin;
    Xorshift rng(0x7A6E0008u);
    for (int i = 0; i < 50'000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t a = ((r >> 8) & 0xFF) * 4;
        const std::uint64_t b = ((r >> 16) & 0xFF) * 4;
        const bool taken = (r & 1) != 0;
        (void)probed.predict(a);
        const TagePrediction got = probed.predictDetail(b);
        const TagePrediction want = twin.predictDetail(b);
        ASSERT_EQ(got.taken, want.taken) << "step " << i;
        ASSERT_EQ(got.providerTable, want.providerTable) << "step " << i;
        ASSERT_EQ(got.altTable, want.altTable) << "step " << i;
        ASSERT_EQ(got.providerCtr, want.providerCtr) << "step " << i;
        probed.update(a, taken);
        twin.update(a, taken);
        if (i % 97 == 0 || i == 49'999) {
            StateWriter probed_state;
            StateWriter twin_state;
            probed.saveState(probed_state);
            twin.saveState(twin_state);
            ASSERT_EQ(probed_state.bytes(), twin_state.bytes())
                << "step " << i;
        }
    }
}

TEST(TageProviderConfidenceTest, BoundBucketFollowsPredictorDetail)
{
    TagePredictor pred;
    TageProviderConfidence conf;
    conf.bindPredictor(pred);

    Xorshift rng(0x7A6E0005u);
    BranchContext ctx;
    std::vector<bool> seen(conf.numBuckets(), false);
    for (int i = 0; i < 50'000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t pc = ((r >> 8) & 0xFF) * 4;
        const bool taken = (r & 1) != 0;
        ctx.pc = pc;

        // The replay kernel's order: predict, bucket, train.
        const bool correct = pred.predict(pc) == taken;
        const TagePrediction d = pred.predictDetail(pc);
        const std::uint64_t want =
            2 * d.providerStrength +
            (d.providerTaken == d.altTaken ? 1 : 0);
        const std::uint64_t bucket = conf.bucketOf(ctx);
        ASSERT_EQ(bucket, want) << "step " << i;
        ASSERT_LT(bucket, conf.numBuckets());
        seen[bucket] = true;
        // The kernel records update()'s return alone.
        ASSERT_EQ(conf.update(ctx, correct, taken), bucket)
            << "step " << i;
        pred.update(pc, taken);
    }
    EXPECT_GE(std::count(seen.begin(), seen.end(), true), 4);
}

TEST(TageProviderConfidenceTest, UnboundEstimatorReturnsBucketZero)
{
    TageProviderConfidence conf;
    Xorshift rng(0x7A6E0009u);
    BranchContext ctx;
    for (int i = 0; i < 1'000; ++i) {
        const std::uint64_t r = rng.next();
        ctx.pc = ((r >> 8) & 0xFF) * 4;
        ASSERT_EQ(conf.bucketOf(ctx), 0u);
        conf.update(ctx, (r & 2) != 0, (r & 1) != 0);
    }
}

TEST(TageProviderConfidenceTest, BindRejectsOtherFamily)
{
    TageProviderConfidence conf;
    try {
        conf.bindPredictor(GsharePredictor(4096, 12));
        ADD_FAILURE() << "bound to gshare";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kConfig) << e.what();
    }

    const TagePredictor tage;
    EXPECT_NO_THROW(conf.bindPredictor(tage));
}

TEST(TageProviderConfidenceTest, BucketCountAndOrdering)
{
    TageProviderConfidence conf;
    // 4 strength levels x {disagree, agree} corroboration.
    EXPECT_EQ(conf.numBuckets(), 8u);
    EXPECT_TRUE(conf.bucketsAreOrdered());
    EXPECT_EQ(conf.name(), "tage-provider");
    EXPECT_TRUE(conf.checkpointable());
    EXPECT_EQ(conf.storageBits(), 0u);
}

} // namespace
} // namespace confsim
