#include "workload/synthetic_cfg.h"

#include "ckpt/state_io.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/status.h"

namespace confsim {

SyntheticCfg::SyntheticCfg(const BenchmarkProfile &profile)
    : profile_(profile), nextPc_(profile.pcBase)
{
    if (profile.targetBlocks < 4)
        fatal("benchmark profile needs at least 4 blocks");

    Rng rng(profile.seed * 0x9E3779B97F4A7C15ULL + 0x1234567);

    // The last construct overshoots the target by a few dozen blocks (at
    // most 72 over the IBS profiles at 300 seeds); more regrows once.
    blocks_.reserve(profile.targetBlocks + 128);
    while (blocks_.size() < profile_.targetBlocks)
        buildConstruct(0, rng);

    // Outer wrap: the program is an infinite loop over its whole body.
    // A heavily-taken latch returning to block 0; both successors point
    // back so exhaustion is impossible.
    const std::size_t wrap = emitBlock(BranchBehavior::biased(0.999), rng);
    blocks_[wrap].takenNext = 0;
    blocks_[wrap].fallNext = 0;
    blocks_[wrap].isLoopLatch = true;

    // Every successor index emitted as "one past the current end" during
    // construction now resolves to the wrap block or earlier; clamp any
    // residual out-of-range indices (possible when an if-merge pointed
    // past the final construct). The taken target's PC is then fixed.
    for (auto &block : blocks_) {
        if (block.takenNext >= blocks_.size())
            block.takenNext = static_cast<std::uint32_t>(wrap);
        if (block.fallNext >= blocks_.size())
            block.fallNext = static_cast<std::uint32_t>(wrap);
        block.takenPc = blocks_[block.takenNext].branchPc;
    }

    statefulBlocks_.reserve(static_cast<std::size_t>(std::count_if(
        blocks_.begin(), blocks_.end(),
        [](const CfgBlock &block) { return block.behavior.stateful(); })));
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        if (blocks_[b].behavior.stateful())
            statefulBlocks_.push_back(static_cast<std::uint32_t>(b));
    }
}

std::size_t
SyntheticCfg::emitBlock(const BranchBehavior &behavior, Rng &rng)
{
    // Blocks are 3..12 instructions; the conditional branch is the last
    // instruction. Word-sized (4-byte) instructions as on the MIPS/Alpha
    // machines the IBS traces came from.
    const std::uint64_t block_insts = 3 + rng.nextBelow(10);
    const std::uint64_t branch_pc = nextPc_ + (block_insts - 1) * 4;
    nextPc_ += block_insts * 4;

    CfgBlock block{.branchPc = branch_pc, .behavior = behavior};
    // A small fraction of blocks begin with a non-conditional control
    // transfer (call / return / jump), used only when the profile asks
    // for structurally realistic traces. The roll is drawn
    // unconditionally so toggling emitNonConditional does not perturb
    // the RNG sequence (the conditional stream stays bit-identical).
    const double event_roll = rng.nextDouble();
    if (profile_.emitNonConditional) {
        if (event_roll < 0.05)
            block.entryEvent = BlockEvent::Call;
        else if (event_roll < 0.10)
            block.entryEvent = BlockEvent::Return;
        else if (event_roll < 0.16)
            block.entryEvent = BlockEvent::Unconditional;
    }
    const auto index = static_cast<std::uint32_t>(blocks_.size());
    // Default: fall through to the next block either way; callers patch.
    block.takenNext = index + 1;
    block.fallNext = index + 1;
    blocks_.push_back(block);
    return index;
}

BranchBehavior
SyntheticCfg::sampleNonLoopBehavior(Rng &rng)
{
    const BehaviorMix &mix = profile_.mix;
    const double total = mix.stronglyBiased + mix.moderateBiased +
                         mix.weaklyBiased + mix.correlated +
                         mix.pattern + mix.chain;
    if (total <= 0.0)
        fatal("profile behaviour mix has no mass: " + profile_.name);
    double roll = rng.nextDouble() * total;

    auto take = [&roll](double weight) {
        if (roll < weight)
            return true;
        roll -= weight;
        return false;
    };

    if (take(mix.stronglyBiased)) {
        const double p = 0.9965 + 0.0030 * rng.nextDouble();
        return BranchBehavior::biased(rng.nextBernoulli(0.5) ? p : 1.0 - p);
    }
    if (take(mix.moderateBiased)) {
        const double p = 0.90 + 0.08 * rng.nextDouble();
        return BranchBehavior::biased(rng.nextBernoulli(0.5) ? p : 1.0 - p);
    }
    if (take(mix.weaklyBiased)) {
        const double p = 0.60 + 0.25 * rng.nextDouble();
        return BranchBehavior::biased(rng.nextBernoulli(0.5) ? p : 1.0 - p);
    }
    if (take(mix.correlated)) {
        const unsigned num_taps = 1 + static_cast<unsigned>(
            rng.nextBelow(BranchBehavior::kMaxTaps));
        std::array<unsigned, BranchBehavior::kMaxTaps> taps{};
        for (unsigned i = 0; i < num_taps; ++i) {
            // Mostly shallow taps; ~72% land in [12, 16), which a
            // 16-deep history captures but a 12-deep one cannot — one
            // source of the paper's 64K-vs-4K predictor gap.
            if (rng.nextBernoulli(0.72))
                taps[i] = 12 + static_cast<unsigned>(rng.nextBelow(4));
            else
                taps[i] = static_cast<unsigned>(rng.nextBelow(10));
        }
        const auto op = static_cast<CorrelationOp>(rng.nextBelow(3));
        return BranchBehavior::historyCorrelated(
            std::span(taps.data(), num_taps), op,
            profile_.correlationNoise, rng.nextBernoulli(0.5));
    }
    if (take(mix.pattern)) {
        // Short structured patterns only (T^a N^b with period <= 4).
        // Long random patterns are nearly unpredictable for a global
        // history predictor: the pattern phase is not recoverable from
        // the history window unless the branch executes densely, so
        // they would behave as noise rather than as the learnable
        // periodic branches real code contains.
        const std::size_t taken_run = 1 + rng.nextBelow(3);
        const std::size_t nt_run = 1 + rng.nextBelow(4 - taken_run > 0
                                                         ? 4 - taken_run
                                                         : 1);
        std::array<bool, 4> pattern{};
        const bool invert = rng.nextBernoulli(0.5);
        std::fill_n(pattern.begin(), taken_run, !invert);
        std::fill_n(pattern.begin() + taken_run, nt_run, invert);
        return BranchBehavior::pattern(
            std::span(pattern.data(), taken_run + nt_run));
    }
    // Chain: echo a recent outcome.
    const unsigned depth = 1 + static_cast<unsigned>(rng.nextBelow(13));
    return BranchBehavior::chain(depth, rng.nextBernoulli(0.5),
                                 profile_.correlationNoise);
}

BranchBehavior
SyntheticCfg::sampleLoopBehavior(unsigned depth, Rng &rng)
{
    // Per-loop mean trip count jitters around the profile mean.
    const double factor = 0.4 + 1.4 * rng.nextDouble();
    const auto mean = static_cast<std::uint32_t>(std::max(
        2.0, std::round(profile_.meanTripCount * factor)));

    // Unpredictable trip counts are restricted to outer loops. An
    // innermost latch can account for a large share of the whole
    // dynamic stream (iterations multiply down the nest), so an
    // unlearnable innermost exit would swamp the benchmark with
    // mispredictions; an unpredictable *outer* exit is amortized over
    // its inner iterations, as in real programs where innermost trip
    // counts (array widths) are stable and outer ones are data sized.
    if (depth <= 1) {
        if (rng.nextBernoulli(profile_.geometricLoopFraction))
            return BranchBehavior::loop(mean, TripCountModel::Geometric);
        const std::uint32_t jitter =
            std::max<std::uint32_t>(1, mean / 10);
        if (rng.nextBernoulli(0.1) && jitter < mean)
            return BranchBehavior::loop(mean, TripCountModel::Jittered,
                                        jitter);
    }
    return BranchBehavior::loop(mean, TripCountModel::Fixed);
}

void
SyntheticCfg::buildConstruct(unsigned depth, Rng &rng)
{
    const double roll = rng.nextDouble();

    if (roll < profile_.loopFraction && depth < profile_.maxNestDepth) {
        // Bottom-test loop: body region, then a latch whose taken edge
        // returns to the body entry.
        const auto body_entry =
            static_cast<std::uint32_t>(blocks_.size());
        const unsigned body_constructs = 1 + rng.nextBelow(3);
        for (unsigned i = 0; i < body_constructs; ++i)
            buildConstruct(depth + 1, rng);
        const std::size_t latch =
            emitBlock(sampleLoopBehavior(depth, rng), rng);
        blocks_[latch].takenNext = body_entry;
        blocks_[latch].fallNext =
            static_cast<std::uint32_t>(blocks_.size());
        blocks_[latch].isLoopLatch = true;
        return;
    }

    // Cap structural recursion: both the loop arm above and the if arm
    // here stop nesting past maxNestDepth + 2, which also keeps the
    // construct branching process subcritical (it would otherwise
    // diverge: loops/ifs each spawn >1 expected child constructs).
    if (roll < profile_.loopFraction + profile_.ifFraction &&
        depth < profile_.maxNestDepth + 2) {
        // If construct: the condition's taken edge skips the then-region
        // (fall path enters it); both paths merge after.
        const std::size_t cond =
            emitBlock(sampleNonLoopBehavior(rng), rng);
        const unsigned then_constructs = 1 + rng.nextBelow(2);
        for (unsigned i = 0; i < then_constructs; ++i)
            buildConstruct(depth + 1, rng);
        blocks_[cond].fallNext = static_cast<std::uint32_t>(cond + 1);
        blocks_[cond].takenNext =
            static_cast<std::uint32_t>(blocks_.size());
        return;
    }

    // Plain branch: direction is recorded but both arms re-merge in the
    // next block (models a short hammock).
    emitBlock(sampleNonLoopBehavior(rng), rng);
}

void
SyntheticCfg::resetBehaviors()
{
    for (const std::uint32_t b : statefulBlocks_)
        blocks_[b].behavior.reset();
}

void
SyntheticCfg::saveBehaviorStates(StateWriter &out) const
{
    out.putU64(blocks_.size());
    for (const std::uint32_t b : statefulBlocks_)
        blocks_[b].behavior.saveState(out);
}

void
SyntheticCfg::loadBehaviorStates(StateReader &in)
{
    in.expectU64(blocks_.size(), "CFG block count");
    for (const std::uint32_t b : statefulBlocks_)
        blocks_[b].behavior.loadState(in);
}

} // namespace confsim
