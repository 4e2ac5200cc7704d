#include "workload/branch_behavior.h"

#include <algorithm>

#include "util/status.h"

namespace confsim {

BiasedBehavior::BiasedBehavior(double p_taken)
    : pTaken_(p_taken)
{
    if (p_taken < 0.0 || p_taken > 1.0)
        fatal("BiasedBehavior probability must be in [0, 1]");
}

bool
BiasedBehavior::nextOutcome(const WorkloadContext &, Rng &rng)
{
    return rng.nextBernoulli(pTaken_);
}

std::unique_ptr<BranchBehavior>
BiasedBehavior::clone() const
{
    return std::make_unique<BiasedBehavior>(*this);
}

LoopBehavior::LoopBehavior(std::uint32_t mean_trip, TripCountModel model,
                           std::uint32_t jitter)
    : meanTrip_(mean_trip), model_(model), jitter_(jitter)
{
    if (mean_trip == 0)
        fatal("LoopBehavior requires a mean trip count >= 1");
    if (model == TripCountModel::Jittered && jitter >= mean_trip)
        fatal("LoopBehavior jitter must be smaller than the mean");
}

std::uint32_t
LoopBehavior::drawTripCount(Rng &rng) const
{
    switch (model_) {
      case TripCountModel::Fixed:
        return meanTrip_;
      case TripCountModel::Jittered:
        return static_cast<std::uint32_t>(rng.nextInRange(
            static_cast<std::int64_t>(meanTrip_) - jitter_,
            static_cast<std::int64_t>(meanTrip_) + jitter_));
      case TripCountModel::Geometric: {
        // Geometric with mean meanTrip_: success prob 1/mean; add 1 so
        // the loop always runs at least once.
        const double p = 1.0 / static_cast<double>(meanTrip_);
        const std::uint64_t draw = rng.nextGeometric(p) + 1;
        return static_cast<std::uint32_t>(std::min<std::uint64_t>(
            draw, 4 * static_cast<std::uint64_t>(meanTrip_) + 1));
      }
    }
    panic("unknown TripCountModel");
}

bool
LoopBehavior::nextOutcome(const WorkloadContext &, Rng &rng)
{
    if (!started_) {
        remaining_ = drawTripCount(rng);
        started_ = true;
    }
    if (remaining_ > 1) {
        --remaining_;
        return true; // continue iterating (latch taken)
    }
    // Exit: not taken; re-arm for the next entry into the loop.
    started_ = false;
    return false;
}

void
LoopBehavior::reset()
{
    remaining_ = 0;
    started_ = false;
}

std::unique_ptr<BranchBehavior>
LoopBehavior::clone() const
{
    auto copy = std::make_unique<LoopBehavior>(meanTrip_, model_, jitter_);
    return copy;
}

PatternBehavior::PatternBehavior(std::vector<bool> pattern)
    : pattern_(std::move(pattern))
{
    if (pattern_.empty())
        fatal("PatternBehavior requires a non-empty pattern");
}

bool
PatternBehavior::nextOutcome(const WorkloadContext &, Rng &)
{
    const bool out = pattern_[phase_];
    if (++phase_ == pattern_.size())
        phase_ = 0;
    return out;
}

std::unique_ptr<BranchBehavior>
PatternBehavior::clone() const
{
    auto copy = std::make_unique<PatternBehavior>(pattern_);
    return copy;
}

HistoryCorrelatedBehavior::HistoryCorrelatedBehavior(
    std::vector<unsigned> taps, CorrelationOp op, double noise,
    bool invert)
    : taps_(std::move(taps)), op_(op), noise_(noise), invert_(invert)
{
    if (taps_.empty())
        fatal("HistoryCorrelatedBehavior requires at least one tap");
    for (unsigned tap : taps_) {
        if (tap >= 16)
            fatal("HistoryCorrelatedBehavior taps must be < 16 deep");
    }
    if (noise < 0.0 || noise > 1.0)
        fatal("HistoryCorrelatedBehavior noise must be in [0, 1]");
}

bool
HistoryCorrelatedBehavior::nextOutcome(const WorkloadContext &ctx,
                                       Rng &rng)
{
    bool value = false;
    switch (op_) {
      case CorrelationOp::Parity: {
        for (unsigned tap : taps_)
            value ^= ctx.pastOutcome(tap);
        break;
      }
      case CorrelationOp::Majority: {
        unsigned ones = 0;
        for (unsigned tap : taps_)
            ones += ctx.pastOutcome(tap) ? 1 : 0;
        value = 2 * ones > taps_.size();
        break;
      }
      case CorrelationOp::And: {
        value = true;
        for (unsigned tap : taps_)
            value = value && ctx.pastOutcome(tap);
        break;
      }
    }
    if (invert_)
        value = !value;
    if (rng.nextBernoulli(noise_))
        value = !value;
    return value;
}

std::unique_ptr<BranchBehavior>
HistoryCorrelatedBehavior::clone() const
{
    return std::make_unique<HistoryCorrelatedBehavior>(*this);
}

ChainBehavior::ChainBehavior(unsigned depth, bool invert, double noise)
    : depth_(depth), invert_(invert), noise_(noise)
{
    if (depth >= 16)
        fatal("ChainBehavior depth must be < 16");
    if (noise < 0.0 || noise > 1.0)
        fatal("ChainBehavior noise must be in [0, 1]");
}

bool
ChainBehavior::nextOutcome(const WorkloadContext &ctx, Rng &rng)
{
    bool value = ctx.pastOutcome(depth_);
    if (invert_)
        value = !value;
    if (rng.nextBernoulli(noise_))
        value = !value;
    return value;
}

std::unique_ptr<BranchBehavior>
ChainBehavior::clone() const
{
    return std::make_unique<ChainBehavior>(*this);
}

} // namespace confsim
