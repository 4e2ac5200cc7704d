#include "workload/branch_behavior.h"

#include <algorithm>
#include <string>

#include "util/error.h"
#include "util/status.h"

namespace confsim {

BranchBehavior
BranchBehavior::biased(double p_taken)
{
    if (p_taken < 0.0 || p_taken > 1.0)
        fatal("biased behaviour probability must be in [0, 1]");
    BranchBehavior behavior(BehaviorKind::Biased);
    behavior.pTaken_ = p_taken;
    return behavior;
}

BranchBehavior
BranchBehavior::loop(std::uint32_t mean_trip, TripCountModel model,
                     std::uint32_t jitter)
{
    if (mean_trip == 0)
        fatal("loop behaviour requires a mean trip count >= 1");
    if (model == TripCountModel::Jittered && jitter >= mean_trip)
        fatal("loop behaviour jitter must be smaller than the mean");
    BranchBehavior behavior(BehaviorKind::Loop);
    behavior.loop_ = LoopState{mean_trip, jitter, 0, model, false};
    return behavior;
}

BranchBehavior
BranchBehavior::pattern(std::span<const bool> directions)
{
    if (directions.empty())
        fatal("pattern behaviour requires a non-empty pattern");
    if (directions.size() > kMaxPatternLength)
        fatal("pattern behaviour holds at most 64 directions");
    BranchBehavior behavior(BehaviorKind::Pattern);
    behavior.pattern_ = PatternState{
        0, static_cast<std::uint8_t>(directions.size()), 0};
    for (std::size_t i = 0; i < directions.size(); ++i) {
        if (directions[i])
            behavior.pattern_.directions |= std::uint64_t{1} << i;
    }
    return behavior;
}

BranchBehavior
BranchBehavior::historyCorrelated(std::span<const unsigned> taps,
                                  CorrelationOp op, double noise,
                                  bool invert)
{
    if (taps.empty())
        fatal("history-correlated behaviour requires at least one tap");
    if (taps.size() > kMaxTaps)
        fatal("history-correlated behaviour reads at most 3 taps");
    for (const unsigned tap : taps) {
        if (tap >= 16)
            fatal("history-correlated behaviour taps must be < 16 deep");
    }
    if (noise < 0.0 || noise > 1.0)
        fatal("history-correlated behaviour noise must be in [0, 1]");
    BranchBehavior behavior(BehaviorKind::HistoryCorrelated);
    behavior.corr_ = Correlation{
        noise, {}, static_cast<std::uint8_t>(taps.size()), op, invert};
    std::copy(taps.begin(), taps.end(), behavior.corr_.taps.begin());
    return behavior;
}

BranchBehavior
BranchBehavior::chain(unsigned depth, bool invert, double noise)
{
    if (depth >= 16)
        fatal("chain behaviour depth must be < 16");
    if (noise < 0.0 || noise > 1.0)
        fatal("chain behaviour noise must be in [0, 1]");
    BranchBehavior behavior(BehaviorKind::Chain);
    behavior.corr_ = Correlation{noise, {static_cast<std::uint8_t>(depth)},
                                 1, CorrelationOp::Parity, invert};
    return behavior;
}

std::uint32_t
BranchBehavior::drawTripCount(Rng &rng) const
{
    const std::uint32_t mean = loop_.meanTrip;
    switch (loop_.model) {
      case TripCountModel::Fixed:
        return mean;
      case TripCountModel::Jittered:
        return static_cast<std::uint32_t>(rng.nextInRange(
            static_cast<std::int64_t>(mean) - loop_.jitter,
            static_cast<std::int64_t>(mean) + loop_.jitter));
      case TripCountModel::Geometric: {
        // Geometric with mean `mean`: success prob 1/mean; add 1 so the
        // loop always runs at least once.
        const double p = 1.0 / static_cast<double>(mean);
        const std::uint64_t draw = rng.nextGeometric(p) + 1;
        return static_cast<std::uint32_t>(std::min<std::uint64_t>(
            draw, 4 * static_cast<std::uint64_t>(mean) + 1));
      }
    }
    panic("unknown TripCountModel");
}

void
BranchBehavior::reset()
{
    if (kind_ == BehaviorKind::Loop) {
        loop_.remaining = 0;
        loop_.started = false;
    } else if (kind_ == BehaviorKind::Pattern) {
        pattern_.phase = 0;
    }
}

void
BranchBehavior::saveState(StateWriter &out) const
{
    if (kind_ == BehaviorKind::Loop) {
        out.putU32(loop_.remaining);
        out.putBool(loop_.started);
    } else if (kind_ == BehaviorKind::Pattern) {
        out.putU64(pattern_.phase);
    }
}

void
BranchBehavior::loadState(StateReader &in)
{
    if (kind_ == BehaviorKind::Loop) {
        loop_.remaining = in.getU32();
        loop_.started = in.getBool();
    } else if (kind_ == BehaviorKind::Pattern) {
        const std::uint64_t phase = in.getU64();
        if (phase >= pattern_.length) {
            fatal(ErrorCategory::kCheckpoint,
                  "pattern phase " + std::to_string(phase) +
                      " out of range in checkpoint (pattern of " +
                      std::to_string(pattern_.length) + ")");
        }
        pattern_.phase = static_cast<std::uint8_t>(phase);
    }
}

} // namespace confsim
