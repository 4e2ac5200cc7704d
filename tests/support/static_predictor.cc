#include "support/static_predictor.h"

#include "ckpt/state_helpers.h"

#include "util/status.h"

namespace confsim {

StaticPredictor::StaticPredictor(StaticPolicy policy)
    : policy_(policy)
{}

void
StaticPredictor::setTarget(std::uint64_t pc, std::uint64_t target)
{
    targets_[pc] = target;
}

bool
StaticPredictor::predict(std::uint64_t pc) const
{
    switch (policy_) {
      case StaticPolicy::AlwaysTaken:
        return true;
      case StaticPolicy::AlwaysNotTaken:
        return false;
      case StaticPolicy::BackwardTaken: {
        const auto it = targets_.find(pc);
        // Without target information, fall back to not-taken (forward
        // branches dominate static code).
        if (it == targets_.end())
            return false;
        return it->second <= pc;
      }
    }
    panic("unknown StaticPolicy");
}

void
StaticPredictor::update(std::uint64_t, bool)
{
    // Static predictors do not adapt.
}

std::uint64_t
StaticPredictor::storageBits() const
{
    return 0;
}

std::string
StaticPredictor::name() const
{
    switch (policy_) {
      case StaticPolicy::AlwaysTaken: return "static-taken";
      case StaticPolicy::AlwaysNotTaken: return "static-not-taken";
      case StaticPolicy::BackwardTaken: return "static-btfnt";
    }
    panic("unknown StaticPolicy");
}

void
StaticPredictor::reset()
{
    // Targets are program structure, not learned state; keep them.
}


void
StaticPredictor::saveState(StateWriter &out) const
{
    // Targets arrive via setTarget() as the trace is consumed, so they
    // are run state even though the policy itself never adapts.
    saveSortedMap(out, targets_, [](StateWriter &w, std::uint64_t t) {
        w.putU64(t);
    });
}

void
StaticPredictor::loadState(StateReader &in)
{
    loadMap(in, targets_, [](StateReader &r) { return r.getU64(); });
}

} // namespace confsim
