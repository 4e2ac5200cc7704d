#include "predictor/hybrid.h"

#include "ckpt/state_helpers.h"

#include "util/status.h"

namespace confsim {

HybridPredictor::HybridPredictor(std::unique_ptr<BranchPredictor> first,
                                 std::unique_ptr<BranchPredictor> second,
                                 std::size_t chooser_entries)
    : first_(std::move(first)), second_(std::move(second)),
      // Chooser counters initialize to weakly-select-first (value 1 of
      // 0..3) so early behaviour is not biased strongly either way.
      chooser_(chooser_entries, SaturatingCounter(3, 1), 2)
{
    if (!first_ || !second_)
        fatal("HybridPredictor requires two constituent predictors");
}

bool
HybridPredictor::selectsSecond(std::uint64_t pc) const
{
    return chooser_[pc >> 2].predictsTaken();
}

bool
HybridPredictor::predict(std::uint64_t pc) const
{
    return selectsSecond(pc) ? second_->predict(pc)
                             : first_->predict(pc);
}

void
HybridPredictor::update(std::uint64_t pc, bool taken)
{
    // Recompute constituent predictions before any state changes; both
    // constituents then train on the outcome.
    const bool p1 = first_->predict(pc);
    const bool p2 = second_->predict(pc);

    // Train the chooser only on disagreement, toward the correct one.
    if (p1 != p2)
        chooser_[pc >> 2].step(p2 == taken);

    first_->update(pc, taken);
    second_->update(pc, taken);
}

std::uint64_t
HybridPredictor::storageBits() const
{
    return first_->storageBits() + second_->storageBits() +
           chooser_.storageBits();
}

std::string
HybridPredictor::name() const
{
    return "hybrid(" + first_->name() + "," + second_->name() + ")";
}

void
HybridPredictor::reset()
{
    first_->reset();
    second_->reset();
    chooser_.fill(SaturatingCounter(3, 1));
}


bool
HybridPredictor::checkpointable() const
{
    return first_->checkpointable() && second_->checkpointable();
}

void
HybridPredictor::saveState(StateWriter &out) const
{
    first_->saveState(out);
    second_->saveState(out);
    saveCounterTable(out, chooser_);
}

void
HybridPredictor::loadState(StateReader &in)
{
    first_->loadState(in);
    second_->loadState(in);
    loadCounterTable(in, chooser_);
}

} // namespace confsim
