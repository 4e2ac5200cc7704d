#include "confidence/composite_confidence.h"

#include "ckpt/state_io.h"

#include "util/status.h"

namespace confsim {

CompositeConfidence::CompositeConfidence(
    std::unique_ptr<ConfidenceEstimator> first,
    std::unique_ptr<ConfidenceEstimator> second)
    : first_(std::move(first)), second_(std::move(second))
{
    if (!first_ || !second_)
        fatal("CompositeConfidence requires two constituents");
    if (first_->numBuckets() * second_->numBuckets() >
        (std::uint64_t{1} << 24)) {
        fatal("composite bucket space too large; use coarser "
              "constituents");
    }
}

std::uint64_t
CompositeConfidence::bucketOf(const BranchContext &ctx) const
{
    return first_->bucketOf(ctx) * second_->numBuckets() +
           second_->bucketOf(ctx);
}

std::uint64_t
CompositeConfidence::update(const BranchContext &ctx, bool correct,
                            bool taken)
{
    // The constituents train independent state, so each returns the
    // bucket its bucketOf() would have read.
    const std::uint64_t first = first_->update(ctx, correct, taken);
    const std::uint64_t second = second_->update(ctx, correct, taken);
    return first * second_->numBuckets() + second;
}

std::uint64_t
CompositeConfidence::numBuckets() const
{
    return first_->numBuckets() * second_->numBuckets();
}

std::uint64_t
CompositeConfidence::storageBits() const
{
    return first_->storageBits() + second_->storageBits();
}

std::string
CompositeConfidence::name() const
{
    return "composite(" + first_->name() + "," + second_->name() + ")";
}

void
CompositeConfidence::reset()
{
    first_->reset();
    second_->reset();
}

void
CompositeConfidence::bindPredictor(const BranchPredictor &predictor)
{
    first_->bindPredictor(predictor);
    second_->bindPredictor(predictor);
}

std::pair<std::uint64_t, std::uint64_t>
CompositeConfidence::splitBucket(std::uint64_t bucket) const
{
    return {bucket / second_->numBuckets(),
            bucket % second_->numBuckets()};
}


bool
CompositeConfidence::checkpointable() const
{
    return first_->checkpointable() && second_->checkpointable();
}

void
CompositeConfidence::saveState(StateWriter &out) const
{
    first_->saveState(out);
    second_->saveState(out);
}

void
CompositeConfidence::loadState(StateReader &in)
{
    first_->loadState(in);
    second_->loadState(in);
}

} // namespace confsim
