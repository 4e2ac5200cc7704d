#include "confidence/perceptron_margin.h"

#include "util/error.h"
#include "util/status.h"

namespace confsim {

PerceptronMarginConfidence::PerceptronMarginConfidence(unsigned num_levels)
    : numLevels_(num_levels)
{
    if (num_levels < 2)
        fatal("perceptron margin confidence needs >= 2 levels");
}

std::uint64_t
PerceptronMarginConfidence::bucketForMargin(std::int64_t margin) const
{
    const std::uint64_t magnitude =
        static_cast<std::uint64_t>(margin < 0 ? -margin : margin);
    const std::uint64_t level =
        magnitude * numLevels_ / (PerceptronPredictor::kTheta + 1);
    return level >= numLevels_ ? numLevels_ - 1 : level;
}

std::uint64_t
PerceptronMarginConfidence::bucketOf(const BranchContext &ctx) const
{
    if (predictor_ == nullptr)
        return 0;
    return bucketForMargin(predictor_->marginOf(ctx.pc));
}

std::uint64_t
PerceptronMarginConfidence::update(const BranchContext &ctx,
                                   bool /*correct*/, bool /*taken*/)
{
    return bucketOf(ctx);
}

std::uint64_t
PerceptronMarginConfidence::numBuckets() const
{
    return numLevels_;
}

std::string
PerceptronMarginConfidence::name() const
{
    return "perceptron-margin";
}

void
PerceptronMarginConfidence::bindPredictor(
    const BranchPredictor &predictor)
{
    const auto *perceptron =
        dynamic_cast<const PerceptronPredictor *>(&predictor);
    if (perceptron == nullptr) {
        fatal(ErrorCategory::kConfig,
              "perceptron-margin confidence needs a perceptron "
              "predictor, not '" +
                  predictor.name() + "'");
    }
    predictor_ = perceptron;
}

void
PerceptronMarginConfidence::saveState(StateWriter &out) const
{
    out.putU64(PerceptronPredictor::kHistoryBits);
    out.putU64(numLevels_);
}

void
PerceptronMarginConfidence::loadState(StateReader &in)
{
    in.expectU64(PerceptronPredictor::kHistoryBits,
                 "perceptron margin history length");
    in.expectU64(numLevels_, "perceptron margin levels");
}

} // namespace confsim
