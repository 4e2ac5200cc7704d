#include "confidence/perceptron_margin.h"

#include "util/error.h"
#include "util/status.h"

namespace confsim {

PerceptronMarginConfidence::PerceptronMarginConfidence(
    PerceptronConfig config, unsigned num_levels)
    : historyBits_(config.historyBits),
      theta_(static_cast<std::uint64_t>(config.theta())),
      numLevels_(num_levels)
{
    if (num_levels < 2)
        fatal("perceptron margin confidence needs >= 2 levels");
}

std::uint64_t
PerceptronMarginConfidence::bucketForMargin(std::int64_t margin) const
{
    const std::uint64_t magnitude =
        static_cast<std::uint64_t>(margin < 0 ? -margin : margin);
    const std::uint64_t level = magnitude * numLevels_ / (theta_ + 1);
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
    if (perceptron->config().historyBits != historyBits_) {
        fatal(ErrorCategory::kConfig,
              "perceptron-margin confidence assumes a " +
                  std::to_string(historyBits_) +
                  "-bit history (theta " + std::to_string(theta_) +
                  "); '" + predictor.name() + "' has " +
                  std::to_string(perceptron->config().historyBits));
    }
    predictor_ = perceptron;
}

void
PerceptronMarginConfidence::saveState(StateWriter &out) const
{
    out.putU64(historyBits_);
    out.putU64(numLevels_);
}

void
PerceptronMarginConfidence::loadState(StateReader &in)
{
    in.expectU64(historyBits_, "perceptron margin history length");
    in.expectU64(numLevels_, "perceptron margin levels");
}

} // namespace confsim
