#include "confidence/tage_confidence.h"

#include "util/error.h"

namespace confsim {

std::uint64_t
TageProviderConfidence::bucketOf(const BranchContext &ctx) const
{
    if (predictor_ == nullptr)
        return 0;
    const TagePrediction d = predictor_->predictDetail(ctx.pc);
    const bool agree = d.providerTaken == d.altTaken;
    return 2 * d.providerStrength + (agree ? 1 : 0);
}

std::uint64_t
TageProviderConfidence::update(const BranchContext &ctx,
                               bool /*correct*/, bool /*taken*/)
{
    return bucketOf(ctx);
}

std::uint64_t
TageProviderConfidence::numBuckets() const
{
    // The provider's strength levels x {disagree, agree}.
    return 2 * TagePredictor::strengthLevels();
}

std::string
TageProviderConfidence::name() const
{
    return "tage-provider";
}

void
TageProviderConfidence::bindPredictor(const BranchPredictor &predictor)
{
    const auto *tage = dynamic_cast<const TagePredictor *>(&predictor);
    if (tage == nullptr) {
        fatal(ErrorCategory::kConfig,
              "tage-provider confidence needs a TAGE predictor, not '" +
                  predictor.name() + "'");
    }
    predictor_ = tage;
}

void
TageProviderConfidence::saveState(StateWriter &out) const
{
    out.putU64(TagePredictor::kCounterBits);
}

void
TageProviderConfidence::loadState(StateReader &in)
{
    in.expectU64(TagePredictor::kCounterBits,
                 "tage-provider counter width");
}

} // namespace confsim
