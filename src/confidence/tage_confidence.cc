#include "confidence/tage_confidence.h"

#include "util/error.h"
#include "util/status.h"

namespace confsim {

TageProviderConfidence::TageProviderConfidence(TageConfig config)
    : counterBits_(config.counterBits)
{
    if (counterBits_ < 2 || counterBits_ > 8)
        fatal("TAGE counter width must be in [2, 8]");
}

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
    // 2^(counterBits - 1) strength levels x {disagree, agree}.
    return std::uint64_t{1} << counterBits_;
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
    if (tage->config().counterBits != counterBits_) {
        fatal(ErrorCategory::kConfig,
              "tage-provider confidence assumes " +
                  std::to_string(counterBits_) +
                  "-bit provider counters; '" + predictor.name() +
                  "' has " + std::to_string(tage->config().counterBits));
    }
    predictor_ = tage;
}

void
TageProviderConfidence::saveState(StateWriter &out) const
{
    out.putU64(counterBits_);
}

void
TageProviderConfidence::loadState(StateReader &in)
{
    in.expectU64(counterBits_, "tage-provider counter width");
}

} // namespace confsim
