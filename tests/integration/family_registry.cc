#include "family_registry.h"

#include "confidence/associative_ct.h"
#include "confidence/composite_confidence.h"
#include "confidence/one_level.h"
#include "confidence/perceptron_margin.h"
#include "confidence/self_counter.h"
#include "confidence/tage_confidence.h"
#include "confidence/two_level.h"
#include "confidence/unaliased.h"
#include "predictor/agree.h"
#include "predictor/bimodal.h"
#include "predictor/gselect.h"
#include "predictor/gshare.h"
#include "predictor/hybrid.h"
#include "predictor/perceptron.h"
#include "predictor/tage.h"
#include "predictor/two_level.h"
#include "util/error.h"

namespace confsim {

namespace {

/** The reference predictor estimator families pair with. */
PredictorFactory
referenceGshare()
{
    return [] { return std::make_unique<GsharePredictor>(4096, 12); };
}

/** Wrap a single estimator factory as an EstimatorSetFactory. */
template <typename MakeOne>
EstimatorSetFactory
one(MakeOne make_one)
{
    return [make_one] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(make_one());
        return out;
    };
}

/** The paper's workhorse estimator, for predictor-varying families. */
EstimatorSetFactory
referenceEstimator()
{
    return one([] {
        return std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::PcXorBhr, 1024, CounterKind::Resetting, 16, 0);
    });
}

} // namespace

std::vector<DifferentialFamily>
estimatorFamilyRegistry()
{
    std::vector<DifferentialFamily> families;
    families.push_back(
        {"one_level_raw_pc", referenceGshare(), one([] {
             return std::make_unique<OneLevelCirConfidence>(
                 IndexScheme::Pc, 1024, 8, CirReduction::RawPattern,
                 CtInit::Ones);
         })});
    families.push_back(
        {"one_level_raw_bhr", referenceGshare(), one([] {
             return std::make_unique<OneLevelCirConfidence>(
                 IndexScheme::Bhr, 1024, 8, CirReduction::RawPattern,
                 CtInit::Ones);
         })});
    families.push_back(
        {"one_level_ones_pcxorbhr", referenceGshare(), one([] {
             return std::make_unique<OneLevelCirConfidence>(
                 IndexScheme::PcXorBhr, 1024, 8,
                 CirReduction::OnesCount, CtInit::Ones);
         })});
    families.push_back(
        {"counter_saturating", referenceGshare(), one([] {
             return std::make_unique<OneLevelCounterConfidence>(
                 IndexScheme::PcXorBhr, 1024, CounterKind::Saturating,
                 16, 0);
         })});
    families.push_back(
        {"counter_resetting", referenceGshare(), referenceEstimator()});
    families.push_back(
        {"counter_half_reset", referenceGshare(), one([] {
             return std::make_unique<OneLevelCounterConfidence>(
                 IndexScheme::Pc, 1024, CounterKind::HalfReset, 16, 0);
         })});
    families.push_back(
        {"two_level", referenceGshare(), one([] {
             return std::make_unique<TwoLevelConfidence>(
                 IndexScheme::Pc, 1024, 8, SecondLevelIndex::CirXorPc,
                 8);
         })});
    families.push_back(
        {"self_counter", referenceGshare(), one([] {
             return std::make_unique<SelfCounterConfidence>(
                 IndexScheme::Pc, 1024, 3);
         })});
    families.push_back(
        {"unaliased", referenceGshare(), one([] {
             return std::make_unique<UnaliasedCounterConfidence>(
                 IndexScheme::PcXorBhr, CounterKind::Resetting, 16);
         })});
    families.push_back(
        {"associative", referenceGshare(), one([] {
             return std::make_unique<AssociativeCounterConfidence>(
                 IndexScheme::Pc, 256, 4, 8, CounterKind::Saturating,
                 16);
         })});
    families.push_back(
        {"composite", referenceGshare(), one([] {
             return std::make_unique<CompositeConfidence>(
                 std::make_unique<OneLevelCounterConfidence>(
                     IndexScheme::PcXorBhr, 1024,
                     CounterKind::Resetting, 16, 0),
                 std::make_unique<SelfCounterConfidence>(
                     IndexScheme::Pc, 1024, 3));
         })});
    // Native-confidence estimators pair with their own predictor: they
    // read its lookup, and binding to any other family is a kConfig
    // error.
    families.push_back(
        {"tage_provider", [] { return std::make_unique<TagePredictor>(); },
         one([] { return std::make_unique<TageProviderConfidence>(); })});
    families.push_back(
        {"perceptron_margin",
         [] { return std::make_unique<PerceptronPredictor>(); },
         one([] {
             return std::make_unique<PerceptronMarginConfidence>();
         })});
    return families;
}

std::vector<DifferentialFamily>
predictorFamilyRegistry()
{
    std::vector<DifferentialFamily> families;
    const auto add = [&families](std::string label,
                                 PredictorFactory make) {
        families.push_back({std::move(label), std::move(make),
                            referenceEstimator()});
    };
    add("pred_bimodal",
        [] { return std::make_unique<BimodalPredictor>(1024); });
    add("pred_gshare",
        [] { return std::make_unique<GsharePredictor>(1024, 8); });
    add("pred_gselect",
        [] { return std::make_unique<GselectPredictor>(1024, 4); });
    add("pred_agree",
        [] { return std::make_unique<AgreePredictor>(1024, 8); });
    add("pred_gag", [] {
        return std::make_unique<TwoLevelPredictor>(TwoLevelScheme::GAg,
                                                   10);
    });
    add("pred_pap", [] {
        return std::make_unique<TwoLevelPredictor>(TwoLevelScheme::PAp,
                                                   6, 256, 8);
    });
    add("pred_hybrid", [] {
        return std::make_unique<HybridPredictor>(
            std::make_unique<GsharePredictor>(1024, 8),
            std::make_unique<BimodalPredictor>(1024), 512);
    });
    add("pred_tage", [] { return std::make_unique<TagePredictor>(); });
    add("pred_perceptron",
        [] { return std::make_unique<PerceptronPredictor>(); });
    return families;
}

std::vector<DifferentialFamily>
differentialFamilyRegistry()
{
    std::vector<DifferentialFamily> families = estimatorFamilyRegistry();
    std::vector<DifferentialFamily> predictors =
        predictorFamilyRegistry();
    families.insert(families.end(),
                    std::make_move_iterator(predictors.begin()),
                    std::make_move_iterator(predictors.end()));
    return families;
}

DifferentialFamily
differentialFamilyNamed(const std::string &label)
{
    for (auto &family : differentialFamilyRegistry())
        if (family.label == label)
            return family;
    fatal(ErrorCategory::kConfig,
          "unknown differential family: " + label);
}

} // namespace confsim
