/**
 * @file
 * Static (non-adaptive) predictors: always-taken, always-not-taken, and
 * backward-taken/forward-not-taken (BTFNT). These bound the dynamic
 * predictors from below and support the prediction-reverser discussion
 * (the S-1 and PowerPC 601 static schemes cited in Section 1.1). Only
 * tests use them, where a fixed prediction makes the expected counts
 * easy to state.
 */

#ifndef CONFSIM_TESTS_SUPPORT_STATIC_PREDICTOR_H
#define CONFSIM_TESTS_SUPPORT_STATIC_PREDICTOR_H

#include <unordered_map>

#include "predictor/branch_predictor.h"

namespace confsim {

/** Static prediction policy. */
enum class StaticPolicy
{
    AlwaysTaken,
    AlwaysNotTaken,
    BackwardTaken, //!< BTFNT; requires targets via setTarget()
};

/** Stateless direction predictor with a fixed policy. */
class StaticPredictor : public BranchPredictor
{
  public:
    explicit StaticPredictor(StaticPolicy policy);

    /**
     * Provide the taken-path target for @p pc, needed by the BTFNT
     * policy to decide direction (backward target => predict taken).
     */
    void setTarget(std::uint64_t pc, std::uint64_t target);

    bool predict(std::uint64_t pc) const override;
    void update(std::uint64_t pc, bool taken) override;
    std::uint64_t storageBits() const override;
    std::string name() const override;
    void reset() override;

    bool checkpointable() const override { return true; }
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;

  private:
    StaticPolicy policy_;
    std::unordered_map<std::uint64_t, std::uint64_t> targets_;
};

} // namespace confsim

#endif // CONFSIM_TESTS_SUPPORT_STATIC_PREDICTOR_H
