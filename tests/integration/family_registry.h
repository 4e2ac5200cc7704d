/**
 * @file
 * The shared (predictor, estimator) family registry behind the
 * differential test wall.
 *
 * The sweep engine's bit-exactness contract is only as strong as the
 * set of configurations the differential tests enumerate. Before this
 * registry existed each test file carried its own hard-coded family
 * list, so a new predictor or estimator could silently skip the
 * harness. Now there is exactly one list: add a family here and every
 * differential combo — one engine or two concurrent passes,
 * batch-size invariance, checkpoint kill-and-resume — covers it
 * automatically.
 *
 * Geometries are small (test scale) where a family has a knob: the
 * registry's job is to exercise every code path's state machine, not
 * to reproduce paper-scale accuracy numbers (sim/experiment.h owns
 * those). TAGE and the perceptron have one fixed geometry, the paper
 * scale's.
 */

#ifndef CONFSIM_TESTS_INTEGRATION_FAMILY_REGISTRY_H
#define CONFSIM_TESTS_INTEGRATION_FAMILY_REGISTRY_H

#include <string>
#include <vector>

#include "sim/suite_runner.h"

namespace confsim {

/** One registered configuration: label + paired factories. */
struct DifferentialFamily
{
    std::string label;
    PredictorFactory makePredictor;
    EstimatorSetFactory makeEstimators;
};

/**
 * Every estimator family in src/confidence/, each over the reference
 * small-gshare predictor. Native-confidence estimators (TAGE
 * provider, perceptron margin) ride their matching predictor instead,
 * whose own lookup they read.
 */
std::vector<DifferentialFamily> estimatorFamilyRegistry();

/**
 * Every predictor family in src/predictor/, each under a fixed
 * resetting-counter estimator (the paper's workhorse), so predictor
 * state machines face the same differential wall estimators do.
 */
std::vector<DifferentialFamily> predictorFamilyRegistry();

/** The union of both registries (labels are unique across them). */
std::vector<DifferentialFamily> differentialFamilyRegistry();

/**
 * Look up a family by label in the combined registry.
 * Fatals (Error{kConfig}) on an unknown label so tests that pick
 * specific families fail loudly when one is renamed.
 */
DifferentialFamily differentialFamilyNamed(const std::string &label);

} // namespace confsim

#endif // CONFSIM_TESTS_INTEGRATION_FAMILY_REGISTRY_H
