/**
 * @file
 * Golden-output regression tests for the figure CSV artifacts.
 *
 * Regenerates fig05_one_level.csv and fig09_benchmarks.csv in-process
 * with the bench harnesses' exact --fast pipeline (reduced IBS suite,
 * 200'000 branches per benchmark, the suite's fixed per-benchmark
 * seeds) and diffs them cell-by-cell against the frozen fixtures in
 * tests/golden/. Identifier cells (series, bucket) must match
 * exactly; ratio cells (bucket_rate, ref_pct, mispred_pct) are parsed
 * and compared with a 1e-9 absolute tolerance so the fixtures survive
 * innocuous float-formatting changes while still pinning every value
 * to nine digits.
 *
 * The whole pipeline is deterministic — synthetic workload seeds,
 * in-repo RNG, no threading — so any diff here is a behavior change:
 * either an intentional modeling change (refresh the fixtures, see
 * tests/golden/README.md) or a regression (fix it).
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/confidence_curve.h"
#include "sim/experiment.h"

#ifndef CONFSIM_GOLDEN_DIR
#error "CONFSIM_GOLDEN_DIR must point at the fixture directory"
#endif

namespace confsim {
namespace {

/** The --fast bench environment, replicated field-for-field. */
ExperimentEnv
fastEnv(const std::string &csv_dir)
{
    ExperimentEnv env;
    env.fullSuite = false;
    env.branchesPerBenchmark = 200'000;
    env.csvDir = csv_dir;
    env.tool = "golden_outputs_test";
    return env;
}

std::vector<std::vector<std::string>>
readCsv(const std::filesystem::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    std::vector<std::vector<std::string>> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        std::vector<std::string> cells;
        std::stringstream split(line);
        std::string cell;
        while (std::getline(split, cell, ','))
            cells.push_back(cell);
        rows.push_back(std::move(cells));
    }
    return rows;
}

/**
 * Cell-by-cell diff: columns 0-1 (series, bucket) exact, columns 2-4
 * (bucket_rate, ref_pct, mispred_pct) numeric within 1e-9.
 */
void
expectCsvMatchesGolden(const std::filesystem::path &actual_path,
                       const std::string &fixture_name)
{
    const std::filesystem::path golden_path =
        std::filesystem::path(CONFSIM_GOLDEN_DIR) / fixture_name;
    ASSERT_TRUE(std::filesystem::exists(golden_path))
        << golden_path << " missing — generate it per "
        << "tests/golden/README.md";

    const auto expected = readCsv(golden_path);
    const auto actual = readCsv(actual_path);
    ASSERT_GT(expected.size(), 1u) << "empty fixture " << fixture_name;
    ASSERT_EQ(actual.size(), expected.size())
        << fixture_name << ": row count changed";

    constexpr double kRatioTolerance = 1e-9;
    for (std::size_t r = 0; r < expected.size(); ++r) {
        ASSERT_EQ(actual[r].size(), expected[r].size())
            << fixture_name << " row " << r << ": column count changed";
        for (std::size_t c = 0; c < expected[r].size(); ++c) {
            SCOPED_TRACE(fixture_name + " row " + std::to_string(r) +
                         " col " + std::to_string(c));
            const bool ratio_column = r > 0 && c >= 2;
            if (!ratio_column) {
                EXPECT_EQ(actual[r][c], expected[r][c]);
                continue;
            }
            const double want = std::strtod(expected[r][c].c_str(),
                                            nullptr);
            const double got = std::strtod(actual[r][c].c_str(),
                                           nullptr);
            EXPECT_NEAR(got, want, kRatioTolerance)
                << "frozen '" << expected[r][c] << "' vs regenerated '"
                << actual[r][c] << "'";
        }
    }
}

TEST(GoldenOutputs, Fig05OneLevelCsvIsFrozen)
{
    // bench/fig05_one_level.cc's pipeline, verbatim: three one-level
    // ideal-reduction index schemes plus the static composite, with
    // the TAGE-provider and perceptron-margin native families riding
    // the same sweep.
    const auto csv_dir = std::filesystem::path(::testing::TempDir()) /
                         "golden_fig05";
    std::filesystem::create_directories(csv_dir);
    const ExperimentEnv env = fastEnv(csv_dir.string());

    const std::vector<EstimatorConfig> configs = {
        oneLevelIdealConfig(IndexScheme::Pc),
        oneLevelIdealConfig(IndexScheme::Bhr),
        oneLevelIdealConfig(IndexScheme::PcXorBhr),
    };
    const std::vector<SweepExperimentConfig> sweep_configs = {
        {"gshare+CIR", largeGshareFactory(), configs},
        {"tage", tageFactory(), {tageProviderConfig()}},
        {"perceptron", perceptronFactory(), {perceptronMarginConfig()}},
    };
    const SweepSuiteResult sweep = runSuiteExperiment(env, sweep_configs);
    const SuiteRunResult &result = sweep.perConfig[0];

    std::vector<NamedCurve> curves;
    curves.push_back(staticCompositeCurve(result));
    for (std::size_t i = 0; i < configs.size(); ++i)
        curves.push_back(compositeCurve(result, i, configs[i].label));
    curves.push_back(compositeCurve(
        sweep.perConfig[1], 0, sweep_configs[1].estimators[0].label));
    curves.push_back(compositeCurve(
        sweep.perConfig[2], 0, sweep_configs[2].estimators[0].label));
    const auto csv = csv_dir / "fig05_one_level.csv";
    writeCurvesCsv(csv.string(), curves);

    expectCsvMatchesGolden(csv, "fig05_one_level.csv");
}

TEST(GoldenOutputs, Fig09BenchmarksCsvIsFrozen)
{
    // bench/fig09_benchmarks.cc's pipeline, verbatim: per-benchmark
    // curves for the paper's best (jpeg) / worst (gcc) pair under the
    // best one-level method, plus the same pair under the two native
    // confidence families.
    const auto csv_dir = std::filesystem::path(::testing::TempDir()) /
                         "golden_fig09";
    std::filesystem::create_directories(csv_dir);
    const ExperimentEnv env = fastEnv(csv_dir.string());

    const std::vector<EstimatorConfig> configs = {
        oneLevelIdealConfig(IndexScheme::PcXorBhr),
    };
    const std::vector<SweepExperimentConfig> sweep_configs = {
        {"gshare+CIR", largeGshareFactory(), configs},
        {"tage", tageFactory(), {tageProviderConfig()}},
        {"perceptron", perceptronFactory(), {perceptronMarginConfig()}},
    };
    const SweepSuiteResult sweep = runSuiteExperiment(env, sweep_configs);
    const SuiteRunResult &result = sweep.perConfig[0];

    std::vector<NamedCurve> figure_curves;
    for (const auto &bench : result.perBenchmark) {
        if (bench.name == "jpeg" || bench.name == "real_gcc") {
            figure_curves.push_back(
                {bench.name, ConfidenceCurve::fromBucketStats(
                                 bench.estimatorStats[0])});
        }
    }
    const char *const kNativeTags[] = {"tage", "perc"};
    for (std::size_t c = 1; c < sweep.perConfig.size(); ++c) {
        for (const auto &bench : sweep.perConfig[c].perBenchmark) {
            if (bench.name != "jpeg" && bench.name != "real_gcc")
                continue;
            figure_curves.push_back(
                {bench.name + "-" + kNativeTags[c - 1],
                 ConfidenceCurve::fromBucketStats(
                     bench.estimatorStats[0])});
        }
    }
    ASSERT_EQ(figure_curves.size(), 6u);
    const auto csv = csv_dir / "fig09_benchmarks.csv";
    writeCurvesCsv(csv.string(), figure_curves);

    expectCsvMatchesGolden(csv, "fig09_benchmarks.csv");
}

} // namespace
} // namespace confsim
