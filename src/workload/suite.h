/**
 * @file
 * The benchmark suite: the ordered collection of IBS stand-in workloads
 * plus the equal-weight compositing rule of paper Section 1.2 ("each
 * benchmark, in effect, executes the same number of conditional
 * branches").
 */

#ifndef CONFSIM_WORKLOAD_SUITE_H
#define CONFSIM_WORKLOAD_SUITE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/benchmark_profile.h"
#include "workload/workload_generator.h"

namespace confsim {

/** An ordered set of benchmark profiles run with a common trace length. */
class BenchmarkSuite
{
  public:
    /**
     * The full nine-benchmark IBS stand-in suite.
     *
     * @param branches_per_benchmark Trace length for every benchmark
     *        (equal lengths make the equal-weight rule exact); 0 uses
     *        each profile's default.
     */
    static BenchmarkSuite ibs(std::uint64_t branches_per_benchmark = 0);

    /**
     * A reduced suite for fast tests/smoke runs: a subset of profiles
     * with short traces.
     */
    static BenchmarkSuite ibsSmall(std::uint64_t branches_per_benchmark);

    /** A suite with exactly the named IBS profiles. */
    static BenchmarkSuite
    ibsSubset(const std::vector<std::string> &names,
              std::uint64_t branches_per_benchmark);

    /**
     * A suite of arbitrary @p profiles (e.g. IBS profiles with shifted
     * seeds), each run for @p length branches (0 = profile default).
     * fatal() on an empty list.
     */
    BenchmarkSuite(std::vector<BenchmarkProfile> profiles,
                   std::uint64_t length);

    /** @return the number of benchmarks. */
    std::size_t size() const { return profiles_.size(); }

    /** @return profile @p index. */
    const BenchmarkProfile &profile(std::size_t index) const
    {
        return profiles_[index];
    }

    /** @return benchmark names in suite order. */
    std::vector<std::string> names() const;

    /** Construct a fresh generator for benchmark @p index. */
    std::unique_ptr<WorkloadGenerator>
    makeGenerator(std::size_t index) const;

    /** @return the per-benchmark trace length (0 = profile default). */
    std::uint64_t branchesPerBenchmark() const { return length_; }

  private:
    std::vector<BenchmarkProfile> profiles_;
    std::uint64_t length_;
};

} // namespace confsim

#endif // CONFSIM_WORKLOAD_SUITE_H
