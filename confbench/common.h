/**
 * @file
 * Shared plumbing for the confsim benchmark: host clocks and resource
 * counters, result digests, the expected-values file, the check tally,
 * and metric rows.
 */

#ifndef CONFBENCH_COMMON_H
#define CONFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "confidence/static_confidence.h"
#include "metrics/bucket_stats.h"
#include "workload/benchmark_profile.h"

namespace confbench {

using Clock = std::chrono::steady_clock;

/** @return seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** @return user + system CPU seconds of the whole process so far. */
double processCpuSeconds();

/** @return the process's peak resident set size in MiB. */
double peakRssMib();

/** @return CPUs this process may run on (what `nproc` prints). */
unsigned hostCpus();

/** @return the median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Keeps @p value alive without letting the compiler fold it away. */
template <typename T>
inline void
sink(const T &value)
{
    asm volatile("" : : "g"(value) : "memory");
}

/** FNV-1a over 64-bit words: the digest of exact simulated counts. */
class Digest
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Digest of a run's branch and mispredict counts plus every bucket. */
std::uint64_t digestStats(std::uint64_t branches, std::uint64_t mispredicts,
                          const confsim::BucketStats &stats);

/** Digest of a per-PC profile (driver form). */
std::uint64_t digestProfile(const confsim::StaticBranchProfile &profile);

/** Digest of a per-PC profile (suite form, keys tagged bench << 48). */
std::uint64_t digestProfile(const confsim::SparseBucketStats &stats);

/**
 * Expected outputs of one workload at one seed and size: exact digests
 * and exact values, keyed by "benchmark/config/estimator"-style names.
 * Stored as text, one "digest <key> <hex>" or "value <key> <double>"
 * line each.
 */
struct Expected
{
    std::map<std::string, std::uint64_t> digests;
    std::map<std::string, double> values;

    void save(const std::string &path) const;

    /** fatal() on a missing or malformed file. */
    static Expected load(const std::string &path);
};

/** Tally of output checks; the first few failures go to stderr. */
class Checks
{
  public:
    /** Count one check; @p what names it when it fails. */
    void expect(bool ok, const std::string &what);

    /** Count one failed check: an iteration threw @p why. */
    void fail(const std::string &why);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Compare a digest against the expected entry @p key. */
void checkDigest(Checks &checks, const Expected &expected,
                 const std::string &key, std::uint64_t actual);

/** One printed metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** An ordered, name-unique set of metrics. */
class Rows
{
  public:
    /** Add or replace @p name. */
    void set(const std::string &name, const std::string &unit,
             double value);

    bool has(const std::string &name) const;
    double get(const std::string &name) const;

    const std::vector<Metric> &all() const { return rows_; }

  private:
    std::vector<Metric> rows_;
};

/** Deterministic 64-bit mix (SplitMix64 finalizer). */
std::uint64_t mix64(std::uint64_t x);

/**
 * The IBS profiles with their CFG/noise seeds perturbed by the
 * workload seed, in suite order.
 */
std::vector<confsim::BenchmarkProfile> seededProfiles(std::uint64_t seed);

} // namespace confbench

#endif // CONFBENCH_COMMON_H
