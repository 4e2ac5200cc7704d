/**
 * @file
 * Streaming summary statistics (Welford's algorithm). Used by the
 * metrics registry, the sweep engine's batch and refill timing and
 * the seed-sensitivity harness (bench/ablation_seed_sensitivity).
 */

#ifndef CONFSIM_UTIL_RUNNING_STATS_H
#define CONFSIM_UTIL_RUNNING_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace confsim {

/** Numerically stable streaming mean/variance/min/max. */
class RunningStats
{
  public:
    /** Add one observation. */
    void
    add(double value)
    {
        ++count_;
        const double delta = value - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (value - mean_);
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }

    /** @return number of observations. */
    std::uint64_t count() const { return count_; }

    /** @return sample mean (0 when empty). */
    double mean() const { return count_ == 0 ? 0.0 : mean_; }

    /** @return population variance (0 with < 2 observations). */
    double
    variance() const
    {
        return count_ < 2 ? 0.0
                          : m2_ / static_cast<double>(count_);
    }

    /** @return population standard deviation. */
    double stddev() const { return std::sqrt(variance()); }

    /** @return sample variance (n - 1 denominator). */
    double
    sampleVariance() const
    {
        return count_ < 2 ? 0.0
                          : m2_ / static_cast<double>(count_ - 1);
    }

    /** @return smallest observation (+inf when empty). */
    double min() const { return min_; }

    /** @return largest observation (-inf when empty). */
    double max() const { return max_; }

    /** Merge another accumulator (parallel-friendly). */
    void
    merge(const RunningStats &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        const double total =
            static_cast<double>(count_ + other.count_);
        const double delta = other.mean_ - mean_;
        m2_ += other.m2_ + delta * delta *
                               static_cast<double>(count_) *
                               static_cast<double>(other.count_) /
                               total;
        mean_ += delta * static_cast<double>(other.count_) / total;
        count_ += other.count_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace confsim

#endif // CONFSIM_UTIL_RUNNING_STATS_H
