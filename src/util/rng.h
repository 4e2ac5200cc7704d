/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * Every stochastic element of the synthetic benchmark suite draws from a
 * seeded Xoshiro256** generator so that experiments are bit-reproducible
 * across runs and platforms. The header also provides the distribution
 * samplers the workload generator needs: uniform ranges, Bernoulli trials,
 * geometric trip counts, and a Zipf sampler for static-branch execution
 * frequency skew.
 */

#ifndef CONFSIM_UTIL_RNG_H
#define CONFSIM_UTIL_RNG_H

#include <array>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace confsim {

/**
 * Xoshiro256** pseudo-random generator (Blackman & Vigna).
 *
 * Chosen over std::mt19937_64 because its output sequence is fully
 * specified here (libstdc++/libc++ agree on mt19937 too, but the
 * distributions on top of it are not portable); all samplers below are
 * implemented in-repo so results are identical everywhere.
 */
class Rng
{
  public:
    /** Seed the generator; the same seed always yields the same stream. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /**
     * @return the next raw 64-bit output. This and the three draws
     * below are inline, so a caller's constant bound or probability
     * folds into its call site.
     */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** @return a double uniformly distributed in [0, 1). */
    double
    nextDouble()
    {
        // 53 high bits -> uniform double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /**
     * @return an integer uniformly distributed in [0, bound)
     * using rejection sampling (unbiased). @pre bound > 0.
     */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        if (bound == 0)
            panic("Rng::nextBelow called with bound == 0");
        // Rejection sampling to remove modulo bias.
        const std::uint64_t threshold = (~bound + 1) % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** @return an integer uniformly distributed in [lo, hi] inclusive. */
    std::int64_t nextInRange(std::int64_t lo, std::int64_t hi);

    /** @return true with probability @p p (clamped to [0, 1]). */
    bool
    nextBernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * Sample a geometric distribution: the number of failures before the
     * first success with success probability @p p. Used for loop
     * trip-count variation. @pre 0 < p <= 1.
     */
    std::uint64_t nextGeometric(double p);

    /**
     * Split off an independent child generator. Uses SplitMix64 over the
     * parent's next output, so children seeded from the same parent state
     * are decorrelated.
     */
    Rng split();

    /**
     * Snapshot the full generator state for checkpointing. Restoring
     * these four words with setStateWords() reproduces the remaining
     * output stream exactly.
     */
    std::array<std::uint64_t, 4> stateWords() const;

    /** Restore a stateWords() snapshot. @pre not all words zero. */
    void setStateWords(const std::array<std::uint64_t, 4> &words);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * Zipf(s) sampler over ranks {0, ..., n-1} with precomputed inverse CDF.
 *
 * Rank r is drawn with probability proportional to 1 / (r + 1)^s. Used to
 * give synthetic benchmarks the heavily skewed static-branch execution
 * frequency distribution real programs exhibit (a few hot branches
 * dominate the dynamic stream).
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of ranks; must be > 0.
     * @param s Skew exponent; s == 0 degenerates to uniform.
     */
    ZipfSampler(std::size_t n, double s);

    /** Draw a rank in [0, n). */
    std::size_t sample(Rng &rng) const;

    /** @return probability mass of rank @p r. */
    double probabilityOf(std::size_t r) const;

    /** @return number of ranks. */
    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace confsim

#endif // CONFSIM_UTIL_RNG_H
