#include "util/rng.h"

#include <algorithm>
#include <cmath>

namespace confsim {

namespace {

/** SplitMix64 step; used for seeding and for Rng::split(). */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // Expand the seed with SplitMix64 as the xoshiro authors recommend;
    // guarantees a non-zero state for any seed.
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitMix64(s);
}

std::int64_t
Rng::nextInRange(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("Rng::nextInRange called with lo > hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

std::uint64_t
Rng::nextGeometric(double p)
{
    if (p <= 0.0 || p > 1.0)
        panic("Rng::nextGeometric requires 0 < p <= 1");
    if (p == 1.0)
        return 0;
    // Inverse transform: floor(log(U) / log(1 - p)).
    const double u = 1.0 - nextDouble(); // in (0, 1]
    return static_cast<std::uint64_t>(
        std::floor(std::log(u) / std::log1p(-p)));
}

Rng
Rng::split()
{
    std::uint64_t s = next();
    return Rng(splitMix64(s));
}

std::array<std::uint64_t, 4>
Rng::stateWords() const
{
    return {state_[0], state_[1], state_[2], state_[3]};
}

void
Rng::setStateWords(const std::array<std::uint64_t, 4> &words)
{
    // The all-zero state is a fixed point of xoshiro256**; a checkpoint
    // can never legitimately contain it.
    if ((words[0] | words[1] | words[2] | words[3]) == 0)
        fatal("Rng::setStateWords: all-zero state is invalid");
    for (std::size_t i = 0; i < words.size(); ++i)
        state_[i] = words[i];
}

ZipfSampler::ZipfSampler(std::size_t n, double s)
{
    if (n == 0)
        fatal("ZipfSampler requires at least one rank");
    cdf_.resize(n);
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), s);
        cdf_[r] = total;
    }
    for (auto &c : cdf_)
        c /= total;
    cdf_.back() = 1.0; // guard against rounding
}

std::size_t
ZipfSampler::sample(Rng &rng) const
{
    const double u = rng.nextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
}

double
ZipfSampler::probabilityOf(std::size_t r) const
{
    if (r >= cdf_.size())
        panic("ZipfSampler::probabilityOf rank out of range");
    return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
}

} // namespace confsim
