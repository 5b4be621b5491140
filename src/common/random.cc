#include "common/random.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace bpsim {

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state(0), inc((stream << 1) | 1)
{
    next();
    state += seed;
    next();
}

std::uint32_t
Pcg32::next()
{
    std::uint64_t old = state;
    state = old * 6364136223846793005ULL + inc;
    auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
    auto rot = static_cast<std::uint32_t>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
}

std::uint32_t
Pcg32::nextBounded(std::uint32_t bound)
{
    bpsim_assert(bound != 0, "nextBounded(0)");
    // Debiased modulo (Lemire-style threshold rejection).
    std::uint32_t threshold = (-bound) % bound;
    for (;;) {
        std::uint32_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Pcg32::nextDouble()
{
    return next() * (1.0 / 4294967296.0);
}

bool
Pcg32::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

std::int64_t
Pcg32::uniformInt(std::int64_t lo, std::int64_t hi)
{
    bpsim_assert(lo <= hi, "uniformInt bounds reversed");
    auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) {
        // Full 64-bit span: compose two draws.
        return static_cast<std::int64_t>(
            (static_cast<std::uint64_t>(next()) << 32) | next());
    }
    if (span <= 0xffffffffULL)
        return lo + nextBounded(static_cast<std::uint32_t>(span));
    // Wide span: rejection sample on 64-bit draws.
    std::uint64_t limit = span * ((~std::uint64_t{0}) / span);
    for (;;) {
        std::uint64_t r =
            (static_cast<std::uint64_t>(next()) << 32) | next();
        if (r < limit)
            return lo + static_cast<std::int64_t>(r % span);
    }
}

std::uint64_t
Pcg32::geometric(double mean)
{
    bpsim_assert(mean >= 1.0, "geometric mean must be >= 1");
    if (mean == 1.0)
        return 1;
    // Trip count T >= 1 with P(T = k) = (1-p)^(k-1) p, E[T] = 1/p.
    double p = 1.0 / mean;
    double u = nextDouble();
    // Avoid log(0).
    if (u >= 1.0)
        u = 0.9999999999;
    auto k = static_cast<std::uint64_t>(
        std::floor(std::log1p(-u) / std::log1p(-p))) + 1;
    return k == 0 ? 1 : k;
}

DiscreteSampler::DiscreteSampler(const std::vector<double> &weights)
{
    bpsim_assert(!weights.empty(), "DiscreteSampler over no weights");
    cdf.resize(weights.size());
    double total = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        bpsim_assert(weights[i] >= 0.0, "negative weight");
        total += weights[i];
        cdf[i] = total;
    }
    bpsim_assert(total > 0.0, "all weights zero");
    for (auto &v : cdf)
        v /= total;
}

std::size_t
DiscreteSampler::sample(Pcg32 &rng) const
{
    double u = rng.nextDouble();
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    if (it == cdf.end())
        return cdf.size() - 1;
    return static_cast<std::size_t>(it - cdf.begin());
}

} // namespace bpsim
