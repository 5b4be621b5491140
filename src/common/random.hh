/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * Every stochastic choice in the simulator draws from a seeded Pcg32 so
 * that traces, programs and therefore every figure and table are exactly
 * reproducible from a profile name + seed.  std::mt19937 is avoided
 * because its stream is not guaranteed identical across standard library
 * implementations for the distribution adaptors; we implement the
 * distributions we need directly.
 */

#ifndef BPSIM_COMMON_RANDOM_HH
#define BPSIM_COMMON_RANDOM_HH

#include <cstdint>
#include <vector>

namespace bpsim {

/**
 * PCG32 (Melissa O'Neill's pcg32_random_r), a small fast generator with
 * a 64-bit state and 64-bit stream-selection constant.
 */
class Pcg32
{
  public:
    /** Construct from a seed and an optional stream id. */
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** @return the next 32 raw bits. */
    std::uint32_t next();

    /** @return a uniform integer in [0, bound). bound must be nonzero. */
    std::uint32_t nextBounded(std::uint32_t bound);

    /** @return a uniform double in [0, 1). */
    double nextDouble();

    /** @return true with probability @p p. */
    bool bernoulli(double p);

    /** @return a uniform integer in [lo, hi] (inclusive). */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /**
     * @return a geometrically distributed trip count >= 1 with the given
     * mean (mean must be >= 1).  Used for loop iteration counts.
     */
    std::uint64_t geometric(double mean);

  private:
    std::uint64_t state;
    std::uint64_t inc;
};

/**
 * Sampler over an arbitrary discrete weight vector (weights need not be
 * normalised).  O(log n) per draw via CDF binary search.
 */
class DiscreteSampler
{
  public:
    explicit DiscreteSampler(const std::vector<double> &weights);

    /** Draw an index in [0, size()). */
    std::size_t sample(Pcg32 &rng) const;

    std::size_t size() const { return cdf.size(); }

  private:
    std::vector<double> cdf;
};

} // namespace bpsim

#endif // BPSIM_COMMON_RANDOM_HH
