/**
 * @file
 * Unit and statistical tests for the deterministic RNG and samplers that
 * drive workload synthesis.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.hh"

using namespace bpsim;

TEST(Pcg32, SameSeedSameStream)
{
    Pcg32 a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next()) << "diverged at step " << i;
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Pcg32, DifferentStreamsDiffer)
{
    Pcg32 a(1, 100), b(1, 200);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Pcg32, NextBoundedStaysInBounds)
{
    Pcg32 rng(7);
    for (std::uint32_t bound : {1u, 2u, 3u, 7u, 100u, 1u << 20}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Pcg32, NextBoundedOneAlwaysZero)
{
    Pcg32 rng(9);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(Pcg32, NextBoundedIsRoughlyUniform)
{
    Pcg32 rng(11);
    const std::uint32_t bound = 8;
    std::vector<int> counts(bound, 0);
    const int draws = 80'000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.nextBounded(bound)];
    for (std::uint32_t v = 0; v < bound; ++v) {
        double expect = static_cast<double>(draws) / bound;
        EXPECT_NEAR(counts[v], expect, expect * 0.1) << "value " << v;
    }
}

TEST(Pcg32, NextDoubleInUnitInterval)
{
    Pcg32 rng(13);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
    }
}

TEST(Pcg32, BernoulliExtremes)
{
    Pcg32 rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Pcg32, BernoulliRate)
{
    Pcg32 rng(19);
    int hits = 0;
    const int draws = 50'000;
    for (int i = 0; i < draws; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / static_cast<double>(draws), 0.3, 0.02);
}

TEST(Pcg32, UniformIntCoversRangeInclusive)
{
    Pcg32 rng(23);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        auto v = rng.uniformInt(3, 10);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 10);
        saw_lo |= v == 3;
        saw_hi |= v == 10;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Pcg32, UniformIntDegenerateRange)
{
    Pcg32 rng(29);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(rng.uniformInt(5, 5), 5);
}

TEST(Pcg32, UniformIntNegativeRange)
{
    Pcg32 rng(31);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.uniformInt(-10, -1);
        ASSERT_GE(v, -10);
        ASSERT_LE(v, -1);
    }
}

TEST(Pcg32, GeometricMeanOne)
{
    Pcg32 rng(37);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.geometric(1.0), 1u);
}

TEST(Pcg32, GeometricAlwaysPositive)
{
    Pcg32 rng(41);
    for (int i = 0; i < 5000; ++i)
        ASSERT_GE(rng.geometric(4.0), 1u);
}

TEST(Pcg32, GeometricHitsItsMean)
{
    Pcg32 rng(43);
    for (double mean : {2.0, 5.0, 20.0}) {
        double sum = 0;
        const int draws = 40'000;
        for (int i = 0; i < draws; ++i)
            sum += static_cast<double>(rng.geometric(mean));
        EXPECT_NEAR(sum / draws, mean, mean * 0.06) << "mean " << mean;
    }
}

TEST(DiscreteSampler, RespectsWeights)
{
    Pcg32 rng(59);
    DiscreteSampler s({1.0, 3.0, 0.0, 4.0});
    std::vector<int> counts(4, 0);
    const int draws = 80'000;
    for (int i = 0; i < draws; ++i)
        ++counts[s.sample(rng)];
    EXPECT_NEAR(counts[0], draws * (1.0 / 8.0), draws * 0.01);
    EXPECT_NEAR(counts[1], draws * (3.0 / 8.0), draws * 0.015);
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[3], draws * (4.0 / 8.0), draws * 0.015);
}

TEST(DiscreteSamplerDeathTest, RejectsAllZeroWeights)
{
    EXPECT_DEATH(DiscreteSampler({0.0, 0.0}), "all weights zero");
}

TEST(DiscreteSamplerDeathTest, RejectsNegativeWeights)
{
    EXPECT_DEATH(DiscreteSampler({1.0, -1.0}), "negative weight");
}
