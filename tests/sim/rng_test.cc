/**
 * @file
 * Unit and statistical tests for the deterministic RNG.
 */

#include "sim/rng.hh"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace jetsim::sim {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(3.0, 9.0);
        EXPECT_GE(u, 3.0);
        EXPECT_LT(u, 9.0);
    }
}

TEST(Rng, UniformIntCoversInclusiveRange)
{
    Rng r(11);
    bool lo = false, hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.uniformInt(2, 5);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 5);
        lo |= v == 2;
        hi |= v == 5;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, NormalHasExpectedMoments)
{
    Rng r(42);
    double sum = 0, sq = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = r.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, LognormalMatchesTargetMean)
{
    Rng r(42);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.lognormalBounded(6.0, 0.35);
    EXPECT_NEAR(sum / n, 6.0, 0.1);
}

TEST(Rng, LognormalZeroCvIsDeterministic)
{
    Rng r(1);
    EXPECT_DOUBLE_EQ(r.lognormalBounded(5.0, 0.0), 5.0);
}

TEST(Rng, LognormalIsPositive)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GT(r.lognormalBounded(10.0, 1.0), 0.0);
}

/** The per-call formula draw() replaced: logs, root and clamps
 * recomputed on every draw. */
double
perCallLognormal(Rng &r, double mean, double cv)
{
    if (cv == 0.0)
        return mean;
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    const double v = std::exp(mu + std::sqrt(sigma2) * r.normal());
    const double lo = mean / kLognormalEnvelope;
    const double hi = mean * kLognormalEnvelope;
    return v < lo ? lo : (v > hi ? hi : v);
}

TEST(Rng, DrawOfPrecomputedLawIsBitwiseThePerCallDraw)
{
    for (const double mean : {1e-3, 0.5, 1.0, 3.7, 450e3, 2.5e9}) {
        for (const double cv : {0.0, 0.05, 0.3, 0.35, 1.0, 2.5}) {
            const Lognormal law(mean, cv);
            Rng a(99), b(99), c(99);
            for (int i = 0; i < 200; ++i) {
                const double d = a.draw(law);
                const double w = b.lognormalBounded(mean, cv);
                const double ref = perCallLognormal(c, mean, cv);
                ASSERT_EQ(std::bit_cast<std::uint64_t>(d),
                          std::bit_cast<std::uint64_t>(ref))
                    << "mean " << mean << " cv " << cv << " draw " << i;
                ASSERT_EQ(std::bit_cast<std::uint64_t>(w),
                          std::bit_cast<std::uint64_t>(ref));
            }
            EXPECT_EQ(a.next(), c.next()); // same state consumed
        }
    }
}

TEST(Rng, ZeroCvDrawConsumesNoState)
{
    Rng a(5), b(5);
    EXPECT_EQ(a.draw(Lognormal(3.0, 0.0)), 3.0);
    EXPECT_EQ(a.lognormalBounded(7.5, 0.0), 7.5);
    EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng r(9);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ForkedChildrenAreIndependentOfLabel)
{
    Rng parent1(5), parent2(5);
    Rng a = parent1.fork("gpu");
    Rng b = parent2.fork("cpu");
    // Different labels from identically-seeded parents diverge.
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic)
{
    Rng p1(5), p2(5);
    Rng a = p1.fork("x");
    Rng b = p2.fork("x");
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, HashLabelIsStable)
{
    EXPECT_EQ(hashLabel("abc"), hashLabel("abc"));
    EXPECT_NE(hashLabel("abc"), hashLabel("abd"));
    EXPECT_NE(hashLabel(""), hashLabel("a"));
}

} // namespace
} // namespace jetsim::sim
