/**
 * @file
 * Equivalence of the simulator's RNG with the standard library: the
 * block-refill engine against std::mt19937_64, canonical() against
 * std::uniform_real_distribution<double>(0, 1), and the integer
 * threshold against the double comparison it replaces.
 */

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "common/mt19937_64.h"

namespace
{

using eddie::common::canonical;
using eddie::common::CanonicalBelow;
using eddie::common::Mt19937_64;

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

TEST(Mt19937_64, MatchesStdEngineOverTenMillionDraws)
{
    for (const std::uint64_t seed : {std::uint64_t(0), std::uint64_t(1),
                                     std::uint64_t(5489), kMax}) {
        std::mt19937_64 ref(seed);
        Mt19937_64 eng(seed);
        std::uint64_t mismatches = 0;
        for (int i = 0; i < 10'000'000; ++i)
            mismatches += ref() != eng();
        EXPECT_EQ(mismatches, 0u) << "seed " << seed;
    }
}

TEST(Mt19937_64, DefaultSeedMatchesStdEngine)
{
    std::mt19937_64 ref;
    Mt19937_64 eng;
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(ref(), eng());
}

TEST(Mt19937_64, DrivesStdDistributionsIdentically)
{
    std::mt19937_64 ref(42);
    Mt19937_64 eng(42);
    std::uniform_real_distribution<double> a(0.5, 1.5);
    std::uniform_real_distribution<double> b(0.5, 1.5);
    for (int i = 0; i < 100'000; ++i)
        ASSERT_EQ(a(ref), b(eng));
}

TEST(Canonical, MatchesUniformRealDistributionBitForBit)
{
    std::mt19937_64 ref(7);
    Mt19937_64 eng(7);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (int i = 0; i < 1'000'000; ++i) {
        const double want = coin(ref);
        const double got = canonical(eng());
        ASSERT_EQ(std::memcmp(&want, &got, sizeof want), 0) << "draw " << i;
    }
}

/** A URBG returning a fixed value, to feed chosen raw draws to the
 *  standard distribution. */
struct Fixed
{
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return kMax; }
    result_type x;
    result_type operator()() { return x; }
};

TEST(Canonical, MatchesAtTheEdges)
{
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (const std::uint64_t x :
         {std::uint64_t(0), std::uint64_t(1), std::uint64_t(1) << 11,
          (std::uint64_t(1) << 63) - 1, std::uint64_t(1) << 63,
          kMax - 1024, kMax - 1023, kMax - 1, kMax}) {
        Fixed f{x};
        const double want = coin(f);
        const double got = canonical(x);
        EXPECT_EQ(std::memcmp(&want, &got, sizeof want), 0) << "x " << x;
        EXPECT_LT(got, 1.0);
    }
}

/** Checks CanonicalBelow(t) against the double comparison at the
 *  edges, around its bound, and at random draws. */
void
checkThreshold(double t, std::mt19937_64 &rng)
{
    const CanonicalBelow below(t);
    const auto agree = [&](std::uint64_t x) {
        return below(x) == (canonical(x) < t);
    };
    for (const std::uint64_t x : {std::uint64_t(0), kMax, kMax - 1})
        ASSERT_TRUE(agree(x)) << "t " << t << " x " << x;
    // Locate the bound by bisection on the reference predicate and
    // probe both sides of it.
    std::uint64_t lo = 0;
    std::uint64_t hi = kMax;
    while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        (canonical(mid) < t ? lo : hi) = mid;
    }
    for (const std::uint64_t base : {lo, hi}) {
        for (std::uint64_t d = 0; d < 3; ++d) {
            ASSERT_TRUE(agree(base - d)) << "t " << t;
            ASSERT_TRUE(agree(base + d)) << "t " << t;
        }
    }
    for (int i = 0; i < 64; ++i)
        ASSERT_TRUE(agree(rng())) << "t " << t;
}

TEST(CanonicalBelow, AgreesWithDoubleComparisonAtListedThresholds)
{
    std::mt19937_64 rng(3);
    for (const double t : {0.0, 5e-324, 1e-300, 0.005, 0.5,
                           1.0 - 0x1p-53, 1.0, 1.8})
        checkThreshold(t, rng);
}

TEST(CanonicalBelow, AgreesWithDoubleComparisonAtRandomThresholds)
{
    std::mt19937_64 rng(4);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < 1'000'000; ++i) {
        // Mostly jitter-sized thresholds, some up to the 1.8 ceiling.
        const double t = (i % 4 == 0 ? 1.8 : 0.05) * unit(rng);
        const CanonicalBelow below(t);
        for (int k = 0; k < 4; ++k) {
            const std::uint64_t x = rng();
            ASSERT_EQ(below(x), canonical(x) < t) << "t " << t << " x " << x;
        }
    }
    for (int i = 0; i < 2000; ++i)
        checkThreshold(1.8 * unit(rng), rng);
}

TEST(CanonicalBelow, ThresholdsAtOrAboveOneCountEveryDraw)
{
    for (const double t : {1.0, 1.0 + 0x1p-52, 1.8,
                           std::numeric_limits<double>::infinity()}) {
        const CanonicalBelow below(t);
        EXPECT_TRUE(below(0));
        EXPECT_TRUE(below(kMax));
        EXPECT_TRUE(below(kMax - 1));
    }
}

TEST(CanonicalBelow, ZeroNegativeAndNanCountNoDraw)
{
    for (const double t : {0.0, -0.0, -1.0,
                           std::numeric_limits<double>::quiet_NaN()}) {
        const CanonicalBelow below(t);
        EXPECT_FALSE(below(0));
        EXPECT_FALSE(below(kMax));
    }
}

} // namespace
