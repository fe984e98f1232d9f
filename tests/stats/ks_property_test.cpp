/**
 * @file
 * Property tests of the presorted K-S kernels against a brute-force
 * O(n*m) two-sample EDF sup-distance oracle. The production code
 * picks between a merge-walk and a binary-search walk depending on
 * sample-size lopsidedness; the oracle pins both to the definition
 * D = sup_x |F_a(x) - F_b(x)| across ties, duplicates, and samples
 * whose tails exhaust one side entirely.
 */

#include <algorithm>
#include <cstddef>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "stats/ks.h"
#include "stats/mwu.h"

namespace
{

using eddie::stats::ksStatistic;
using eddie::stats::ksStatisticSorted;

/**
 * Textbook sup-distance: evaluate both EDFs at every observed value
 * (the sup over the reals is attained at a sample point) with a full
 * O(n*m) count per evaluation point. Slow, obviously correct.
 */
double
bruteForceD(const std::vector<double> &a, const std::vector<double> &b)
{
    std::vector<double> candidates = a;
    candidates.insert(candidates.end(), b.begin(), b.end());
    double d = 0.0;
    for (double x : candidates) {
        std::size_t ca = 0, cb = 0;
        for (double v : a)
            if (v <= x)
                ++ca;
        for (double v : b)
            if (v <= x)
                ++cb;
        const double fa = double(ca) / double(a.size());
        const double fb = double(cb) / double(b.size());
        d = std::max(d, std::abs(fa - fb));
    }
    return d;
}

/**
 * Runs every production entry point on the same pair. Against the
 * oracle the tolerance is a few ulps (the oracle divides counts,
 * production multiplies by a precomputed reciprocal); *between*
 * production paths — merge-walk, search-walk, wrapper — equality is
 * exact, which is the monitor's verdict-compatibility contract.
 */
void
expectAllPathsMatchOracle(std::vector<double> a, std::vector<double> b)
{
    const double want = bruteForceD(a, b);

    const double d = ksStatistic(a, b);
    EXPECT_NEAR(d, want, 1e-12);
    EXPECT_EQ(ksStatistic(b, a), d) << "asymmetric statistic";

    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(ksStatisticSorted(a, b), d);
    EXPECT_EQ(ksStatisticSorted(b, a), d);
}

TEST(KsPropertyTest, RandomPairsMatchBruteForce)
{
    std::mt19937_64 rng(20260806);
    std::uniform_int_distribution<std::size_t> size_dist(1, 40);
    std::uniform_real_distribution<double> value(-5.0, 5.0);
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<double> a(size_dist(rng)), b(size_dist(rng));
        for (auto &v : a)
            v = value(rng);
        for (auto &v : b)
            v = value(rng);
        expectAllPathsMatchOracle(std::move(a), std::move(b));
    }
}

TEST(KsPropertyTest, HeavyTiesAndDuplicatesMatchBruteForce)
{
    // Integer-valued draws from a tiny support force cross-sample
    // ties and within-sample duplicates on nearly every element —
    // the case where EDF step heights differ from 1/n and a naive
    // per-element walk over-counts.
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<std::size_t> size_dist(1, 30);
    std::uniform_int_distribution<int> value(0, 4);
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<double> a(size_dist(rng)), b(size_dist(rng));
        for (auto &v : a)
            v = double(value(rng));
        for (auto &v : b)
            v = double(value(rng));
        expectAllPathsMatchOracle(std::move(a), std::move(b));
    }
}

TEST(KsPropertyTest, LopsidedSizesExerciseTheSearchWalk)
{
    // m >= 32 n routes through the binary-search walk instead of the
    // merge-walk; both must agree with the oracle on the same pair.
    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> value(0.0, 1.0);
    for (std::size_t n : {std::size_t(1), std::size_t(2),
                          std::size_t(5)}) {
        std::vector<double> big(40 * n), small(n);
        for (auto &v : big)
            v = value(rng);
        for (auto &v : small)
            v = value(rng);
        expectAllPathsMatchOracle(big, small);
        expectAllPathsMatchOracle(small, big);
    }
}

TEST(KsPropertyTest, DisjointSupportsReachExactlyOne)
{
    // One-sided tail exhaustion: every a below every b, so one EDF
    // hits 1 while the other is still 0 and the sup is exactly 1.
    const std::vector<double> a = {1.0, 2.0, 3.0};
    const std::vector<double> b = {10.0, 11.0};
    EXPECT_EQ(bruteForceD(a, b), 1.0);
    expectAllPathsMatchOracle(a, b);

    // Interleaved tails: last monitored value beyond the whole
    // reference, first one before it.
    expectAllPathsMatchOracle({1.0, 2.0, 3.0, 4.0}, {0.0, 100.0});
}

TEST(KsPropertyTest, IdenticalSamplesHaveZeroDistance)
{
    const std::vector<double> a = {1.0, 1.0, 2.0, 5.0};
    expectAllPathsMatchOracle(a, a);
    EXPECT_EQ(ksStatistic(a, a), 0.0);
}

TEST(KsPropertyTest, SortedTestAgreesWithUnsortedTest)
{
    std::mt19937_64 rng(99);
    std::uniform_real_distribution<double> value(-1.0, 1.0);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> a(24), b(8);
        for (auto &v : a)
            v = value(rng);
        for (auto &v : b)
            v = value(rng);
        const auto plain = eddie::stats::ksTest(a, b, 0.01);
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        const auto sorted = eddie::stats::ksTestSorted(a, b, 0.01);
        EXPECT_EQ(plain.statistic, sorted.statistic);
        EXPECT_EQ(plain.critical, sorted.critical);
        EXPECT_EQ(plain.p_value, sorted.p_value);
        EXPECT_EQ(plain.reject, sorted.reject);
        EXPECT_EQ(plain.critical,
                  eddie::stats::ksCritical(a.size(), b.size(), 0.01));
    }
}

TEST(MwuPropertyTest, SortedTestIsBitIdenticalToLegacy)
{
    std::mt19937_64 rng(4242);
    std::uniform_int_distribution<std::size_t> size_dist(1, 30);
    // Small integer support again: midranks and the tie-correction
    // term only matter when ties actually occur.
    std::uniform_int_distribution<int> value(0, 6);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> a(size_dist(rng)), b(size_dist(rng));
        for (auto &v : a)
            v = double(value(rng));
        for (auto &v : b)
            v = double(value(rng));
        const auto plain = eddie::stats::mwuTest(a, b, 0.05);
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        const auto sorted = eddie::stats::mwuTestSorted(a, b, 0.05);
        EXPECT_EQ(plain.u, sorted.u);
        EXPECT_EQ(plain.z, sorted.z);
        EXPECT_EQ(plain.p_value, sorted.p_value);
        EXPECT_EQ(plain.reject, sorted.reject);
    }
}

} // namespace
