/**
 * @file
 * Kernel-behaviour tests of the presorted ("fast") K-S entry points,
 * stats::ksStatisticSorted and stats::ksTestSorted: agreement with the
 * copy-and-sort reference on random and heavily tied samples, the
 * degenerate inputs (identical, disjoint, empty), and the critical
 * value formula. Callers with unsorted groups sort a copy first, as
 * every case below does.
 */

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "stats/ks.h"

namespace
{

using eddie::stats::ksStatistic;
using eddie::stats::ksStatisticSorted;
using eddie::stats::ksTestSorted;

std::vector<double>
sorted(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

TEST(FastKsTest, MatchesReferenceImplementationRandom)
{
    std::mt19937_64 rng(1);
    std::uniform_real_distribution<double> d(0.0, 10.0);
    for (int trial = 0; trial < 200; ++trial) {
        std::uniform_int_distribution<std::size_t> msize(1, 200);
        std::uniform_int_distribution<std::size_t> nsize(1, 40);
        std::vector<double> ref(msize(rng));
        std::vector<double> mon(nsize(rng));
        for (auto &v : ref)
            v = d(rng);
        for (auto &v : mon)
            v = d(rng);
        const double fast = ksStatisticSorted(sorted(ref), sorted(mon));
        const double slow = ksStatistic(ref, mon);
        EXPECT_NEAR(fast, slow, 1e-12) << "trial " << trial;
    }
}

TEST(FastKsTest, MatchesReferenceWithHeavyTies)
{
    std::mt19937_64 rng(2);
    std::uniform_int_distribution<int> d(0, 4); // few distinct values
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> ref(50);
        std::vector<double> mon(12);
        for (auto &v : ref)
            v = double(d(rng));
        for (auto &v : mon)
            v = double(d(rng));
        const double fast = ksStatisticSorted(sorted(ref), sorted(mon));
        const double slow = ksStatistic(ref, mon);
        EXPECT_NEAR(fast, slow, 1e-12) << "trial " << trial;
    }
}

TEST(FastKsTest, AllIdenticalValues)
{
    std::vector<double> ref(100, 5.0);
    std::vector<double> mon(8, 5.0);
    EXPECT_DOUBLE_EQ(ksStatisticSorted(ref, mon), 0.0);
}

TEST(FastKsTest, DisjointSupportsGiveOne)
{
    std::vector<double> ref{1.0, 2.0, 3.0};
    std::vector<double> mon{10.0, 11.0};
    EXPECT_DOUBLE_EQ(ksStatisticSorted(ref, mon), 1.0);
}

TEST(FastKsTest, CriticalValueMatchesFormula)
{
    const double c = eddie::stats::ksCritical(100, 25, 0.05);
    EXPECT_NEAR(c, 1.3581 * std::sqrt(125.0 / 2500.0), 2e-3);
}

TEST(FastKsTest, RejectConsistentWithStatsTest)
{
    std::mt19937_64 rng(3);
    std::normal_distribution<double> a(0.0, 1.0), b(0.8, 1.0);
    std::vector<double> ref(300), mon(30);
    for (auto &v : ref)
        v = a(rng);
    for (auto &v : mon)
        v = b(rng);
    const bool fast = ksTestSorted(sorted(ref), sorted(mon), 0.01).reject;
    const auto slow = eddie::stats::ksTest(ref, mon, 0.01);
    EXPECT_EQ(fast, slow.reject);
}

TEST(FastKsTest, EmptyInputsNeverReject)
{
    std::vector<double> ref{1.0};
    EXPECT_FALSE(ksTestSorted(ref, {}, 0.01).reject);
    EXPECT_FALSE(ksTestSorted({}, ref, 0.01).reject);
}

} // namespace
