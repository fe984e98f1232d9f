#include <cmath>

#include <gtest/gtest.h>

#include "stats/special.h"

namespace
{

using namespace eddie::stats;

TEST(SpecialTest, NormalCdfKnownValues)
{
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(1.959963985), 0.975, 1e-6);
    EXPECT_NEAR(normalCdf(-1.959963985), 0.025, 1e-6);
    EXPECT_NEAR(normalCdf(5.0), 1.0, 1e-6);
}

TEST(SpecialTest, NormalQuantileInvertsCdf)
{
    for (double p : {0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999})
        EXPECT_NEAR(normalCdf(normalQuantile(p)), p, 1e-8) << p;
    EXPECT_THROW(normalQuantile(0.0), std::invalid_argument);
    EXPECT_THROW(normalQuantile(1.0), std::invalid_argument);
}

TEST(SpecialTest, IncompleteBetaKnownValues)
{
    // I_x(1, 1) = x (uniform distribution).
    for (double x : {0.1, 0.5, 0.9})
        EXPECT_NEAR(incompleteBeta(1.0, 1.0, x), x, 1e-10);
    // I_x(2, 2) = x^2 (3 - 2x).
    EXPECT_NEAR(incompleteBeta(2.0, 2.0, 0.3),
                0.3 * 0.3 * (3.0 - 0.6), 1e-10);
    EXPECT_DOUBLE_EQ(incompleteBeta(2.0, 3.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(incompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(SpecialTest, IncompleteGammaKnownValues)
{
    // P(1, x) = 1 - e^{-x}.
    for (double x : {0.5, 1.0, 3.0})
        EXPECT_NEAR(incompleteGamma(1.0, x), 1.0 - std::exp(-x), 1e-10);
    EXPECT_DOUBLE_EQ(incompleteGamma(2.0, 0.0), 0.0);
}

TEST(SpecialTest, ChiSquaredCdf)
{
    // Chi2(k=2) is Exp(1/2): CDF = 1 - e^{-x/2}.
    for (double x : {1.0, 2.0, 5.0})
        EXPECT_NEAR(chi2Cdf(x, 2.0), 1.0 - std::exp(-x / 2.0), 1e-10);
}

TEST(SpecialTest, FCdfAgainstTabulated)
{
    // Median of F(1, 1) is 1.0 (CDF = 0.5).
    EXPECT_NEAR(fCdf(1.0, 1.0, 1.0), 0.5, 1e-9);
    // F(2, 10): P(F <= 4.10) ~ 0.95 (standard table).
    EXPECT_NEAR(fCdf(4.102821, 2.0, 10.0), 0.95, 1e-4);
    EXPECT_DOUBLE_EQ(fCdf(-1.0, 2.0, 10.0), 0.0);
}

TEST(SpecialTest, KolmogorovDistribution)
{
    // Classical critical values of the Kolmogorov distribution.
    EXPECT_NEAR(kolmogorovCritical(0.05), 1.3581, 1e-3);
    EXPECT_NEAR(kolmogorovCritical(0.01), 1.6276, 1e-3);
    EXPECT_NEAR(kolmogorovCritical(0.10), 1.2238, 1e-3);
    // Q is a valid complementary CDF.
    EXPECT_NEAR(kolmogorovQ(0.0), 1.0, 1e-12);
    EXPECT_GT(kolmogorovQ(0.5), kolmogorovQ(1.0));
    EXPECT_LT(kolmogorovQ(3.0), 1e-6);
    // Round trip.
    for (double a : {0.2, 0.05, 0.01})
        EXPECT_NEAR(kolmogorovQ(kolmogorovCritical(a)), a, 1e-9);
}

} // namespace
