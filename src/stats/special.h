/**
 * @file
 * Special functions backing the statistical tests: normal CDF,
 * regularized incomplete beta/gamma, F and chi-squared CDFs, and the
 * Kolmogorov distribution used by the K-S test.
 */

#ifndef EDDIE_STATS_SPECIAL_H
#define EDDIE_STATS_SPECIAL_H

namespace eddie::stats
{

/** Standard normal CDF. */
double normalCdf(double x);

/** Inverse standard normal CDF (Acklam's rational approximation). */
double normalQuantile(double p);

/** Regularized incomplete beta function I_x(a, b). */
double incompleteBeta(double a, double b, double x);

/** Regularized lower incomplete gamma P(a, x). */
double incompleteGamma(double a, double x);

/** CDF of the F distribution with (d1, d2) degrees of freedom. */
double fCdf(double x, double d1, double d2);

/** CDF of the chi-squared distribution with k degrees of freedom. */
double chi2Cdf(double x, double k);

/**
 * Kolmogorov distribution complementary CDF:
 * Q(x) = 2 * sum_{k>=1} (-1)^{k-1} e^{-2 k^2 x^2}.
 *
 * This is the asymptotic p-value of the K-S statistic
 * sqrt(m n / (m+n)) * D.
 */
double kolmogorovQ(double x);

/**
 * Inverse of kolmogorovQ: the c(alpha) factor of the K-S critical
 * value D_crit = c(alpha) * sqrt((m+n)/(m n)).
 * E.g. c(0.05) ~= 1.358, c(0.01) ~= 1.628.
 */
double kolmogorovCritical(double alpha);

} // namespace eddie::stats

#endif // EDDIE_STATS_SPECIAL_H
