#include "special.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace eddie::stats
{

double
normalCdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double
normalQuantile(double p)
{
    if (p <= 0.0 || p >= 1.0)
        throw std::invalid_argument("normalQuantile: p outside (0,1)");

    // Acklam's approximation; relative error < 1.15e-9.
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00,  2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};
    const double plow = 0.02425;
    const double phigh = 1.0 - plow;

    double q, r;
    if (p < plow) {
        q = std::sqrt(-2.0 * std::log(p));
        return (((((c[0]*q + c[1])*q + c[2])*q + c[3])*q + c[4])*q + c[5]) /
            ((((d[0]*q + d[1])*q + d[2])*q + d[3])*q + 1.0);
    }
    if (p <= phigh) {
        q = p - 0.5;
        r = q * q;
        return (((((a[0]*r + a[1])*r + a[2])*r + a[3])*r + a[4])*r + a[5])*q /
            (((((b[0]*r + b[1])*r + b[2])*r + b[3])*r + b[4])*r + 1.0);
    }
    q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0]*q + c[1])*q + c[2])*q + c[3])*q + c[4])*q + c[5]) /
        ((((d[0]*q + d[1])*q + d[2])*q + d[3])*q + 1.0);
}

namespace
{

/** Continued fraction for the incomplete beta (Numerical-Recipes
 *  betacf style, modified Lentz's method). */
double
betaContinuedFraction(double a, double b, double x)
{
    constexpr int max_iter = 300;
    constexpr double eps = 3.0e-14;
    constexpr double fpmin = 1.0e-300;

    const double qab = a + b;
    const double qap = a + 1.0;
    const double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::abs(d) < fpmin)
        d = fpmin;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m <= max_iter; ++m) {
        const int m2 = 2 * m;
        double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::abs(d) < fpmin)
            d = fpmin;
        c = 1.0 + aa / c;
        if (std::abs(c) < fpmin)
            c = fpmin;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::abs(d) < fpmin)
            d = fpmin;
        c = 1.0 + aa / c;
        if (std::abs(c) < fpmin)
            c = fpmin;
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::abs(del - 1.0) < eps)
            break;
    }
    return h;
}

} // namespace

double
incompleteBeta(double a, double b, double x)
{
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    const double ln_bt = std::lgamma(a + b) - std::lgamma(a) -
        std::lgamma(b) + a * std::log(x) + b * std::log(1.0 - x);
    const double bt = std::exp(ln_bt);
    if (x < (a + 1.0) / (a + b + 2.0))
        return bt * betaContinuedFraction(a, b, x) / a;
    return 1.0 - bt * betaContinuedFraction(b, a, 1.0 - x) / b;
}

double
incompleteGamma(double a, double x)
{
    if (x < 0.0 || a <= 0.0)
        throw std::invalid_argument("incompleteGamma: bad arguments");
    if (x == 0.0)
        return 0.0;

    if (x < a + 1.0) {
        // Series representation.
        double ap = a;
        double sum = 1.0 / a;
        double del = sum;
        for (int n = 0; n < 500; ++n) {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if (std::abs(del) < std::abs(sum) * 3.0e-14)
                break;
        }
        return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
    }

    // Continued fraction for Q(a, x); P = 1 - Q.
    constexpr double fpmin = 1.0e-300;
    double b = x + 1.0 - a;
    double c = 1.0 / fpmin;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i <= 500; ++i) {
        const double an = -double(i) * (double(i) - a);
        b += 2.0;
        d = an * d + b;
        if (std::abs(d) < fpmin)
            d = fpmin;
        c = b + an / c;
        if (std::abs(c) < fpmin)
            c = fpmin;
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::abs(del - 1.0) < 3.0e-14)
            break;
    }
    const double q = std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
    return 1.0 - q;
}

double
fCdf(double x, double d1, double d2)
{
    if (x <= 0.0)
        return 0.0;
    const double u = d1 * x / (d1 * x + d2);
    return incompleteBeta(d1 / 2.0, d2 / 2.0, u);
}

double
chi2Cdf(double x, double k)
{
    if (x <= 0.0)
        return 0.0;
    return incompleteGamma(k / 2.0, x / 2.0);
}

double
kolmogorovQ(double x)
{
    if (x <= 0.0)
        return 1.0;
    double q = 0.0;
    for (int k = 1; k <= 100; ++k) {
        const double term = std::exp(-2.0 * double(k) * double(k) * x * x);
        q += (k % 2 == 1 ? term : -term);
        if (term < 1e-16)
            break;
    }
    return std::clamp(2.0 * q, 0.0, 1.0);
}

double
kolmogorovCritical(double alpha)
{
    if (alpha <= 0.0 || alpha >= 1.0)
        throw std::invalid_argument("kolmogorovCritical: bad alpha");
    // One-slot memo: every K-S decision needs c(alpha), the monitor
    // uses a single alpha for a whole run, and the bisection below
    // costs ~200 evaluations of an exp series — it used to dominate
    // the per-test cost of the monitoring hot loop. thread_local
    // keeps it race-free without a lock; the cached value is the
    // exact double the bisection produces, so results are
    // bit-identical with or without the memo.
    static thread_local double memo_alpha = -1.0;
    static thread_local double memo_c = 0.0;
    if (alpha == memo_alpha)
        return memo_c;
    double lo = 0.01, hi = 4.0;
    // kolmogorovQ is strictly decreasing; bisect for Q(c) = alpha.
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (kolmogorovQ(mid) > alpha)
            lo = mid;
        else
            hi = mid;
    }
    memo_alpha = alpha;
    memo_c = 0.5 * (lo + hi);
    return memo_c;
}

} // namespace eddie::stats
