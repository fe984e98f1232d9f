/**
 * @file
 * Figure 2: normal vs malicious peak-frequency distributions, and why
 * EDDIE uses a nonparametric test.
 *
 * Takes one Susan loop nest, shows the empirical distribution of its
 * strongest peak, fits the best bi-normal (2-component GMM) model,
 * and compares the false positives / false negatives of the
 * parametric test against the K-S test on the same clean and
 * injected groups.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

#include "bench_util.h"
#include "core/baseline_parametric.h"
#include "stats/ks.h"
#include "core/pipeline.h"
#include "inject/scenarios.h"

using namespace eddie;

namespace
{

/** A group: per peak rank, n observations. */
using Group = std::vector<std::vector<double>>;

/**
 * Collects per-rank groups of a region's STSs from monitored runs.
 *
 * Group members are sampled randomly (fixed seed) rather than taken
 * consecutively: Figure 2 is about how well each test matches the
 * region's *distribution*; consecutive windows add the temporal
 * phase-correlation question, which Figure 3 and the monitor's
 * group-size selection address.
 */
std::vector<Group>
collectGroups(const core::Pipeline &pipe, std::size_t region,
              std::size_t n, std::size_t ranks, std::size_t runs,
              std::uint64_t seed0, const bench::PlanFactory &factory)
{
    std::vector<const core::Sts *> pool;
    std::vector<std::vector<core::Sts>> streams;
    for (std::size_t r = 0; r < runs; ++r) {
        const auto plan = factory ? factory(r) : cpu::InjectionPlan();
        streams.push_back(pipe.captureRun(seed0 + r, plan));
    }
    for (const auto &stream : streams) {
        for (const auto &sts : stream) {
            if (sts.true_region != region)
                continue;
            if (factory && !sts.injected)
                continue; // injected runs: only contaminated STSs
            pool.push_back(&sts);
        }
    }
    std::mt19937_64 rng(seed0);
    std::shuffle(pool.begin(), pool.end(), rng);

    std::vector<Group> groups;
    for (std::size_t start = 0; start + n <= pool.size(); start += n) {
        Group g(ranks);
        for (std::size_t k = 0; k < n; ++k)
            for (std::size_t p = 0; p < ranks; ++p)
                g[p].push_back(pool[start + k]->peak_freqs[p]);
        groups.push_back(std::move(g));
    }
    return groups;
}

} // namespace

int
main()
{
    const auto opt = bench::benchOptions();
    bench::printHeader(
        "Figure 2: parametric (bi-normal) test vs the K-S test",
        "Strongest-peak distribution of one Susan loop nest");

    // Susan's smoothing nest: its strongest peak alternates between
    // two harmonics, giving the bimodal distribution of the paper's
    // figure. Needs a big enough image for stable statistics.
    auto opt2 = opt;
    opt2.scale = std::max(opt.scale, 0.4);
    auto w = workloads::makeWorkload("susan", opt2.scale);
    const std::size_t region = 0;
    core::Pipeline pipe(std::move(w), bench::simConfig(opt2));
    const auto model = pipe.trainModel();
    const auto &rm = model.regions[region];
    if (!rm.trained) {
        std::printf("target region untrained; increase EDDIE_SCALE\n");
        return 0;
    }

    // Histogram of the reference distribution (the paper's green
    // curve).
    const auto &ref = rm.ref[0];
    std::printf("\nReference distribution of the strongest peak "
                "(region %s, %zu samples):\n",
                rm.name.c_str(), ref.size());
    const double lo = ref.front(), hi = ref.back();
    const int bins = 24;
    std::vector<int> hist(bins, 0);
    for (double v : ref) {
        int b = int((v - lo) / (hi - lo + 1e-9) * bins);
        hist[std::min(std::max(b, 0), bins - 1)]++;
    }
    int peak_count = 1;
    for (int c : hist)
        peak_count = std::max(peak_count, c);
    for (int b = 0; b < bins; ++b) {
        const double f = lo + (hi - lo) * (double(b) + 0.5) / bins;
        std::printf("%9.0f kHz |", f / 1e3);
        const int stars = hist[b] * 48 / peak_count;
        for (int s = 0; s < stars; ++s)
            std::putchar('#');
        std::putchar('\n');
    }

    // Fit the bi-normal model the paper criticizes.
    const auto pr = core::fitParametricRegion(rm, 2);
    const auto &comps = pr.per_rank[0].components();
    std::printf("\nBest bi-normal fit: ");
    for (const auto &c : comps) {
        std::printf("[w=%.2f mu=%.0fkHz sd=%.0fkHz] ", c.weight,
                    c.mean / 1e3, c.stddev / 1e3);
    }
    std::printf("\n\n");

    // The model-vs-truth distance is fixed; the test's resolution
    // grows with the group size. So the parametric test's false
    // positives are *inevitable* once n is large enough, while the
    // two-sample K-S test (whose reference IS the distribution) has
    // no such floor. Sweep n on the strongest peak to show it.
    const double d_model = stats::ksStatisticOneSample(
        ref,
        [](double x, const void *ctx) {
            return static_cast<const stats::GaussianMixture *>(ctx)
                ->cdf(x);
        },
        &pr.per_rank[0]);
    std::printf("K-S distance between the empirical distribution "
                "and the bi-normal fit: %.3f\n"
                "=> every clean group larger than n ~ %.0f must be "
                "rejected by the parametric test.\n\n",
                d_model,
                d_model > 0.0 ?
                    std::pow(1.628 / d_model, 2.0) : 1e9);

    std::printf("%6s %28s %28s\n", "n", "parametric (bi-normal)",
                "K-S test");
    std::printf("%6s %14s %13s %14s %13s\n", "", "FP", "FN", "FP",
                "FN");
    for (std::size_t n : {8u, 16u, 32u, 64u, 128u}) {
        const auto clean = collectGroups(pipe, region, n, 1,
                                         opt.monitor_runs, 31000,
                                         nullptr);
        const auto injected = collectGroups(
            pipe, region, n, 1, opt.monitor_runs, 32000,
            [&](std::size_t r) {
                return inject::canonicalLoopInjection(region, 1.0,
                                                      900 + r);
            });
        // K-S on a sorted copy of the group's first rank.
        const auto ksRejects = [&](std::vector<double> group) {
            std::sort(group.begin(), group.end());
            return stats::ksTestSorted(ref, group, model.alpha).reject;
        };
        auto rates = [&](bool parametric) {
            std::size_t fp = 0, fn = 0;
            for (const auto &g : clean) {
                const bool rej = parametric ?
                    core::parametricGroupRejects(pr, g, model.alpha) :
                    ksRejects(g[0]);
                fp += rej;
            }
            for (const auto &g : injected) {
                const bool rej = parametric ?
                    core::parametricGroupRejects(pr, g, model.alpha) :
                    ksRejects(g[0]);
                fn += !rej;
            }
            return std::make_pair(
                clean.empty() ? 0.0 :
                    100.0 * double(fp) / double(clean.size()),
                injected.empty() ? 0.0 :
                    100.0 * double(fn) / double(injected.size()));
        };
        const auto p = rates(true);
        const auto k = rates(false);
        std::printf("%6zu %13.1f%% %12.1f%% %13.1f%% %12.1f%%\n", n,
                    p.first, p.second, k.first, k.second);
    }
    std::printf("\nPaper's point: the empirical distribution is a "
                "poor fit for parametric families, so the\n"
                "parametric test pays inevitable FP/FN; the "
                "nonparametric K-S test does not assume a family.\n");
    return 0;
}
