/**
 * @file
 * Shared fixtures for the serving-runtime tests: a tiny two-loop
 * synthetic model and STS streams built directly from distributions
 * (no simulator in the loop), so checkpoint/restart equivalence can
 * be asserted bit-for-bit in milliseconds. Same idiom as
 * tests/core/quality_gate_test.cpp.
 */

#ifndef EDDIE_TESTS_SERVE_TEST_UTIL_H
#define EDDIE_TESTS_SERVE_TEST_UTIL_H

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <vector>

#include "core/monitor.h"
#include "core/trainer.h"
#include "prog/builder.h"
#include "prog/regions.h"
#include "serve/sample_source.h"

namespace serve_test
{

constexpr double kSentinel = 2e7;

/** A Readiness a test thread parks on: raise() latches until the next
 *  waitFor(), so a raise between a Pending pull and the park is not
 *  lost. */
class LatchReadiness : public eddie::serve::Readiness
{
  public:
    void raise() override
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            raised_ = true;
        }
        cv_.notify_one();
    }

    /** Waits until raised or @p timeout_ms passes, then clears the
     *  latch. Returns true when it was raised. */
    bool waitFor(double timeout_ms)
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_for(lock,
                     std::chrono::duration<double, std::milli>(
                         std::max(timeout_ms, 0.0)),
                     [this] { return raised_; });
        const bool raised = raised_;
        raised_ = false;
        return raised;
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool raised_ = false;
};

inline eddie::prog::RegionGraph
twoLoopGraph()
{
    eddie::prog::ProgramBuilder b;
    b.li(1, 0);
    b.li(2, 8);
    auto l0 = b.newLabel();
    b.bind(l0);
    b.addi(1, 1, 1);
    b.blt(1, 2, l0);
    b.nop();
    b.li(1, 0);
    auto l1 = b.newLabel();
    b.bind(l1);
    b.addi(1, 1, 1);
    b.blt(1, 2, l1);
    b.halt();
    static eddie::prog::Program p = b.take();
    return eddie::prog::analyzeProgram(p);
}

/** Sharp two-peak STS with a healthy window energy. */
inline eddie::core::Sts
sharpSts(std::mt19937_64 &rng, double t, std::size_t region)
{
    std::normal_distribution<double> jitter(0.0, 2000.0);
    eddie::core::Sts sts;
    sts.t_start = t;
    sts.t_end = t + 1e-4;
    sts.peak_freqs = {1e6 + jitter(rng), 2e6 + jitter(rng)};
    while (sts.peak_freqs.size() < 6)
        sts.peak_freqs.push_back(kSentinel);
    sts.true_region = region;
    sts.window_energy = 1.0;
    sts.peak_energy_frac = 0.8;
    return sts;
}

/** An anomalous window: the peak comb moved where no trained region
 *  has peaks (K-S distance 1.0 against every reference). */
inline eddie::core::Sts
anomalousSts(std::mt19937_64 &rng, double t)
{
    eddie::core::Sts sts = sharpSts(rng, t, 0);
    sts.peak_freqs[0] = 5e6;
    sts.peak_freqs[1] = 7e6;
    sts.injected = true;
    return sts;
}

/** A window captured during a signal dropout (gate quarantines it). */
inline eddie::core::Sts
dropoutSts(double t)
{
    eddie::core::Sts sts;
    sts.t_start = t;
    sts.t_end = t + 1e-4;
    sts.peak_freqs.assign(6, kSentinel);
    sts.true_region = 0;
    sts.window_energy = 1e-6;
    sts.peak_energy_frac = 0.0;
    sts.faulted = true;
    return sts;
}

/** Two-region model over the sharp peaks; near-zero alpha keeps
 *  chance rejections of clean windows out of the assertions. */
inline eddie::core::TrainedModel
sharpModel(std::mt19937_64 &rng)
{
    std::vector<std::vector<eddie::core::Sts>> runs;
    for (int r = 0; r < 6; ++r) {
        std::vector<eddie::core::Sts> run;
        double t = 0.0;
        for (int i = 0; i < 160; ++i, t += 5e-5)
            run.push_back(sharpSts(rng, t, i < 80 ? 0 : 1));
        runs.push_back(std::move(run));
    }
    return withAlpha(
        train(runs, twoLoopGraph(), kSentinel), 1e-6);
}

/**
 * Monitoring stream: clean two-region trace with an anomaly burst at
 * [90, 110) and a dropout outage at [120, 126), so checkpoint cuts
 * can straddle a rejection streak, a report, and a quarantine
 * episode.
 */
inline std::vector<eddie::core::Sts>
eventfulStream(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<eddie::core::Sts> stream;
    double t = 0.0;
    for (int i = 0; i < 160; ++i, t += 5e-5) {
        if (i >= 90 && i < 110)
            stream.push_back(anomalousSts(rng, t));
        else if (i >= 120 && i < 126)
            stream.push_back(dropoutSts(t));
        else
            stream.push_back(sharpSts(rng, t, i < 80 ? 0 : 1));
    }
    return stream;
}

inline bool
sameRecords(const std::vector<eddie::core::StepRecord> &a,
            const std::vector<eddie::core::StepRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].region != b[i].region || a[i].tested != b[i].tested ||
            a[i].rejected != b[i].rejected ||
            a[i].reported != b[i].reported ||
            a[i].transitioned != b[i].transitioned ||
            a[i].degraded != b[i].degraded)
            return false;
    }
    return true;
}

inline bool
sameReports(const std::vector<eddie::core::AnomalyReport> &a,
            const std::vector<eddie::core::AnomalyReport> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].step != b[i].step || a[i].time != b[i].time ||
            a[i].region != b[i].region)
            return false;
    }
    return true;
}

} // namespace serve_test

#endif // EDDIE_TESTS_SERVE_TEST_UTIL_H
