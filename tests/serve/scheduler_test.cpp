/**
 * @file
 * Tests of the fair-share fleet scheduler (serve/scheduler.h):
 * verdict parity with a serial Monitor pass at several worker counts
 * and seeds, the DRR debt bound, crash-loop isolation under shared
 * workers, hang detection via progress sequence numbers, a
 * 1024-session smoke run, the wakeups of the pull-in-worker engine
 * (a Pending session resumes on its source's raise, a throttled one
 * when its wait is over, a restart drops a held window), and the
 * engine's thread budget: its workers and nothing else.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/errors.h"
#include "serve/sample_source.h"
#include "serve/supervisor.h"
#include "serve_test_util.h"

using namespace eddie;
using namespace eddie::serve;
using namespace serve_test;

namespace
{

ServeConfig
schedConfig(std::size_t workers)
{
    ServeConfig cfg;
    cfg.watchdog.heartbeat_deadline_ms = 60.0;
    cfg.watchdog.poll_interval_ms = 2.0;
    cfg.checkpoint_interval = 8;
    cfg.full_snapshot_every = 4;
    cfg.scheduler.workers = workers;
    return cfg;
}

/** A short clean two-region stream (for the 1024-session smoke,
 *  where eventfulStream's 160 windows x 1024 sessions would dominate
 *  the suite's runtime). */
std::vector<core::Sts>
shortStream(std::uint64_t seed, std::size_t len)
{
    std::mt19937_64 rng(seed);
    std::vector<core::Sts> stream;
    double t = 0.0;
    for (std::size_t i = 0; i < len; ++i, t += 5e-5)
        stream.push_back(sharpSts(rng, t, i < len / 2 ? 0 : 1));
    return stream;
}

struct SchedFixture
{
    std::shared_ptr<const core::TrainedModel> model;
    std::vector<std::shared_ptr<const std::vector<core::Sts>>> streams;
    std::vector<std::unique_ptr<VectorSource>> sources;
    std::vector<std::vector<core::StepRecord>> serial_records;
    std::vector<std::vector<core::AnomalyReport>> serial_reports;

    SchedFixture(std::size_t sessions, std::uint64_t seed)
    {
        std::mt19937_64 rng(0xF1EE7);
        model = std::make_shared<const core::TrainedModel>(
            sharpModel(rng));
        for (std::size_t s = 0; s < sessions; ++s) {
            streams.push_back(
                std::make_shared<const std::vector<core::Sts>>(
                    eventfulStream(seed + s)));
            sources.push_back(
                std::make_unique<VectorSource>(streams.back()));
            core::Monitor mon(*model, core::MonitorConfig{});
            for (const core::Sts &sts : *streams.back())
                mon.step(sts);
            serial_records.push_back(mon.records());
            serial_reports.push_back(mon.reports());
        }
    }

    TenantSpec spec(const std::string &id) const
    {
        TenantSpec s;
        s.id = id;
        s.model = model;
        return s;
    }
};

} // namespace

TEST(Scheduler, VerdictParityWithSerialOracleAcrossWorkerCounts)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SchedFixture fx(4, 100 * seed);
        for (const std::size_t workers : {1, 2, 4}) {
            TenantRegistry reg;
            reg.addTenant(fx.spec("a"));
            reg.addTenant(fx.spec("b"));
            std::vector<std::unique_ptr<VectorSource>> sources;
            for (std::size_t s = 0; s < 4; ++s) {
                sources.push_back(std::make_unique<VectorSource>(
                    fx.streams[s]));
                const char *id = s < 2 ? "a" : "b";
                EXPECT_TRUE(
                    reg.openSession(id, sources.back().get())
                        .admitted);
            }
            Supervisor sup(schedConfig(workers));
            const FleetResult fr = sup.runFleet(reg);
            ASSERT_EQ(fr.sessions.size(), 4u);
            EXPECT_EQ(sup.fleetScheduler()->schedulerStats().workers,
                      workers);
            for (std::size_t s = 0; s < 4; ++s) {
                EXPECT_FALSE(fr.sessions[s].escalated)
                    << "seed " << seed << " workers " << workers
                    << " session " << s;
                EXPECT_TRUE(sameRecords(fr.sessions[s].records,
                                        fx.serial_records[s]))
                    << "seed " << seed << " workers " << workers
                    << " session " << s;
                EXPECT_TRUE(sameReports(fr.sessions[s].reports,
                                        fx.serial_reports[s]))
                    << "seed " << seed << " workers " << workers
                    << " session " << s;
            }
        }
    }
}

TEST(Scheduler, DefaultWorkerPoolIsBoundedByCoresAndSessions)
{
    SchedFixture fx(2, 300);
    TenantRegistry reg;
    reg.addTenant(fx.spec("a"));
    for (std::size_t s = 0; s < 2; ++s)
        ASSERT_TRUE(reg.openSession("a", fx.sources[s].get()).admitted);
    Supervisor sup(schedConfig(0));
    const FleetResult fr = sup.runFleet(reg);
    for (std::size_t s = 0; s < 2; ++s)
        EXPECT_TRUE(sameRecords(fr.sessions[s].records,
                                fx.serial_records[s]));
    const std::size_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    const SchedulerStats st = sup.fleetScheduler()->schedulerStats();
    EXPECT_EQ(st.workers, std::min<std::size_t>(hw, 2));
}

TEST(Scheduler, DeficitDebtNeverExceedsOneBatch)
{
    SchedFixture fx(4, 500);
    TenantRegistry reg;
    // Unequal STS/s quotas make the DRR quanta unequal (4:1), which
    // is where a debt-bound bug would show: the small-quantum tenant
    // is dispatched with a deficit barely above zero, so a dispatch
    // can take it furthest below. Rates are far above the streams'
    // actual throughput, so the rate quota never throttles.
    TenantSpec heavy = fx.spec("heavy");
    heavy.quota.sts_per_s = 4e6;
    TenantSpec light = fx.spec("light");
    light.quota.sts_per_s = 1e6;
    reg.addTenant(heavy);
    reg.addTenant(light);
    for (std::size_t s = 0; s < 4; ++s) {
        EXPECT_TRUE(reg.openSession(s < 2 ? "heavy" : "light",
                                    fx.sources[s].get())
                        .admitted);
    }

    ServeConfig cfg = schedConfig(2);
    Supervisor sup(cfg);
    const FleetResult fr = sup.runFleet(reg);
    for (const ShardResult &r : fr.sessions)
        EXPECT_FALSE(r.escalated);

    ASSERT_NE(sup.fleetScheduler(), nullptr);
    const SchedulerStats st = sup.fleetScheduler()->schedulerStats();
    EXPECT_EQ(st.sessions, 4u);
    EXPECT_GT(st.dispatches, 0u);
    EXPECT_EQ(st.steps, 4u * 160u);
    // The fairness invariant: a tenant is only served with positive
    // deficit and one dispatch executes at most batch_steps, so the
    // deficit never goes below -batch_steps.
    EXPECT_GE(st.min_deficit_steps,
              -double(cfg.scheduler.batch_steps));
}

TEST(Scheduler, CrashLoopTenantCannotStarveNeighbors)
{
    SchedFixture fx(3, 700);
    TenantRegistry reg;
    TenantSpec bad = fx.spec("bad");
    bad.breaker.fault_threshold = 3;
    reg.addTenant(bad);
    reg.addTenant(fx.spec("good"));
    ASSERT_TRUE(reg.openSession("bad", fx.sources[0].get()).admitted);
    ASSERT_TRUE(reg.openSession("good", fx.sources[1].get()).admitted);
    ASSERT_TRUE(reg.openSession("good", fx.sources[2].get()).admitted);

    // Two workers shared by all three sessions: the crash-looping
    // tenant burns restarts on the same pool its neighbors need, so
    // starvation would be visible as missing neighbor verdicts.
    Supervisor sup(schedConfig(2));
    sup.setFleetStepHook([](std::size_t, const std::string &tenant,
                            std::size_t step,
                            const std::atomic<bool> &) {
        if (tenant == "bad" && step >= 40)
            throw core::Error("scheduler test: injected crash");
    });
    const FleetResult fr = sup.runFleet(reg);

    EXPECT_TRUE(fr.sessions[0].escalated);
    EXPECT_TRUE(fr.tenants[0].breaker_tripped);
    EXPECT_EQ(fr.tenants[0].breaker_cause, FaultClass::WorkerFault);
    // Neighbors ran to completion with exact verdicts despite
    // sharing every worker with the crash loop.
    for (std::size_t s = 1; s < 3; ++s) {
        EXPECT_FALSE(fr.sessions[s].escalated);
        EXPECT_TRUE(sameRecords(fr.sessions[s].records,
                                fx.serial_records[s]));
        EXPECT_TRUE(sameReports(fr.sessions[s].reports,
                                fx.serial_reports[s]));
    }
    EXPECT_FALSE(fr.tenants[1].breaker_tripped);
    EXPECT_GE(sup.stats().breaker_trips, 1u);
}

TEST(Scheduler, HungStepIsCancelledAndSessionRestarted)
{
    SchedFixture fx(2, 900);
    TenantRegistry reg;
    reg.addTenant(fx.spec("a"));
    reg.addTenant(fx.spec("b"));
    ASSERT_TRUE(reg.openSession("a", fx.sources[0].get()).admitted);
    ASSERT_TRUE(reg.openSession("b", fx.sources[1].get()).admitted);

    Supervisor sup(schedConfig(2));
    std::atomic<bool> hung_once{false};
    sup.setFleetStepHook([&](std::size_t, const std::string &tenant,
                             std::size_t step,
                             const std::atomic<bool> &cancel) {
        if (tenant == "a" && step == 50 &&
            !hung_once.exchange(true)) {
            while (!cancel.load())
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
        }
    });
    const FleetResult fr = sup.runFleet(reg);

    const core::ServeStats st = sup.stats();
    EXPECT_GE(st.worker_hangs, 1u);
    EXPECT_GE(st.worker_restarts, 1u);
    // Restart replays from the last cut: verdicts still exact.
    for (std::size_t s = 0; s < 2; ++s) {
        EXPECT_FALSE(fr.sessions[s].escalated);
        EXPECT_TRUE(sameRecords(fr.sessions[s].records,
                                fx.serial_records[s]));
        EXPECT_TRUE(sameReports(fr.sessions[s].reports,
                                fx.serial_reports[s]));
    }
}

TEST(Scheduler, ThousandSessionSmoke)
{
    // 4 tenants x 256 sessions on 4 workers: a thread pair per
    // session would need 2048 OS threads. All sessions share one
    // short stream, so one serial pass is the oracle for every
    // verdict.
    constexpr std::size_t kTenants = 4;
    constexpr std::size_t kPerTenant = 256;
    constexpr std::size_t kLen = 24;

    std::mt19937_64 rng(0xF1EE7);
    const auto model =
        std::make_shared<const core::TrainedModel>(sharpModel(rng));
    const auto stream =
        std::make_shared<const std::vector<core::Sts>>(
            shortStream(42, kLen));
    core::Monitor oracle(*model, core::MonitorConfig{});
    for (const core::Sts &sts : *stream)
        oracle.step(sts);

    TenantRegistry reg;
    std::vector<std::unique_ptr<VectorSource>> sources;
    for (std::size_t t = 0; t < kTenants; ++t) {
        // Two-step += : the rvalue operator+(const char*, string&&)
        // path trips GCC 12's -Wrestrict false positive.
        std::string id("t");
        id += std::to_string(t);
        TenantSpec spec;
        spec.id = id;
        spec.model = model;
        spec.quota.max_sessions = kPerTenant;
        reg.addTenant(std::move(spec));
        for (std::size_t k = 0; k < kPerTenant; ++k) {
            sources.push_back(
                std::make_unique<VectorSource>(stream));
            ASSERT_TRUE(reg.openSession(id, sources.back().get())
                            .admitted);
        }
    }

    ServeConfig cfg = schedConfig(4);
    cfg.checkpoint_interval = 0; // mirrors only: no disk in the smoke
    Supervisor sup(cfg);
    const FleetResult fr = sup.runFleet(reg);

    ASSERT_EQ(fr.sessions.size(), kTenants * kPerTenant);
    for (std::size_t s = 0; s < fr.sessions.size(); ++s) {
        ASSERT_FALSE(fr.sessions[s].escalated) << "session " << s;
        EXPECT_EQ(fr.sessions[s].steps, kLen) << "session " << s;
        EXPECT_TRUE(sameRecords(fr.sessions[s].records,
                                oracle.records()))
            << "session " << s;
    }
    const core::ServeStats st = sup.stats();
    EXPECT_EQ(st.worker_hangs, 0u);
    EXPECT_EQ(st.worker_crashes, 0u);
    EXPECT_EQ(st.processed,
              std::uint64_t(kTenants * kPerTenant * kLen));
    ASSERT_NE(sup.fleetScheduler(), nullptr);
    const SchedulerStats ss = sup.fleetScheduler()->schedulerStats();
    EXPECT_EQ(ss.sessions, kTenants * kPerTenant);
    EXPECT_EQ(ss.workers, 4u);
}

namespace
{

/** Answers Pending until its gate opens, then replays its stream.
 *  open() raises the watched Readiness under the source's own lock,
 *  the way WireSource raises on ingest. With @p open_in_pull the
 *  first Pending pull opens the gate itself: data that arrives after
 *  the pull answered Pending but before the session parks. */
class GatedSource : public SampleSource
{
  public:
    GatedSource(std::shared_ptr<const std::vector<core::Sts>> s,
                bool open_in_pull)
        : stream_(std::move(s)), open_in_pull_(open_in_pull)
    {
    }
    Pull next() override
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!open_) {
            ++pending_pulls_;
            if (open_in_pull_)
                openLocked();
            cv_.notify_all();
            return {PullStatus::Pending, {}};
        }
        if (pos_ >= stream_->size())
            return {PullStatus::EndOfStream, {}};
        return {PullStatus::Ready, (*stream_)[std::size_t(pos_++)]};
    }
    bool seek(std::uint64_t pos) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (pos > stream_->size())
            return false;
        pos_ = pos;
        return true;
    }
    std::uint64_t position() const override
    {
        std::lock_guard<std::mutex> lock(mu_);
        return pos_;
    }
    void watch(Readiness *r) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        ready_ = r;
    }

    /** Blocks until the first Pending pull. */
    void awaitPending()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return pending_pulls_ > 0; });
    }
    void open()
    {
        std::lock_guard<std::mutex> lock(mu_);
        openLocked();
    }
    std::uint64_t pendingPulls() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return pending_pulls_;
    }
    std::chrono::steady_clock::time_point openedAt() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return opened_at_;
    }

  private:
    void openLocked()
    {
        open_ = true;
        opened_at_ = std::chrono::steady_clock::now();
        if (ready_ != nullptr)
            ready_->raise();
    }

    std::shared_ptr<const std::vector<core::Sts>> stream_;
    const bool open_in_pull_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::uint64_t pos_ = 0;
    std::uint64_t pending_pulls_ = 0;
    bool open_ = false;
    std::chrono::steady_clock::time_point opened_at_;
    Readiness *ready_ = nullptr;
};

} // namespace

/** A session whose pull answered Pending is pulled again when its
 *  source raises it, with no pull in between, whether the raise finds
 *  it parked or lands between its Pending pull and the park (the
 *  latch). The raise is the only wakeup: the gate stays shut for
 *  200 ms and nothing re-polls the parked session meanwhile. The
 *  watchdog polls every 300 ms here, so a session left to the
 *  watchdog would take that long to step. */
TEST(Scheduler, PendingSessionResumesOnItsRaiseWithoutPolling)
{
    for (const bool open_in_pull : {false, true}) {
        SchedFixture fx(1, 1100);
        TenantRegistry reg;
        reg.addTenant(fx.spec("a"));
        GatedSource source(fx.streams[0], open_in_pull);
        ASSERT_TRUE(reg.openSession("a", &source).admitted);
        ServeConfig cfg = schedConfig(1);
        cfg.watchdog.poll_interval_ms = 300.0;
        cfg.watchdog.heartbeat_deadline_ms = 600.0;
        Supervisor sup(cfg);
        std::chrono::steady_clock::time_point first_step;
        sup.setFleetStepHook([&](std::size_t, const std::string &,
                                 std::size_t step,
                                 const std::atomic<bool> &) {
            if (step == 0)
                first_step = std::chrono::steady_clock::now();
        });
        std::thread opener([&] {
            if (open_in_pull)
                return;
            source.awaitPending();
            // The worker parks the session; nothing pulls it again.
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
            EXPECT_EQ(source.pendingPulls(), 1u);
            source.open();
        });
        const FleetResult fr = sup.runFleet(reg);
        opener.join();
        ASSERT_EQ(fr.sessions.size(), 1u);
        EXPECT_FALSE(fr.sessions[0].escalated);
        EXPECT_TRUE(
            sameRecords(fr.sessions[0].records, fx.serial_records[0]));
        EXPECT_TRUE(
            sameReports(fr.sessions[0].reports, fx.serial_reports[0]));
        // One Pending pull; the raise sent the session straight back
        // to a pull that delivered.
        EXPECT_EQ(source.pendingPulls(), 1u) << "open_in_pull "
                                             << open_in_pull;
        const double wake_ms = std::chrono::duration<double, std::milli>(
                                   first_step - source.openedAt())
                                   .count();
        EXPECT_LT(wake_ms, 150.0) << "open_in_pull " << open_in_pull;
    }
}

/** Tenant "slow" runs under a Throttle quota (4000 STS/s, burst 8):
 *  its session holds each refused window, parks, and resumes once the
 *  watchdog sees the wait is over. Nothing is lost or reordered, the
 *  rate holds, and the parked session does not hold its worker: the
 *  unthrottled neighbor on the one shared worker finishes too. */
TEST(Scheduler, ThrottledSessionResumesWhenDue)
{
    SchedFixture fx(2, 1200);
    TenantRegistry reg;
    TenantSpec slow = fx.spec("slow");
    slow.quota.sts_per_s = 4000.0;
    slow.quota.burst = 8.0;
    slow.quota.rate_policy = RatePolicy::Throttle;
    reg.addTenant(slow);
    reg.addTenant(fx.spec("fast"));
    ASSERT_TRUE(reg.openSession("slow", fx.sources[0].get()).admitted);
    ASSERT_TRUE(reg.openSession("fast", fx.sources[1].get()).admitted);
    Supervisor sup(schedConfig(1));
    const auto t0 = std::chrono::steady_clock::now();
    const FleetResult fr = sup.runFleet(reg);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    for (std::size_t s = 0; s < 2; ++s) {
        EXPECT_FALSE(fr.sessions[s].escalated);
        EXPECT_TRUE(sameRecords(fr.sessions[s].records,
                                fx.serial_records[s]));
        EXPECT_TRUE(sameReports(fr.sessions[s].reports,
                                fx.serial_reports[s]));
    }
    EXPECT_GT(fr.tenants[0].windows_throttled, 0u);
    EXPECT_EQ(fr.tenants[0].windows_shed, 0u);
    EXPECT_EQ(fr.tenants[1].windows_throttled, 0u);
    EXPECT_GT(sup.fleetScheduler()->schedulerStats().throttle_skips, 0u);
    // 160 windows at 4000/s after a burst of 8 take at least 38 ms.
    EXPECT_GE(wall_ms, 38.0);
}

/** A crash restarts a session whose windows each waited out a
 *  throttle park (burst 1: nearly every pulled window is held before
 *  it is admitted). The restart drops the held window and re-seeks,
 *  so the replay is bit-identical to the serial oracle. */
TEST(Scheduler, RestartWithAThrottledWindowHeldReplaysBitIdentical)
{
    SchedFixture fx(1, 1300);
    TenantRegistry reg;
    TenantSpec spec = fx.spec("a");
    spec.quota.sts_per_s = 8000.0;
    spec.quota.burst = 1.0;
    spec.quota.rate_policy = RatePolicy::Throttle;
    reg.addTenant(spec);
    ASSERT_TRUE(reg.openSession("a", fx.sources[0].get()).admitted);
    Supervisor sup(schedConfig(1));
    std::atomic<bool> fired{false};
    sup.setFleetStepHook([&](std::size_t, const std::string &,
                             std::size_t step, const std::atomic<bool> &) {
        if (step == 53 && !fired.exchange(true))
            throw core::Error("scheduler test: injected crash");
    });
    const FleetResult fr = sup.runFleet(reg);
    ASSERT_EQ(fr.sessions.size(), 1u);
    EXPECT_FALSE(fr.sessions[0].escalated);
    EXPECT_TRUE(sameRecords(fr.sessions[0].records, fx.serial_records[0]));
    EXPECT_TRUE(sameReports(fr.sessions[0].reports, fx.serial_reports[0]));
    EXPECT_GT(fr.tenants[0].windows_throttled, 0u);
    const core::ServeStats st = sup.stats();
    EXPECT_EQ(st.worker_crashes, 1u);
    EXPECT_EQ(st.worker_restarts, 1u);
    // The replay re-pulls the windows after the last cut (step 48).
    EXPECT_GT(st.delivered, fx.streams[0]->size());
}

/** A burst-1 bucket at 2,000 STS/s makes its session due every
 *  0.5 ms, four times per 2 ms watchdog poll. The worker that parks
 *  it moves the watchdog's wake up to the due time, so the session
 *  runs at its quota: its N windows are stepped within about
 *  N/2,000 s and at most N/1,000 s, where waking only at polls would
 *  take N/500 s. */
TEST(Scheduler, ThrottledSessionKeepsItsQuotaBetweenPolls)
{
    SchedFixture fx(1, 1400);
    TenantRegistry reg;
    TenantSpec spec = fx.spec("a");
    spec.quota.sts_per_s = 2000.0;
    spec.quota.burst = 1.0;
    spec.quota.rate_policy = RatePolicy::Throttle;
    reg.addTenant(spec);
    ASSERT_TRUE(reg.openSession("a", fx.sources[0].get()).admitted);
    Supervisor sup(schedConfig(1));
    // First to last step, so session setup and teardown do not count.
    std::chrono::steady_clock::time_point first, last;
    sup.setFleetStepHook([&](std::size_t, const std::string &,
                             std::size_t step, const std::atomic<bool> &) {
        (step == 0 ? first : last) = std::chrono::steady_clock::now();
    });
    const FleetResult fr = sup.runFleet(reg);
    ASSERT_EQ(fr.sessions.size(), 1u);
    EXPECT_TRUE(sameRecords(fr.sessions[0].records, fx.serial_records[0]));
    EXPECT_TRUE(sameReports(fr.sessions[0].reports, fx.serial_reports[0]));
    EXPECT_GT(fr.tenants[0].windows_throttled, 0u);
    const double n = double(fx.streams[0]->size());
    const double stepping_s =
        std::chrono::duration<double>(last - first).count();
    EXPECT_LE(stepping_s, n / 1000.0);
    // The quota still binds: one window per 0.5 ms after the first.
    EXPECT_GE(stepping_s, 0.99 * (n - 1.0) / 2000.0);
}

namespace
{

/** Threads of this process right now (Linux: one /proc/self/task
 *  entry per thread). */
std::size_t
threadCount()
{
    std::size_t n = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)entry;
        ++n;
    }
    return n;
}

} // namespace

/** The engine's threads are its workers: the watchdog is the thread
 *  that called run(), and no source needs a thread of its own. */
TEST(Scheduler, RunStartsNoThreadBeyondItsWorkers)
{
    constexpr std::size_t kWorkers = 3;
    SchedFixture fx(6, 1400);
    TenantRegistry reg;
    reg.addTenant(fx.spec("a"));
    reg.addTenant(fx.spec("b"));
    for (std::size_t s = 0; s < 6; ++s)
        ASSERT_TRUE(reg.openSession(s % 2 == 0 ? "a" : "b",
                                    fx.sources[s].get())
                        .admitted);
    Supervisor sup(schedConfig(kWorkers));
    const std::size_t before = threadCount();
    std::atomic<std::size_t> peak{0};
    sup.setFleetStepHook([&](std::size_t, const std::string &,
                             std::size_t step, const std::atomic<bool> &) {
        if (step % 32 != 0)
            return;
        const std::size_t n = threadCount();
        std::size_t seen = peak.load();
        while (n > seen && !peak.compare_exchange_weak(seen, n)) {
        }
    });
    const FleetResult fr = sup.runFleet(reg);
    for (std::size_t s = 0; s < 6; ++s)
        EXPECT_TRUE(sameRecords(fr.sessions[s].records,
                                fx.serial_records[s]));
    EXPECT_GT(peak.load(), before);
    EXPECT_LE(peak.load(), before + kWorkers);
}
