/**
 * @file
 * Tests of the fair-share fleet scheduler (serve/scheduler.h):
 * verdict parity with a serial Monitor pass at several worker counts
 * and seeds, the DRR debt bound, crash-loop isolation under shared
 * workers, hang detection via progress sequence numbers, a
 * 1024-session smoke run, and the StsQueue batch-push surface the
 * scheduler feeds through.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
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
    EXPECT_EQ(st.feeders, std::min<std::size_t>(st.workers, 2));
}

TEST(Scheduler, DeficitDebtNeverExceedsOneBatch)
{
    SchedFixture fx(4, 500);
    TenantRegistry reg;
    // Unequal STS/s quotas make the DRR quanta unequal (4:1), which
    // is where a debt-bound bug would show: the small-quantum tenant
    // is dispatched with a deficit barely above zero, so a dispatch
    // can take it furthest below. Rates are far above the streams'
    // actual throughput, so the feeder quota never throttles.
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

TEST(Scheduler, PushBatchRespectsHeadroomAndCountsBackpressure)
{
    StsQueueConfig qcfg;
    qcfg.capacity = 4;
    StsQueue q(qcfg);
    EXPECT_EQ(q.headroom(), 4u);

    std::mt19937_64 rng(7);
    std::vector<core::Sts> in;
    for (int i = 0; i < 6; ++i)
        in.push_back(sharpSts(rng, i * 1e-4, 0));

    // Non-blocking push against capacity 4: admits 4, defers 2, and
    // the deferral is counted as Block backpressure.
    EXPECT_EQ(q.pushBatch(in, /*may_block=*/false), 4u);
    EXPECT_EQ(in.size(), 2u);
    EXPECT_EQ(q.headroom(), 0u);
    EXPECT_GE(q.stats().blocked_pushes, 1u);

    std::vector<core::Sts> out;
    EXPECT_EQ(q.popBatch(out, 4, 0.0), 4u);
    EXPECT_EQ(q.headroom(), 4u);

    // The deferred tail flushes once there is room again.
    EXPECT_EQ(q.pushBatch(in, /*may_block=*/false), 2u);
    EXPECT_TRUE(in.empty());
    EXPECT_EQ(q.stats().pushed, 6u);

    q.close();
    EXPECT_EQ(q.headroom(), 0u);
    std::vector<core::Sts> rest;
    EXPECT_EQ(q.popBatch(rest, 8, 0.0), 2u);
    EXPECT_TRUE(q.drained());
}
