/**
 * @file
 * Integration tests of the multi-tenant fleet runtime: per-tenant
 * fault domains under runFleet (a crashing tenant's breaker isolates
 * it while neighbors' verdicts stay bit-identical), per-tenant
 * checkpoint namespaces in one shared archive, per-tenant hot model
 * reload, and the deterministic chaos harness end to end
 * (tests/serve/serve_test_util.h fixtures).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../store/codec_samples.h"
#include "core/errors.h"
#include "serve/chaos.h"
#include "serve/sample_source.h"
#include "serve/supervisor.h"
#include "serve_test_util.h"

using namespace eddie;
using namespace eddie::serve;
using namespace serve_test;

namespace
{

struct FleetFixture
{
    std::shared_ptr<const core::TrainedModel> model;
    std::vector<std::shared_ptr<const std::vector<core::Sts>>> streams;
    std::vector<std::unique_ptr<VectorSource>> sources;
    std::vector<std::vector<core::StepRecord>> serial_records;
    std::vector<std::vector<core::AnomalyReport>> serial_reports;

    explicit FleetFixture(std::size_t sessions)
    {
        std::mt19937_64 rng(0xF1EE7);
        model = std::make_shared<const core::TrainedModel>(
            sharpModel(rng));
        for (std::size_t s = 0; s < sessions; ++s) {
            streams.push_back(
                std::make_shared<const std::vector<core::Sts>>(
                    eventfulStream(100 + s)));
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

/** Answers Pending @p idle times before its one window, then ends.
 *  Each Pending raises the watched Readiness from inside the pull, so
 *  the latched raise sends its session straight back for the next
 *  pull. */
class IdleThenOneSource : public SampleSource
{
  public:
    IdleThenOneSource(core::Sts sts, int idle)
        : sts_(std::move(sts)), idle_(idle)
    {
    }
    Pull next() override
    {
        if (pos_ >= 1)
            return {PullStatus::EndOfStream, {}};
        if (idle_ > 0) {
            --idle_;
            if (ready_ != nullptr)
                ready_->raise();
            return {PullStatus::Pending, {}};
        }
        ++pos_;
        return {PullStatus::Ready, sts_};
    }
    bool seek(std::uint64_t pos) override
    {
        if (pos > 1)
            return false;
        pos_ = pos;
        return true;
    }
    std::uint64_t position() const override { return pos_; }
    void watch(Readiness *r) override { ready_ = r; }

  private:
    core::Sts sts_;
    int idle_;
    std::uint64_t pos_ = 0;
    Readiness *ready_ = nullptr;
};

ServeConfig
fastServeConfig()
{
    ServeConfig cfg;
    cfg.watchdog.heartbeat_deadline_ms = 60.0;
    cfg.watchdog.poll_interval_ms = 2.0;
    cfg.checkpoint_interval = 8;
    cfg.full_snapshot_every = 4;
    return cfg;
}

} // namespace

TEST(Fleet, CleanRunMatchesSerialVerdictsAndCountsTenants)
{
    FleetFixture fx(2);
    TenantRegistry reg;
    reg.addTenant(fx.spec("a"));
    reg.addTenant(fx.spec("b"));
    ASSERT_TRUE(reg.openSession("a", fx.sources[0].get()).admitted);
    ASSERT_TRUE(reg.openSession("b", fx.sources[1].get()).admitted);

    Supervisor sup(fastServeConfig());
    const FleetResult fr = sup.runFleet(reg);

    ASSERT_EQ(fr.sessions.size(), 2u);
    for (std::size_t s = 0; s < 2; ++s) {
        EXPECT_FALSE(fr.sessions[s].escalated);
        EXPECT_TRUE(sameRecords(fr.sessions[s].records,
                                fx.serial_records[s]));
        EXPECT_TRUE(sameReports(fr.sessions[s].reports,
                                fx.serial_reports[s]));
    }
    for (const TenantResult &tr : fr.tenants) {
        EXPECT_FALSE(tr.breaker_tripped);
        EXPECT_EQ(tr.restarts_used, 0u);
    }
    const core::ServeStats st = sup.stats();
    EXPECT_EQ(st.tenants, 2u);
    EXPECT_EQ(st.sessions, 2u);
    EXPECT_EQ(st.breaker_trips, 0u);
}

TEST(Fleet, CrashLoopTenantIsIsolatedNeighborsUnaffected)
{
    FleetFixture fx(2);
    TenantRegistry reg;
    TenantSpec bad = fx.spec("bad");
    bad.breaker.fault_threshold = 3;
    reg.addTenant(bad);
    reg.addTenant(fx.spec("good"));
    ASSERT_TRUE(reg.openSession("bad", fx.sources[0].get()).admitted);
    ASSERT_TRUE(reg.openSession("good", fx.sources[1].get()).admitted);

    Supervisor sup(fastServeConfig());
    // The bad tenant's worker crashes on every step past 40: an
    // unconditional crash loop that must end in breaker isolation,
    // not an unbounded restart storm.
    sup.setFleetStepHook([](std::size_t, const std::string &tenant,
                            std::size_t step,
                            const std::atomic<bool> &) {
        if (tenant == "bad" && step >= 40)
            throw core::Error("fleet test: injected crash");
    });
    const FleetResult fr = sup.runFleet(reg);

    EXPECT_TRUE(fr.sessions[0].escalated);
    EXPECT_TRUE(fr.tenants[0].breaker_tripped);
    EXPECT_EQ(fr.tenants[0].breaker_cause, FaultClass::WorkerFault);
    EXPECT_GE(fr.tenants[0].worker_faults, 3u);
    // The last checkpointed verdicts survive as the tenant's result.
    EXPECT_LE(fr.sessions[0].steps, 40u);

    EXPECT_FALSE(fr.sessions[1].escalated);
    EXPECT_FALSE(fr.tenants[1].breaker_tripped);
    EXPECT_TRUE(
        sameRecords(fr.sessions[1].records, fx.serial_records[1]));
    EXPECT_TRUE(
        sameReports(fr.sessions[1].reports, fx.serial_reports[1]));
    EXPECT_GE(sup.stats().breaker_trips, 1u);
}

TEST(Fleet, SharedArchiveNamespacesResumeBitIdentical)
{
    const std::string base =
        testing::TempDir() + "fleet_arc_resume_test";
    std::remove((base + ".arc").c_str());

    FleetFixture fx(2);
    ServeConfig cfg = fastServeConfig();
    cfg.checkpoint_path = base;
    {
        // First run: both tenants checkpoint into one container
        // under their own key prefixes, stopped mid-stream by a
        // graceful stop as soon as both have cut something.
        TenantRegistry reg;
        reg.addTenant(fx.spec("a"));
        reg.addTenant(fx.spec("b"));
        ASSERT_TRUE(
            reg.openSession("a", fx.sources[0].get()).admitted);
        ASSERT_TRUE(
            reg.openSession("b", fx.sources[1].get()).admitted);
        Supervisor sup(cfg);
        std::atomic<bool> cut_enough{false};
        sup.setFleetStepHook([&](std::size_t, const std::string &,
                                 std::size_t step,
                                 const std::atomic<bool> &) {
            if (step >= 64)
                cut_enough.store(true);
        });
        sup.setStopCheck([&] { return cut_enough.load(); });
        sup.runFleet(reg);
    }
    {
        // Resume: both tenants recover from their own namespace and
        // replay to verdicts bit-identical to the serial runs.
        FleetFixture fresh(2);
        ServeConfig rcfg = cfg;
        rcfg.resume = true;
        TenantRegistry reg;
        reg.addTenant(fresh.spec("a"));
        reg.addTenant(fresh.spec("b"));
        ASSERT_TRUE(
            reg.openSession("a", fresh.sources[0].get()).admitted);
        ASSERT_TRUE(
            reg.openSession("b", fresh.sources[1].get()).admitted);
        Supervisor sup(rcfg);
        const FleetResult fr = sup.runFleet(reg);
        EXPECT_GE(sup.stats().checkpoint_restores, 1u);
        for (std::size_t s = 0; s < 2; ++s) {
            EXPECT_FALSE(fr.sessions[s].escalated);
            EXPECT_TRUE(sameRecords(fr.sessions[s].records,
                                    fx.serial_records[s]));
            EXPECT_TRUE(sameReports(fr.sessions[s].reports,
                                    fx.serial_reports[s]));
        }
        EXPECT_EQ(sup.stats().snapshot_decode_failures, 0u);
    }
    std::remove((base + ".arc").c_str());
}

/** A resume over a snapshot whose CRCs are all valid but whose record
 *  count claims 2^32 records: the decoder refuses the count before
 *  allocating, the run completes, and the tenant counts one checkpoint
 *  decode failure, which trips its breaker like any corrupt snapshot
 *  (its session is isolated rather than served off the snapshot). */
TEST(Supervisor, ResumeOverALyingSnapshotCountsADecodeFailure)
{
    const std::string base =
        testing::TempDir() + "fleet_lying_snapshot_test";
    std::remove(checkpointArchivePath(base).c_str());
    {
        GroupCheckpoint group;
        group.shards.resize(1);
        std::string lying = encodeGroupCheckpoint(group);
        // An empty state's record count is the payload's last field.
        codec_samples::poke(lying, lying.size() - 4 - 8,
                            std::uint64_t(1) << 32);
        codec_samples::reseal(lying);
        store::Archive arc(checkpointArchivePath(base));
        ASSERT_TRUE(arc.put(snapshotKey(tenantKeyPrefix("a")), lying));
    }

    FleetFixture fx(1);
    ServeConfig cfg = fastServeConfig();
    cfg.checkpoint_path = base;
    cfg.resume = true;
    TenantRegistry reg;
    reg.addTenant(fx.spec("a"));
    ASSERT_TRUE(reg.openSession("a", fx.sources[0].get()).admitted);
    Supervisor sup(cfg);
    const FleetResult fr = sup.runFleet(reg);
    ASSERT_EQ(fr.tenants.size(), 1u);
    EXPECT_EQ(fr.tenants[0].checkpoint_decode_failures, 1u);
    EXPECT_TRUE(fr.tenants[0].breaker_tripped);
    EXPECT_EQ(fr.tenants[0].breaker_cause, FaultClass::CheckpointDecode);
    EXPECT_EQ(sup.stats().snapshot_decode_failures, 1u);
    ASSERT_EQ(fr.sessions.size(), 1u);
    EXPECT_TRUE(fr.sessions[0].escalated);
    std::remove(checkpointArchivePath(base).c_str());
}

/** The rate quota is charged per pulled window: an idle (Pending) pull
 *  costs no token, so a tenant's quota is not spent on polling. */
TEST(Fleet, IdlePullsChargeNoRateQuota)
{
    FleetFixture fx(1);
    TenantRegistry reg;
    TenantSpec spec = fx.spec("a");
    spec.quota.sts_per_s = 1.0; // one token per second,
    spec.quota.burst = 1.0;     // and one in the bucket
    spec.quota.rate_policy = RatePolicy::Shed;
    reg.addTenant(spec);
    IdleThenOneSource source(fx.streams[0]->front(), 8);
    ASSERT_TRUE(reg.openSession("a", &source).admitted);
    Supervisor sup(fastServeConfig());
    const FleetResult fr = sup.runFleet(reg);
    ASSERT_EQ(fr.sessions.size(), 1u);
    EXPECT_EQ(fr.tenants[0].windows_shed, 0u);
    EXPECT_EQ(fr.sessions[0].steps, 1u);
}

/** A session needs its tenant's model: runFleet refuses a session of
 *  a tenant registered without one, naming the tenant, before it opens
 *  any store. A tenant with no sessions may lack a model. */
TEST(Fleet, SessionOfATenantWithoutAModelIsRefused)
{
    const std::string base = testing::TempDir() + "fleet_no_model_test";
    std::remove(checkpointArchivePath(base).c_str());
    FleetFixture fx(1);
    TenantSpec bare;
    bare.id = "bare";
    {
        TenantRegistry reg;
        reg.addTenant(bare);
        ASSERT_TRUE(reg.openSession("bare", fx.sources[0].get()).admitted);
        ServeConfig cfg = fastServeConfig();
        cfg.checkpoint_path = base;
        Supervisor sup(cfg);
        try {
            sup.runFleet(reg);
            ADD_FAILURE() << "served a session without a model";
        } catch (const core::Error &e) {
            EXPECT_NE(std::string(e.what()).find("tenant bare"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_FALSE(
            std::filesystem::exists(checkpointArchivePath(base)));
    }
    TenantRegistry reg;
    reg.addTenant(bare);
    reg.addTenant(fx.spec("a"));
    ASSERT_TRUE(reg.openSession("a", fx.sources[0].get()).admitted);
    Supervisor sup(fastServeConfig());
    const FleetResult fr = sup.runFleet(reg);
    ASSERT_EQ(fr.sessions.size(), 1u);
    EXPECT_TRUE(sameRecords(fr.sessions[0].records, fx.serial_records[0]));
    EXPECT_EQ(fr.tenants[0].model, nullptr);
}

/** Hot reload is per tenant: only tenant a watches its model file, and
 *  a rewrite mid-run swaps a's session alone. b's verdicts stay
 *  bit-identical to its serial pass, which the reloaded model would
 *  have changed, and b ends on its original model. */
TEST(Fleet, HotReloadSwapsOnlyTheWatchedTenant)
{
    const std::string path = testing::TempDir() + "fleet_hot_model_a";
    FleetFixture fx(2);
    core::saveModelFile(*fx.model, path);
    // alpha 0.5 rejects about half of the clean windows that 1e-6
    // accepts: a session that swaps shows it in its records.
    const core::TrainedModel loose = withAlpha(*fx.model, 0.5);
    core::Monitor loose_b(loose, core::MonitorConfig{});
    for (const core::Sts &sts : *fx.streams[1])
        loose_b.step(sts);
    ASSERT_FALSE(sameRecords(loose_b.records(), fx.serial_records[1]));

    TenantRegistry reg;
    TenantSpec a = fx.spec("a");
    a.model_path = path;
    reg.addTenant(a);
    reg.addTenant(fx.spec("b"));
    ASSERT_TRUE(reg.openSession("a", fx.sources[0].get()).admitted);
    ASSERT_TRUE(reg.openSession("b", fx.sources[1].get()).admitted);
    ServeConfig cfg = fastServeConfig();
    cfg.model_poll_ms = 2.0;
    Supervisor sup(cfg);
    std::atomic<bool> rewritten{false};
    sup.setFleetStepHook([&](std::size_t, const std::string &tenant,
                             std::size_t step, const std::atomic<bool> &) {
        // saveModelFile replaces the file atomically (tmp + rename).
        if (tenant == "a" && step == 30 && !rewritten.exchange(true))
            core::saveModelFile(loose, path);
        // Slow both streams so that model polls land mid-run.
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    });
    const FleetResult fr = sup.runFleet(reg);
    std::remove(path.c_str());

    ASSERT_EQ(fr.sessions.size(), 2u);
    EXPECT_EQ(sup.stats().model_reloads, 1u);
    EXPECT_FALSE(fr.sessions[0].escalated);
    EXPECT_EQ(fr.sessions[0].steps, fx.streams[0]->size());
    EXPECT_FALSE(sameRecords(fr.sessions[0].records, fx.serial_records[0]));
    ASSERT_NE(fr.tenants[0].model, nullptr);
    EXPECT_DOUBLE_EQ(fr.tenants[0].model->alpha, 0.5);
    EXPECT_FALSE(fr.sessions[1].escalated);
    EXPECT_TRUE(sameRecords(fr.sessions[1].records, fx.serial_records[1]));
    EXPECT_TRUE(sameReports(fr.sessions[1].reports, fx.serial_reports[1]));
    EXPECT_EQ(fr.tenants[1].model, fx.model);
}

TEST(Chaos, SmokeSeedsHoldEveryInvariant)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        ChaosConfig cfg;
        cfg.seed = seed;
        cfg.dir = testing::TempDir() + "chaos_smoke_s" +
                  std::to_string(seed);
        std::filesystem::create_directories(cfg.dir);
        const ChaosReport rep = runChaos(cfg);
        std::string all;
        for (const std::string &v : rep.violations)
            all += v + "; ";
        EXPECT_TRUE(rep.ok) << "seed " << seed << ": " << all;
        std::filesystem::remove_all(cfg.dir);
    }
}

TEST(Chaos, InMemoryRunSkipsDiskFatesButChecksIsolation)
{
    ChaosConfig cfg;
    cfg.seed = 11;
    cfg.dir.clear(); // no disk: phases B/C skipped
    const ChaosReport rep = runChaos(cfg);
    std::string all;
    for (const std::string &v : rep.violations)
        all += v + "; ";
    EXPECT_TRUE(rep.ok) << all;
    EXPECT_EQ(rep.torn_bytes, 0u);
    EXPECT_EQ(rep.corrupted_snapshots, 0u);
    EXPECT_GT(rep.healthy_sessions_checked, 0u);
}

/** Phase W with every batch corrupted and no forced-clean cap: each
 *  client runs out of attempts and gives up. Nothing wakes the
 *  session of a peer that gave up and no timer restarts it, so the
 *  run ends by its stop check once every client has returned, with
 *  every failed client reported and no session restarted. */
TEST(Chaos, WireClientsThatGiveUpEndTheRunReported)
{
    ChaosConfig cfg;
    cfg.seed = 5;
    cfg.dir.clear();
    cfg.fates.worker_kill = false;
    cfg.fates.worker_hang = false;
    cfg.fates.starvation = false;
    cfg.wire_phase = true;
    cfg.wire.corrupt_prob = 1.0;
    cfg.wire.max_consecutive = 1000;
    const ChaosReport rep = runChaos(cfg);

    const std::size_t clients = cfg.tenants * cfg.sessions_per_tenant;
    std::size_t failed = 0;
    for (const std::string &v : rep.violations)
        if (v.find("failed to deliver its stream") != std::string::npos)
            ++failed;
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(failed, clients);
    EXPECT_EQ(rep.wire_sessions_checked, 0u);
    EXPECT_EQ(rep.restarts, 0u);
    EXPECT_GT(rep.wire_corrupt_frames, 0u);
}
