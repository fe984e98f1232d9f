/**
 * @file
 * End-to-end supervision tests on one tenant (kRunTenant, no rate
 * quota, no breaker — what eddie_serve's workload mode serves): the
 * runtime is killed mid-stream (worker crash, worker hang, in-process
 * teardown with on-disk checkpoints) and must recover to the exact
 * verdict sequence of an uninterrupted run; a torn or damaged
 * checkpoint archive must be counted or refused, never silently lost;
 * a flaky source behind retry/backoff must cause zero verdict
 * divergence; an unrecoverable shard must escalate; a rewritten model
 * file hot-reloads without verdict loss.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "../store/file_size_limit.h"
#include "core/metrics.h"
#include "serve/sample_source.h"
#include "serve/supervisor.h"
#include "serve_test_util.h"
#include "store/archive.h"

namespace
{

using namespace eddie;
using namespace eddie::serve;
using namespace serve_test;

struct Fixture
{
    std::shared_ptr<const core::TrainedModel> model;
    std::shared_ptr<const std::vector<core::Sts>> stream;
    std::vector<core::StepRecord> baseline_records;
    std::vector<core::AnomalyReport> baseline_reports;

    Fixture()
    {
        std::mt19937_64 rng(23);
        model = std::make_shared<const core::TrainedModel>(
            sharpModel(rng));
        stream = std::make_shared<const std::vector<core::Sts>>(
            eventfulStream(99));
        core::Monitor monitor(*model, core::MonitorConfig{});
        for (const auto &sts : *stream)
            monitor.step(sts);
        baseline_records = monitor.records();
        baseline_reports = monitor.reports();
    }

    ServeConfig config() const
    {
        ServeConfig cfg;
        cfg.checkpoint_interval = 8;
        cfg.watchdog.heartbeat_deadline_ms = 60.0;
        cfg.watchdog.poll_interval_ms = 1.0;
        return cfg;
    }

    /** Registers kRunTenant in @p reg (no rate quota, every breaker
     *  threshold 0, @p budget restarts, hot reload of @p model_path)
     *  with one session per source. */
    void addTenant(TenantRegistry &reg,
                   const std::vector<SampleSource *> &sources,
                   std::size_t budget = 3,
                   const std::string &model_path = "") const
    {
        TenantSpec spec;
        spec.id = kRunTenant;
        spec.model = model;
        spec.model_path = model_path;
        spec.quota.restart_budget = budget;
        spec.breaker.fault_threshold = 0;
        spec.breaker.storm_outage_windows = 0;
        spec.breaker.decode_failure_threshold = 0;
        reg.addTenant(spec);
        for (SampleSource *source : sources)
            ASSERT_TRUE(reg.openSession(kRunTenant, source).admitted);
    }
};

const Fixture &
fixture()
{
    static Fixture f;
    return f;
}

TEST(Supervisor, CleanRunMatchesBareMonitor)
{
    const Fixture &f = fixture();
    VectorSource source(f.stream);
    TenantRegistry reg;
    f.addTenant(reg, {&source});
    Supervisor sup(f.config());
    const auto results = sup.runFleet(reg).sessions;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].escalated);
    EXPECT_TRUE(sameRecords(results[0].records, f.baseline_records));
    EXPECT_TRUE(sameReports(results[0].reports, f.baseline_reports));
    const auto stats = sup.stats();
    EXPECT_EQ(stats.processed, f.stream->size());
    EXPECT_EQ(stats.delivered, f.stream->size());
    EXPECT_EQ(stats.worker_restarts, 0u);
}

/** A worker crash mid-stream (and mid-rejection-streak) restarts from
 *  the last checkpoint with bit-identical final verdicts. */
TEST(Supervisor, CrashRecoveryIsBitIdentical)
{
    const Fixture &f = fixture();
    VectorSource source(f.stream);
    TenantRegistry reg;
    f.addTenant(reg, {&source});
    Supervisor sup(f.config());
    std::atomic<bool> fired{false};
    sup.setFleetStepHook([&fired](std::size_t, const std::string &,
                                  std::size_t step,
                                  const std::atomic<bool> &) {
        if (step == 95 && !fired.exchange(true))
            throw std::runtime_error("injected worker crash");
    });
    const auto results = sup.runFleet(reg).sessions;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].escalated);
    EXPECT_TRUE(sameRecords(results[0].records, f.baseline_records));
    EXPECT_TRUE(sameReports(results[0].reports, f.baseline_reports));
    const auto stats = sup.stats();
    EXPECT_EQ(stats.worker_crashes, 1u);
    EXPECT_EQ(stats.worker_restarts, 1u);
    EXPECT_EQ(stats.checkpoint_restores, 1u);
    EXPECT_GT(stats.checkpoints_written, 0u);
    // The replayed windows between checkpoint and crash are re-pulled
    // from the re-seeked source, so delivery exceeds the stream size.
    EXPECT_GT(stats.delivered, f.stream->size());
}

/** A hung worker (step hook that blocks until cancelled) trips the
 *  watchdog deadline and recovers identically. */
TEST(Supervisor, HangDetectionRestartsAndRecovers)
{
    const Fixture &f = fixture();
    VectorSource source(f.stream);
    TenantRegistry reg;
    f.addTenant(reg, {&source});
    Supervisor sup(f.config());
    std::atomic<bool> fired{false};
    sup.setFleetStepHook([&fired](std::size_t, const std::string &,
                                  std::size_t step,
                                  const std::atomic<bool> &cancel) {
        if (step == 40 && !fired.exchange(true)) {
            while (!cancel.load())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        }
    });
    const auto results = sup.runFleet(reg).sessions;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].escalated);
    EXPECT_TRUE(sameRecords(results[0].records, f.baseline_records));
    EXPECT_TRUE(sameReports(results[0].reports, f.baseline_reports));
    const auto stats = sup.stats();
    EXPECT_EQ(stats.worker_hangs, 1u);
    EXPECT_EQ(stats.worker_restarts, 1u);
    EXPECT_GT(stats.restart_latency_ms, 0.0);
}

/** A shard that keeps crashing exhausts the restarts-per-window
 *  budget and escalates to degraded mode instead of looping. */
TEST(Supervisor, RestartBudgetExhaustionEscalates)
{
    const Fixture &f = fixture();
    VectorSource source(f.stream);
    TenantRegistry reg;
    f.addTenant(reg, {&source}, 2);
    Supervisor sup(f.config());
    sup.setFleetStepHook([](std::size_t, const std::string &,
                            std::size_t step, const std::atomic<bool> &) {
        if (step == 20)
            throw std::runtime_error("deterministic crash");
    });
    const auto results = sup.runFleet(reg).sessions;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].escalated);
    // Degraded mode serves the state of the last checkpoint: a prefix
    // of the baseline, never garbage.
    ASSERT_LE(results[0].steps, 20u);
    for (std::size_t i = 0; i < results[0].steps; ++i) {
        EXPECT_EQ(results[0].records[i].region,
                  f.baseline_records[i].region);
        EXPECT_EQ(results[0].records[i].rejected,
                  f.baseline_records[i].rejected);
    }
    const auto stats = sup.stats();
    EXPECT_EQ(stats.worker_crashes, 3u); // initial + 2 restarts
    EXPECT_EQ(stats.worker_restarts, 2u);
    EXPECT_EQ(stats.escalations, 1u);
}

/** In-process "kill": the first runtime escalates with its checkpoint
 *  on disk, a second runtime resumes from that file and must finish
 *  with the uninterrupted run's exact verdict sequence. */
TEST(Supervisor, KillThenResumeFromDiskIsBitIdentical)
{
    const Fixture &f = fixture();
    const std::string path = testing::TempDir() + "serve_kill_resume";
    std::remove(checkpointArchivePath(path).c_str());

    ServeConfig cfg = f.config();
    cfg.checkpoint_path = path;
    {
        VectorSource source(f.stream);
        TenantRegistry reg;
        f.addTenant(reg, {&source}, 0); // first crash is fatal
        Supervisor sup(cfg);
        sup.setFleetStepHook([](std::size_t, const std::string &,
                                std::size_t step,
                                const std::atomic<bool> &) {
            if (step == 101) // inside the anomaly burst
                throw std::runtime_error("killed mid-stream");
        });
        const auto results = sup.runFleet(reg).sessions;
        ASSERT_EQ(results.size(), 1u);
        ASSERT_TRUE(results[0].escalated);
    }

    ServeConfig resume_cfg = f.config();
    resume_cfg.checkpoint_path = path;
    resume_cfg.resume = true;
    VectorSource source(f.stream);
    TenantRegistry reg;
    f.addTenant(reg, {&source});
    Supervisor sup(resume_cfg);
    const auto results = sup.runFleet(reg).sessions;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].escalated);
    EXPECT_TRUE(sameRecords(results[0].records, f.baseline_records));
    EXPECT_TRUE(sameReports(results[0].reports, f.baseline_reports));
    EXPECT_EQ(sup.stats().checkpoint_restores, 1u);
    // The resumed run only processed the tail.
    EXPECT_LT(sup.stats().processed, f.stream->size());
    std::remove(checkpointArchivePath(path).c_str());
}

/** Graceful stop mid-stream writes a final checkpoint; resuming from
 *  it completes the stream with identical verdicts. */
TEST(Supervisor, GracefulStopThenResumeIsBitIdentical)
{
    const Fixture &f = fixture();
    const std::string path = testing::TempDir() + "serve_stop_resume";
    std::remove(checkpointArchivePath(path).c_str());

    ServeConfig cfg = f.config();
    cfg.checkpoint_path = path;
    {
        VectorSource source(f.stream);
        TenantRegistry reg;
        f.addTenant(reg, {&source});
        Supervisor sup(cfg);
        sup.setFleetStepHook([&sup](std::size_t, const std::string &,
                                    std::size_t step,
                                    const std::atomic<bool> &) {
            if (step == 70)
                sup.requestStop();
        });
        const auto results = sup.runFleet(reg).sessions;
        ASSERT_EQ(results.size(), 1u);
        ASSERT_TRUE(results[0].stopped);
        ASSERT_LT(results[0].steps, f.stream->size());
        // The stopped prefix is a prefix of the baseline.
        for (std::size_t i = 0; i < results[0].steps; ++i)
            ASSERT_EQ(results[0].records[i].rejected,
                      f.baseline_records[i].rejected);
    }

    ServeConfig resume_cfg = f.config();
    resume_cfg.checkpoint_path = path;
    resume_cfg.resume = true;
    VectorSource source(f.stream);
    TenantRegistry reg;
    f.addTenant(reg, {&source});
    Supervisor sup(resume_cfg);
    const auto results = sup.runFleet(reg).sessions;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(sameRecords(results[0].records, f.baseline_records));
    EXPECT_TRUE(sameReports(results[0].reports, f.baseline_reports));
    std::remove(checkpointArchivePath(path).c_str());
}

/** Checkpoint writes that fail (no file may grow past 4 KiB) are
 *  counted in checkpoint_write_failures and cost no verdict: the run,
 *  a crash restart from the in-memory mirror included, ends
 *  bit-identical to the serial pass. */
TEST(Supervisor, FailedCheckpointWritesAreCountedAndCostNoVerdicts)
{
    const Fixture &f = fixture();
    const std::string path = testing::TempDir() + "serve_write_fail";
    std::remove(checkpointArchivePath(path).c_str());

    ServeConfig cfg = f.config();
    cfg.checkpoint_path = path;
    VectorSource source(f.stream);
    TenantRegistry reg;
    f.addTenant(reg, {&source});
    Supervisor sup(cfg);
    std::atomic<bool> fired{false};
    sup.setFleetStepHook([&fired](std::size_t, const std::string &,
                                  std::size_t step,
                                  const std::atomic<bool> &) {
        if (step == 95 && !fired.exchange(true))
            throw std::runtime_error("injected worker crash");
    });
    const auto results = [&] {
        FileSizeLimit limit(4096);
        return sup.runFleet(reg).sessions;
    }();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].escalated);
    EXPECT_TRUE(sameRecords(results[0].records, f.baseline_records));
    EXPECT_TRUE(sameReports(results[0].reports, f.baseline_reports));
    const core::ServeStats stats = sup.stats();
    EXPECT_EQ(stats.worker_restarts, 1u);
    EXPECT_GT(stats.checkpoint_write_failures, 0u);
    EXPECT_NE(core::describe(stats).find(
                  std::to_string(stats.checkpoint_write_failures) +
                  " checkpoint write failures"),
              std::string::npos);
    std::remove(checkpointArchivePath(path).c_str());
}

/** A torn archive tail (a crash mid-commit) drops the newest batch at
 *  open; the resume falls back to the cut before it, finishes with
 *  the baseline's verdicts, and counts the fallback. */
TEST(Supervisor, TornArchiveTailIsACountedFallbackOnResume)
{
    const Fixture &f = fixture();
    const std::string path = testing::TempDir() + "serve_torn_tail";
    const std::string arc = checkpointArchivePath(path);
    std::remove(arc.c_str());

    ServeConfig cfg = f.config();
    cfg.checkpoint_path = path;
    {
        VectorSource source(f.stream);
        TenantRegistry reg;
        f.addTenant(reg, {&source});
        Supervisor sup(cfg);
        sup.setFleetStepHook([&sup](std::size_t, const std::string &,
                                    std::size_t step,
                                    const std::atomic<bool> &) {
            if (step == 70)
                sup.requestStop();
        });
        ASSERT_TRUE(sup.runFleet(reg).sessions[0].stopped);
        EXPECT_EQ(sup.stats().delta_fallbacks, 0u);
    }
    std::filesystem::resize_file(arc, std::filesystem::file_size(arc) - 1);

    cfg.resume = true;
    VectorSource source(f.stream);
    TenantRegistry reg;
    f.addTenant(reg, {&source});
    Supervisor sup(cfg);
    const auto results = sup.runFleet(reg).sessions;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(sameRecords(results[0].records, f.baseline_records));
    EXPECT_TRUE(sameReports(results[0].reports, f.baseline_reports));
    EXPECT_EQ(sup.stats().delta_fallbacks, 1u);
    std::remove(arc.c_str());
}

/** Mid-file damage makes the archive refuse to open. A resume stops
 *  on it; a fresh run, which reads nothing from the file, moves it
 *  aside untouched and checkpoints into a new container. */
TEST(Supervisor, FreshRunMovesADamagedArchiveAside)
{
    const Fixture &f = fixture();
    const std::string path = testing::TempDir() + "serve_damaged";
    const std::string arc = checkpointArchivePath(path);
    const std::string aside = arc + ".damaged";
    std::remove(arc.c_str());
    std::remove(aside.c_str());
    {
        store::Archive a(arc);
        for (const char *key : {"a", "b", "c"})
            ASSERT_TRUE(a.put(key, std::string(100, 'x')));
    }
    {
        // The first segment starts at sector 1; its header CRC covers
        // this byte, and the two segments after it stay valid.
        std::fstream io(arc, std::ios::binary | std::ios::in |
                                 std::ios::out);
        io.seekp(store::kSectorSize);
        io.put('\x7f');
    }
    const auto damaged_size = std::filesystem::file_size(arc);

    ServeConfig cfg = f.config();
    cfg.checkpoint_path = path;
    cfg.resume = true;
    {
        VectorSource source(f.stream);
        TenantRegistry reg;
        f.addTenant(reg, {&source});
        Supervisor sup(cfg);
        EXPECT_THROW(sup.runFleet(reg), core::FormatError);
    }
    EXPECT_EQ(std::filesystem::file_size(arc), damaged_size);

    cfg.resume = false;
    VectorSource source(f.stream);
    TenantRegistry reg;
    f.addTenant(reg, {&source});
    Supervisor sup(cfg);
    const auto results = sup.runFleet(reg).sessions;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(sameRecords(results[0].records, f.baseline_records));
    EXPECT_EQ(std::filesystem::file_size(aside), damaged_size);
    store::Archive fresh(arc);
    EXPECT_TRUE(fresh.contains(snapshotKey(tenantKeyPrefix(kRunTenant))));
    EXPECT_FALSE(fresh.contains("a"));
    std::remove(arc.c_str());
    std::remove(aside.c_str());
}

/** The flaky-source acceptance property: stalls and transient errors
 *  recovered by retry/backoff cause ZERO verdict divergence. */
TEST(Supervisor, FlakySourceBehindRetryDivergesNowhere)
{
    const Fixture &f = fixture();
    VectorSource base(f.stream);
    faults::SourceFaultConfig fault_cfg;
    fault_cfg.enabled = true;
    fault_cfg.stall_prob = 0.25;
    fault_cfg.error_prob = 0.15;
    fault_cfg.max_consecutive = 3;
    FlakySource flaky(base, fault_cfg);
    RetryConfig retry_cfg;
    retry_cfg.max_attempts = 8;
    // No-op sleeper: the whole retry/backoff state machine runs, the
    // test just does not wait out the delays.
    RetryingSource retrying(flaky, retry_cfg, [](double) {});

    TenantRegistry reg;
    f.addTenant(reg, {&retrying});
    Supervisor sup(f.config());
    const auto results = sup.runFleet(reg).sessions;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].escalated);
    EXPECT_TRUE(sameRecords(results[0].records, f.baseline_records));
    EXPECT_TRUE(sameReports(results[0].reports, f.baseline_reports));
    const auto stats = sup.stats();
    EXPECT_GT(stats.source_retries, 0u);
    EXPECT_GT(stats.source_stalls + stats.source_errors, 0u);
    EXPECT_EQ(stats.source_give_ups, 0u);
    EXPECT_EQ(stats.worker_restarts, 0u);
}

/** Several shards of one tenant, one of them crashing, each with
 *  independent fault schedules: per-shard verdicts all match. */
TEST(Supervisor, ShardedRunWithOneCrashStaysIsolated)
{
    const Fixture &f = fixture();
    VectorSource s0(f.stream);
    VectorSource s1(f.stream);
    VectorSource s2(f.stream);
    TenantRegistry reg;
    f.addTenant(reg, {&s0, &s1, &s2});
    Supervisor sup(f.config());
    std::atomic<int> crashes{0};
    sup.setFleetStepHook([&crashes](std::size_t, const std::string &,
                                    std::size_t step,
                                    const std::atomic<bool> &) {
        // Exactly one crash total; whichever shard draws it first.
        if (step == 50 && crashes.fetch_add(1) == 0)
            throw std::runtime_error("one shard crashes");
    });
    const auto results = sup.runFleet(reg).sessions;
    ASSERT_EQ(results.size(), 3u);
    for (const auto &r : results) {
        EXPECT_FALSE(r.escalated);
        EXPECT_TRUE(sameRecords(r.records, f.baseline_records));
        EXPECT_TRUE(sameReports(r.reports, f.baseline_reports));
    }
    EXPECT_EQ(sup.stats().worker_crashes, 1u);
    EXPECT_EQ(sup.stats().worker_restarts, 1u);
}

/** Hot model reload: rewriting the tenant's model file mid-run swaps
 *  its model without losing a single verdict. */
TEST(Supervisor, HotModelReloadSwapsWithoutVerdictLoss)
{
    const Fixture &f = fixture();
    const std::string path = testing::TempDir() + "serve_hot_model";
    core::saveModelFile(*f.model, path);

    ServeConfig cfg = f.config();
    cfg.model_poll_ms = 2.0;
    VectorSource source(f.stream);
    TenantRegistry reg;
    f.addTenant(reg, {&source}, 3, path);
    Supervisor sup(cfg);
    // Slow the stream down enough for at least one poll to land
    // mid-run; the hook also rewrites the model file once early on.
    std::atomic<bool> rewritten{false};
    sup.setFleetStepHook([&](std::size_t, const std::string &,
                             std::size_t step, const std::atomic<bool> &) {
        if (step == 30 && !rewritten.exchange(true)) {
            // Same distributions, different alpha: different bytes
            // (new CRC) but near-identical decisions; the assertions
            // below only rely on continuity, not equality.
            // saveModelFile replaces the file atomically (tmp +
            // rename).
            core::saveModelFile(withAlpha(*f.model, 2e-6), path);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    });
    const FleetResult fr = sup.runFleet(reg);
    std::remove(path.c_str());
    ASSERT_EQ(fr.sessions.size(), 1u);
    EXPECT_FALSE(fr.sessions[0].escalated);
    // Every window got exactly one verdict despite the mid-run swap.
    EXPECT_EQ(fr.sessions[0].steps, f.stream->size());
    EXPECT_EQ(sup.stats().model_reloads, 1u);
    EXPECT_NE(fr.tenants[0].model.get(), f.model.get());
    EXPECT_NEAR(fr.tenants[0].model->alpha, 2e-6, 1e-9);
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

/** A model rewritten in place in two halves, with model polls between
 *  them: each poll that reads the half-written file loads nothing and
 *  leaves the file as it is, so the second half completes an intact
 *  file that reloads exactly once. */
TEST(Supervisor, InPlaceModelRewriteReloadsOnceWhenComplete)
{
    const Fixture &f = fixture();
    const std::string path = testing::TempDir() + "serve_inplace_model";
    core::saveModelFile(*f.model, path);
    core::saveModelFile(withAlpha(*f.model, 2e-6), path + ".next");
    const std::string next = readFile(path + ".next");
    std::remove((path + ".next").c_str());
    const std::size_t half = next.size() / 2;

    ServeConfig cfg = f.config();
    cfg.model_poll_ms = 2.0;
    VectorSource source(f.stream);
    TenantRegistry reg;
    f.addTenant(reg, {&source}, 3, path);
    Supervisor sup(cfg);
    std::ofstream writer;
    std::string seen_between; // the file just before the second half
    sup.setFleetStepHook([&](std::size_t, const std::string &,
                             std::size_t step, const std::atomic<bool> &) {
        if (step == 20) {
            writer.open(path, std::ios::binary | std::ios::trunc);
            writer.write(next.data(), std::streamsize(half));
            writer.flush();
        } else if (step == 80) {
            // 60 steps of 0.5 ms: many model polls saw the first half.
            seen_between = readFile(path);
            writer.write(next.data() + half,
                         std::streamsize(next.size() - half));
            writer.close();
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    });
    const FleetResult fr = sup.runFleet(reg);
    ASSERT_EQ(fr.sessions.size(), 1u);
    EXPECT_EQ(fr.sessions[0].steps, f.stream->size());
    EXPECT_EQ(seen_between, next.substr(0, half));
    EXPECT_EQ(readFile(path), next);
    EXPECT_EQ(sup.stats().model_reloads, 1u);
    EXPECT_NEAR(fr.tenants[0].model->alpha, 2e-6, 1e-9);
    std::remove(path.c_str());
}

} // namespace
