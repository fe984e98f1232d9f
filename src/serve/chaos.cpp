#include "chaos.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <utility>

#include "core/errors.h"
#include "core/trainer.h"
#include "faults/source_faults.h"
#include "prog/builder.h"
#include "prog/regions.h"
#include "supervisor.h"
#include "wire_listener.h"

namespace eddie::serve
{

namespace
{

/** Missing-peak sentinel of the synthetic model (matches the serve
 *  test fixtures). */
constexpr double kSentinel = 2e7;

/** Salts separating the harness's independent fate draws. */
constexpr std::uint64_t kFateSalt = 0xC4A05'F47EULL;
constexpr std::uint64_t kStreamSalt = 0x57A7;
constexpr std::uint64_t kPolicySalt = 0x5EDD;
constexpr std::uint64_t kTearSalt = 0x7EA2;
constexpr std::uint64_t kWireSalt = 0x7769726;

prog::RegionGraph
twoLoopGraph()
{
    prog::ProgramBuilder b;
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
    static prog::Program p = b.take();
    return prog::analyzeProgram(p);
}

core::Sts
sharpSts(std::mt19937_64 &rng, double t, std::size_t region)
{
    std::normal_distribution<double> jitter(0.0, 2000.0);
    core::Sts sts;
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

core::Sts
anomalousSts(std::mt19937_64 &rng, double t)
{
    core::Sts sts = sharpSts(rng, t, 0);
    sts.peak_freqs[0] = 5e6;
    sts.peak_freqs[1] = 7e6;
    sts.injected = true;
    return sts;
}

core::Sts
dropoutSts(double t)
{
    core::Sts sts;
    sts.t_start = t;
    sts.t_end = t + 1e-4;
    sts.peak_freqs.assign(6, kSentinel);
    sts.true_region = 0;
    sts.window_energy = 1e-6;
    sts.peak_energy_frac = 0.0;
    sts.faulted = true;
    return sts;
}

/**
 * One shared synthetic model for every chaos run. Fixed seed: the
 * model is the control, the fate stream (cfg.seed) the variable, so a
 * failing seed isolates a scheduling bug rather than a training one.
 */
std::shared_ptr<const core::TrainedModel>
chaosModel()
{
    static const std::shared_ptr<const core::TrainedModel> model = [] {
        std::mt19937_64 rng(0xEDD1E);
        std::vector<std::vector<core::Sts>> runs;
        for (int r = 0; r < 6; ++r) {
            std::vector<core::Sts> run;
            double t = 0.0;
            for (int i = 0; i < 160; ++i, t += 5e-5)
                run.push_back(sharpSts(rng, t, i < 80 ? 0 : 1));
            runs.push_back(std::move(run));
        }
        return std::make_shared<const core::TrainedModel>(withAlpha(
            core::train(runs, twoLoopGraph(), kSentinel), 1e-6));
    }();
    return model;
}

/**
 * One session's stream: clean two-region trace with an anomaly burst
 * and a short dropout episode (short enough not to read as a
 * quarantine storm), so checkpoint cuts land across rejection
 * streaks, reports, and quarantine state.
 */
std::vector<core::Sts>
chaosStream(std::uint64_t seed, std::size_t len)
{
    std::mt19937_64 rng(seed);
    std::vector<core::Sts> stream;
    const std::size_t half = len / 2;
    const std::size_t burst = len * 9 / 16;
    const std::size_t outage = len * 3 / 4;
    double t = 0.0;
    for (std::size_t i = 0; i < len; ++i, t += 5e-5) {
        if (i >= burst && i < burst + len / 8)
            stream.push_back(anomalousSts(rng, t));
        else if (i >= outage && i < outage + 5)
            stream.push_back(dropoutSts(t));
        else
            stream.push_back(sharpSts(rng, t, i < half ? 0 : 1));
    }
    return stream;
}

struct SerialBaseline
{
    std::vector<core::StepRecord> records;
    std::vector<core::AnomalyReport> reports;
};

SerialBaseline
serialRun(const core::TrainedModel &model,
          const std::vector<core::Sts> &stream,
          const core::MonitorConfig &cfg)
{
    core::Monitor mon(model, cfg);
    for (const core::Sts &sts : stream)
        mon.step(sts);
    return {mon.records(), mon.reports()};
}

bool
sameRecords(const std::vector<core::StepRecord> &a,
            const std::vector<core::StepRecord> &b)
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

bool
sameReports(const std::vector<core::AnomalyReport> &a,
            const std::vector<core::AnomalyReport> &b)
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

/** Removes @p bytes from the end of @p path; returns bytes actually
 *  removed (0 when the file is missing or too small to keep a
 *  non-empty prefix). */
std::uint64_t
truncateTail(const std::string &path, std::uint64_t bytes)
{
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec || size <= 1)
        return 0;
    bytes = std::min<std::uint64_t>(bytes, size - 1);
    std::filesystem::resize_file(path, size - bytes, ec);
    return ec ? 0 : bytes;
}

std::string
tenantId(std::size_t index)
{
    // Built via += : the rvalue operator+(const char*, string&&)
    // path trips GCC 12's -Werror=restrict false positive.
    std::string id("t");
    id += std::to_string(index);
    return id;
}

} // namespace

bool
corruptArchiveValue(const std::string &path, const std::string &key)
{
    const auto value = store::Archive(path).valueExtent(key);
    if (!value || value->length < 8)
        return false;
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    if (!f)
        return false;
    const auto off = static_cast<std::streamoff>(
        value->offset + value->length / 2 - 4);
    char buf[8];
    f.seekg(off);
    f.read(buf, sizeof buf);
    if (f.gcount() != sizeof buf)
        return false;
    for (char &c : buf)
        c = static_cast<char>(c ^ 0xFF);
    f.seekp(off);
    f.write(buf, sizeof buf);
    f.flush();
    return f.good();
}

StepFate
stepFate(const ChaosConfig &cfg, std::size_t session, std::size_t step,
         std::uint64_t attempt)
{
    if (attempt >= cfg.max_consecutive)
        return StepFate::None; // forced delivery: chaos delays, never
                               // livelocks a step
    const double u = faults::fateUniform(
        cfg.seed ^ kFateSalt, session,
        (static_cast<std::uint64_t>(step) << 8) | attempt);
    double p = 0.0;
    if (cfg.fates.worker_kill) {
        p += cfg.kill_prob;
        if (u < p)
            return StepFate::Kill;
    }
    if (cfg.fates.worker_hang) {
        p += cfg.hang_prob;
        if (u < p)
            return StepFate::Hang;
    }
    return StepFate::None;
}

ChaosReport
runChaos(const ChaosConfig &cfg)
{
    if (cfg.tenants < 2)
        throw core::Error("chaos: need at least 2 tenants (one "
                          "victim, one neighbor)");
    if (cfg.sessions_per_tenant < 1 || cfg.stream_len < 16)
        throw core::Error("chaos: need >= 1 session per tenant and a "
                          "stream of >= 16 windows");

    ChaosReport rep;
    const auto fail = [&rep](std::string msg) {
        rep.violations.push_back(std::move(msg));
    };

    const auto model = chaosModel();
    const core::MonitorConfig mon_cfg;
    const std::size_t spt = cfg.sessions_per_tenant;
    const std::size_t nsess = cfg.tenants * spt;

    std::vector<std::shared_ptr<const std::vector<core::Sts>>> streams;
    std::vector<SerialBaseline> serial;
    for (std::size_t s = 0; s < nsess; ++s) {
        streams.push_back(
            std::make_shared<const std::vector<core::Sts>>(chaosStream(
                faults::fateMix(cfg.seed, s, kStreamSalt),
                cfg.stream_len)));
        serial.push_back(serialRun(*model, *streams[s], mon_cfg));
    }

    // Shed vs Throttle posture for the starvation fate, by seed, so a
    // grid exercises both (Throttle keeps the victim's verdicts
    // comparable; Shed is best-effort and exempts the victim from the
    // bit-identity checks below).
    const bool shed_policy =
        (faults::fateMix(cfg.seed, 0, kPolicySalt) & 1) != 0;

    const auto buildRegistry = [&](TenantRegistry &reg,
                                   bool with_quotas) {
        for (std::size_t t = 0; t < cfg.tenants; ++t) {
            TenantSpec spec;
            spec.id = tenantId(t);
            spec.model = model;
            spec.quota.restart_budget = cfg.restart_budget;
            spec.quota.restart_window_ms = cfg.restart_window_ms;
            spec.breaker.fault_threshold = cfg.fault_threshold;
            if (t == 0 && with_quotas && cfg.fates.starvation) {
                spec.quota.sts_per_s = 4000.0;
                spec.quota.burst = 8.0;
                spec.quota.rate_policy = shed_policy
                                             ? RatePolicy::Shed
                                             : RatePolicy::Throttle;
            }
            reg.addTenant(std::move(spec));
        }
    };
    const auto openSessions =
        [&](TenantRegistry &reg,
            std::vector<std::unique_ptr<VectorSource>> &sources) {
            for (std::size_t t = 0; t < cfg.tenants; ++t) {
                for (std::size_t k = 0; k < spt; ++k) {
                    sources.push_back(std::make_unique<VectorSource>(
                        streams[t * spt + k]));
                    const auto res = reg.openSession(
                        tenantId(t), sources.back().get());
                    if (!res.admitted)
                        throw core::Error(
                            "chaos: session refused at setup");
                }
            }
        };
    ServeConfig scfg;
    scfg.monitor = mon_cfg;
    scfg.watchdog.heartbeat_deadline_ms = cfg.heartbeat_deadline_ms;
    scfg.watchdog.poll_interval_ms = cfg.poll_interval_ms;
    scfg.checkpoint_interval = cfg.checkpoint_interval;
    scfg.full_snapshot_every = cfg.full_snapshot_every;
    scfg.scheduler.workers = cfg.workers;
    if (!cfg.dir.empty())
        scfg.checkpoint_path = cfg.dir + "/ck";

    // ---- Phase A: faulted fleet run --------------------------------
    std::uint64_t victim_shed = 0;
    {
        TenantRegistry reg;
        buildRegistry(reg, true);
        std::vector<std::unique_ptr<VectorSource>> sources;
        openSessions(reg, sources);

        Supervisor sup(scfg);
        std::vector<std::vector<std::uint64_t>> attempts(
            nsess, std::vector<std::uint64_t>(cfg.stream_len, 0));
        std::atomic<std::uint64_t> kills{0}, hangs{0};
        const std::string victim_id = tenantId(0);
        sup.setFleetStepHook([&](std::size_t session,
                                 const std::string &tenant,
                                 std::size_t step,
                                 const std::atomic<bool> &cancel) {
            if (tenant != victim_id || session >= nsess ||
                step >= cfg.stream_len)
                return;
            const std::uint64_t attempt = attempts[session][step]++;
            switch (stepFate(cfg, session, step, attempt)) {
            case StepFate::Kill:
                kills.fetch_add(1);
                throw core::Error("chaos: injected worker kill");
            case StepFate::Hang:
                hangs.fetch_add(1);
                while (!cancel.load())
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                break;
            case StepFate::None:
                break;
            }
        });

        const FleetResult fr = sup.runFleet(reg);
        const core::ServeStats st = sup.stats();
        rep.kills += kills.load();
        rep.hangs += hangs.load();
        rep.restarts += st.worker_restarts;
        rep.breaker_trips += st.breaker_trips;
        rep.escalations += st.escalations;
        rep.snapshot_decode_failures += st.snapshot_decode_failures;

        const TenantResult &victim = fr.tenants[0];
        victim_shed = victim.windows_shed;
        rep.windows_shed += victim.windows_shed;
        rep.windows_throttled += victim.windows_throttled;
        rep.victim_isolated =
            victim.breaker_tripped || victim.budget_escalated;

        if (st.worker_restarts > cfg.restart_budget)
            fail("phase A: " + std::to_string(st.worker_restarts) +
                 " restarts exceeded the victim budget of " +
                 std::to_string(cfg.restart_budget));
        for (std::size_t t = 1; t < cfg.tenants; ++t) {
            if (fr.tenants[t].breaker_tripped)
                fail("phase A: healthy tenant " + tenantId(t) +
                     " breaker tripped (cause " +
                     name(fr.tenants[t].breaker_cause) + ")");
        }
        for (std::size_t s = 0; s < nsess; ++s) {
            const bool is_victim = s / spt == 0;
            const ShardResult &r = fr.sessions[s];
            if (is_victim) {
                // Victim bit-identity only holds when nothing was
                // shed and it survived: restart replay from cuts is
                // exact under Block + Throttle.
                if (!r.escalated && victim_shed == 0 &&
                    (!sameRecords(r.records, serial[s].records) ||
                     !sameReports(r.reports, serial[s].reports)))
                    fail("phase A: surviving victim session " +
                         std::to_string(s) +
                         " diverged from the serial run");
                continue;
            }
            if (r.escalated) {
                fail("phase A: healthy session " + std::to_string(s) +
                     " escalated");
                continue;
            }
            if (!sameRecords(r.records, serial[s].records) ||
                !sameReports(r.reports, serial[s].reports)) {
                fail("phase A: healthy session " + std::to_string(s) +
                     " verdicts diverged from the serial run");
                continue;
            }
            ++rep.healthy_sessions_checked;
        }
    }

    // ---- Phase B: torn group commit, then resume -------------------
    if (!cfg.dir.empty() && cfg.fates.torn_commit) {
        // Tears the shared container's tail: the newest commit group,
        // whoever's it was.
        const std::string target =
            checkpointArchivePath(scfg.checkpoint_path);
        const std::uint64_t bytes =
            1 + faults::fateMix(cfg.seed, kTearSalt, kTearSalt) % 512;
        rep.torn_bytes += truncateTail(target, bytes);

        TenantRegistry reg;
        buildRegistry(reg, false); // clean resume: no quotas
        std::vector<std::unique_ptr<VectorSource>> sources;
        openSessions(reg, sources);
        ServeConfig rcfg = scfg;
        rcfg.resume = true;
        Supervisor sup(rcfg);
        const FleetResult fr = sup.runFleet(reg);
        rep.snapshot_decode_failures +=
            sup.stats().snapshot_decode_failures;
        for (const TenantResult &tr : fr.tenants) {
            if (tr.breaker_tripped)
                fail("phase B: tenant " + tr.id +
                     " breaker tripped on a torn tail (cause " +
                     name(tr.breaker_cause) + ")");
        }
        for (std::size_t s = 0; s < nsess; ++s) {
            const ShardResult &r = fr.sessions[s];
            if (r.escalated) {
                fail("phase B: session " + std::to_string(s) +
                     " escalated during torn-tail resume");
                continue;
            }
            // A Shed victim's checkpoints are best-effort (source
            // position ran ahead of the monitor); skip only then.
            if (s / spt == 0 && victim_shed != 0)
                continue;
            if (!sameRecords(r.records, serial[s].records) ||
                !sameReports(r.reports, serial[s].reports))
                fail("phase B: session " + std::to_string(s) +
                     " did not replay to the serial verdicts after "
                     "a torn tail");
        }
    }

    // ---- Phase C: corrupt victim snapshot, then resume -------------
    if (!cfg.dir.empty() && cfg.fates.corrupt_checkpoint) {
        ServeConfig ccfg = scfg;
        ccfg.checkpoint_path = cfg.dir + "/fc";
        {
            TenantRegistry reg;
            buildRegistry(reg, false);
            std::vector<std::unique_ptr<VectorSource>> sources;
            openSessions(reg, sources);
            Supervisor sup(ccfg);
            sup.runFleet(reg);
        }
        // Every tenant lives in this one file: the flip must land in
        // the victim's live snapshot and in no neighbor's.
        const std::string arc_path =
            checkpointArchivePath(ccfg.checkpoint_path);
        const auto snapKey = [](std::size_t t) {
            return snapshotKey(tenantKeyPrefix(tenantId(t)));
        };
        bool flipped = corruptArchiveValue(arc_path, snapKey(0));
        if (flipped) {
            store::Archive arc(arc_path);
            std::string value;
            if (arc.get(snapKey(0), value) != store::GetStatus::Corrupt) {
                flipped = false;
                fail("phase C: the flip left the victim's snapshot "
                     "readable");
            }
            for (std::size_t t = 1; t < cfg.tenants; ++t)
                if (arc.get(snapKey(t), value) != store::GetStatus::Ok)
                    fail("phase C: the flip damaged neighbor " +
                         tenantId(t) + "'s snapshot");
        } else {
            fail("phase C: victim snapshot missing from " + arc_path +
                 " or too small to corrupt");
        }
        if (flipped) {
            ++rep.corrupted_snapshots;
            TenantRegistry reg;
            buildRegistry(reg, false);
            std::vector<std::unique_ptr<VectorSource>> sources;
            openSessions(reg, sources);
            ServeConfig rcfg = ccfg;
            rcfg.resume = true;
            Supervisor sup(rcfg);
            const FleetResult fr = sup.runFleet(reg);
            rep.snapshot_decode_failures +=
                sup.stats().snapshot_decode_failures;
            rep.breaker_trips += sup.stats().breaker_trips;

            const TenantResult &victim = fr.tenants[0];
            if (!victim.breaker_tripped ||
                victim.breaker_cause != FaultClass::CheckpointDecode)
                fail("phase C: corrupt snapshot did not trip the "
                     "victim's CheckpointDecode breaker");
            for (std::size_t t = 1; t < cfg.tenants; ++t)
                if (fr.tenants[t].breaker_tripped ||
                    fr.tenants[t].checkpoint_decode_failures != 0)
                    fail("phase C: neighbor " + tenantId(t) +
                         " charged for the victim's corrupt snapshot");
            for (std::size_t s = 0; s < nsess; ++s) {
                const ShardResult &r = fr.sessions[s];
                if (s / spt == 0) {
                    if (!r.escalated)
                        fail("phase C: victim session " +
                             std::to_string(s) +
                             " served off a corrupt checkpoint");
                    continue;
                }
                if (r.escalated ||
                    !sameRecords(r.records, serial[s].records) ||
                    !sameReports(r.reports, serial[s].reports))
                    fail("phase C: healthy session " +
                         std::to_string(s) +
                         " disturbed by a neighbor's corrupt "
                         "snapshot");
            }
        }
    }

    // ---- Phase W: wire ingestion under byte-level chaos ------------
    if (cfg.wire_phase) {
        TenantRegistry reg;
        buildRegistry(reg, false);

        WireListenerConfig lcfg;
        // Transport by seed when both are available, so a grid covers
        // TCP loopback and the AF_UNIX path alike.
        const bool use_unix =
            !cfg.dir.empty() &&
            (faults::fateMix(cfg.seed, 1, kWireSalt) & 1) != 0;
        if (use_unix)
            lcfg.unix_path = cfg.dir + "/wire.sock";
        else
            lcfg.tcp = "127.0.0.1:0";
        // Small receive window so backpressure actually engages (the
        // queue-overflow fate shrinks it to 2 windows / 4096 B).
        lcfg.source.recv_capacity = 32;
        if (cfg.fates.queue_overflow) {
            lcfg.source.recv_capacity = 2;
            lcfg.source.recv_max_bytes = 4096;
        }
        lcfg.idle_timeout_ms = 10000.0;
        WireListener listener(reg, lcfg);
        listener.start();

        std::vector<WireClientReport> reports(nsess);
        std::atomic<std::size_t> returned{0};
        std::atomic<bool> gave_up{false};
        std::vector<std::thread> clients;
        clients.reserve(nsess);
        for (std::size_t s = 0; s < nsess; ++s) {
            clients.emplace_back([&, s] {
                WireClientConfig ccfg;
                if (use_unix)
                    ccfg.unix_path = lcfg.unix_path;
                else
                    ccfg.tcp = listener.tcpAddress();
                ccfg.tenant = tenantId(s / spt);
                ccfg.session = s % spt + 1;
                ccfg.batch_windows = 16;
                ccfg.ack_timeout_ms = 5000.0;
                ccfg.backoff.initial_ms = 2.0;
                ccfg.backoff.max_ms = 50.0;
                ccfg.chaos = cfg.wire;
                ccfg.chaos.seed =
                    faults::fateMix(cfg.seed, s, kWireSalt);
                VectorSource src(streams[s]);
                reports[s] = WireClient(ccfg).stream(src);
                if (!reports[s].delivered_all)
                    gave_up.store(true);
                returned.fetch_add(1);
            });
        }

        const std::size_t admitted =
            listener.awaitSessions(nsess, 30000.0);
        if (admitted < nsess) {
            fail("phase W: only " + std::to_string(admitted) + "/" +
                 std::to_string(nsess) +
                 " wire sessions admitted within the deadline");
            listener.drainAndClose();
            for (std::thread &th : clients)
                th.join();
        } else {
            listener.freezeAdmission();
            ServeConfig wcfg = scfg;
            if (!cfg.dir.empty())
                wcfg.checkpoint_path = cfg.dir + "/wk";
            Supervisor sup(wcfg);
            // Nothing wakes the parked session of a client that gave
            // up: once every client has returned and one failed, stop.
            // Both the client and its stopped session fail below.
            sup.setStopCheck([&] {
                return gave_up.load() && returned.load() == nsess;
            });
            const FleetResult fr = sup.runFleet(reg);
            rep.restarts += sup.stats().worker_restarts;
            // Drain BEFORE joining the clients: an escalated session
            // stops consuming, its client blocks on a full socket, and
            // only closing the connection lets that client fail out.
            listener.drainAndClose();
            for (std::thread &th : clients)
                th.join();

            for (std::size_t s = 0; s < nsess; ++s) {
                const WireClientReport &r = reports[s];
                if (!r.delivered_all)
                    fail("phase W: client " + std::to_string(s) +
                         " failed to deliver its stream (" + r.error +
                         ")");
                rep.wire_torn_frames += r.torn_frames;
                rep.wire_disconnects += r.forced_disconnects;
                rep.wire_duplicates += r.duplicate_batches;
                rep.wire_reorders += r.reordered_batches;
                rep.wire_corrupt_frames += r.corrupted_frames;
                rep.wire_hostile_lengths += r.hostile_lengths;
                rep.wire_reconnects += r.reconnects;
                rep.wire_nacks += r.nacks_received;
                rep.wire_windows_replayed += r.windows_replayed;
            }
            const WireListenerStats ls = listener.stats();
            rep.wire_malformed += ls.wire.totalErrors();
            rep.wire_duplicates_dropped += ls.duplicates_dropped;
            for (const WireSource *src : listener.sources())
                rep.blocked_pushes += src->wireStats().refused_pushes;

            // Bit-identity: sessions arrive in admission (connection
            // race) order, so map each admitted WireSource back to
            // its stream via (tenant id, session key).
            const std::vector<WireSource *> srcs = listener.sources();
            if (srcs.size() != fr.sessions.size()) {
                fail("phase W: admitted source count does not match "
                     "fleet session count");
            } else {
                for (std::size_t i = 0; i < srcs.size(); ++i) {
                    std::size_t tenant = cfg.tenants;
                    for (std::size_t t = 0; t < cfg.tenants; ++t) {
                        if (srcs[i]->tenantId() == tenantId(t)) {
                            tenant = t;
                            break;
                        }
                    }
                    const std::uint64_t key = srcs[i]->sessionKey();
                    if (tenant >= cfg.tenants || key < 1 ||
                        key > spt) {
                        fail("phase W: admitted session has an "
                             "unknown tenant/session key");
                        continue;
                    }
                    const std::size_t s =
                        tenant * spt + std::size_t(key - 1);
                    const ShardResult &r = fr.sessions[i];
                    if (r.escalated) {
                        fail("phase W: wire session " +
                             std::to_string(s) + " escalated");
                        continue;
                    }
                    if (!sameRecords(r.records, serial[s].records) ||
                        !sameReports(r.reports, serial[s].reports)) {
                        fail("phase W: wire session " +
                             std::to_string(s) +
                             " verdicts diverged from the serial "
                             "run");
                        continue;
                    }
                    ++rep.wire_sessions_checked;
                }
            }
        }
    }

    rep.ok = rep.violations.empty();
    return rep;
}

std::string
describe(const ChaosReport &report)
{
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "chaos: %s (%zu violations), fates: %llu kills, %llu hangs, "
        "%llu blocked, %llu throttled, %llu shed, %llu torn bytes, "
        "%llu corrupted; outcomes: %llu restarts, %llu breaker trips, "
        "%llu escalations, %llu decode failures, victim %s, "
        "%zu healthy sessions verified",
        report.ok ? "ok" : "FAILED", report.violations.size(),
        static_cast<unsigned long long>(report.kills),
        static_cast<unsigned long long>(report.hangs),
        static_cast<unsigned long long>(report.blocked_pushes),
        static_cast<unsigned long long>(report.windows_throttled),
        static_cast<unsigned long long>(report.windows_shed),
        static_cast<unsigned long long>(report.torn_bytes),
        static_cast<unsigned long long>(report.corrupted_snapshots),
        static_cast<unsigned long long>(report.restarts),
        static_cast<unsigned long long>(report.breaker_trips),
        static_cast<unsigned long long>(report.escalations),
        static_cast<unsigned long long>(
            report.snapshot_decode_failures),
        report.victim_isolated ? "isolated" : "survived",
        report.healthy_sessions_checked);
    std::string out(buf);
    if (report.wire_sessions_checked > 0 || report.wire_nacks > 0 ||
        report.wire_malformed > 0) {
        std::snprintf(
            buf, sizeof buf,
            "; wire: %llu torn, %llu disconnects, %llu duplicates, "
            "%llu reorders, %llu corrupt, %llu hostile lengths, "
            "%llu reconnects, %llu nacks, %llu replayed, "
            "%llu malformed rejected, %llu duplicate windows "
            "dropped, %zu wire sessions verified",
            static_cast<unsigned long long>(report.wire_torn_frames),
            static_cast<unsigned long long>(report.wire_disconnects),
            static_cast<unsigned long long>(report.wire_duplicates),
            static_cast<unsigned long long>(report.wire_reorders),
            static_cast<unsigned long long>(
                report.wire_corrupt_frames),
            static_cast<unsigned long long>(
                report.wire_hostile_lengths),
            static_cast<unsigned long long>(report.wire_reconnects),
            static_cast<unsigned long long>(report.wire_nacks),
            static_cast<unsigned long long>(
                report.wire_windows_replayed),
            static_cast<unsigned long long>(report.wire_malformed),
            static_cast<unsigned long long>(
                report.wire_duplicates_dropped),
            report.wire_sessions_checked);
        out += buf;
    }
    return out;
}

} // namespace eddie::serve
