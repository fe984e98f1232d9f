/**
 * @file
 * eddie_serve — run the supervised streaming runtime (src/serve) over
 * one or more captured workload streams, with injectable source
 * faults, crash-consistent checkpointing, and hot model reload.
 *
 *   eddie_serve <model-file> <workload>
 *       [--scale S] [--seed N] [--em] [--snr DB] [--threads T]
 *       [--inject loop|burst] [--payload N] [--contamination R]
 *       [--target REGION]
 *       [--shards N]
 *       [--stall-prob P] [--error-prob P] [--source-seed N]
 *       [--retries N]
 *       [--checkpoint FILE] [--ckpt-interval N] [--full-every N]
 *       [--resume] [--watch-model]
 *       [--restart-budget N] [--strict-resume]
 *
 * Wire-ingestion mode replaces the workload with a socket front end
 * (the EDDIEWIRE protocol, DESIGN.md §11) fed by eddie_replay:
 *
 *   eddie_serve <model-file> --listen HOST:PORT | --listen-pipe PATH
 *       [--expect N] [--tenant ID] [--idle-timeout-ms MS]
 *       [--checkpoint FILE] [--ckpt-interval N] [--full-every N]
 *       [--resume] [--watch-model]
 *       [--restart-budget N] [--strict-resume]
 *
 * Each mode refuses the other's flags (exit 2). Both serve one tenant
 * through Supervisor::runFleet: kRunTenant in workload mode (no rate
 * quota, no breaker), --tenant (default "default") in listen mode.
 * --restart-budget sizes that tenant's restart budget, and
 * --watch-model reloads its model whenever the model file changes.
 * Checkpoints live in the EDDIEARC container FILE.arc; eddie_monitor
 * --checkpoint FILE writes one that --resume --checkpoint FILE
 * continues from.
 *
 * Every session runs on the fair-share scheduler (serve/scheduler.h),
 * whose worker pool is min(hardware threads, sessions): the thread
 * count does not grow with the device count. Each worker pulls a
 * session's windows from its source and steps them at once; in
 * --listen mode a connection's receive window is the one queue a
 * window crosses, and it pushes back on the peer when full.
 *
 * Shard i monitors the stream captured with seed + i. SIGINT/SIGTERM
 * request a graceful stop: workers finish their current window, write
 * a final checkpoint, and the serving counters are flushed; with
 * --resume a later invocation continues from those checkpoints with
 * bit-identical verdicts.
 *
 * Exit codes distinguish failure modes so fleet scripts can branch:
 *   0  clean run, no anomalies
 *   2  usage / bad arguments (an unknown flag or one the mode does not
 *      read, a malformed number, a negative count, a zero --shards or
 *      --expect, a zero, negative or non-finite --idle-timeout-ms, a
 *      contradictory serving config such as --resume without
 *      --checkpoint or --full-every 0)
 *   3  anomalies reported
 *   4  a session escalated (restart budget exhausted or breaker
 *      tripped; its verdicts are the state at its last checkpoint)
 *   5  --strict-resume: a resume hit an unrecoverable checkpoint
 *      (snapshot decode failures; the run started cold instead)
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "run_flags.h"
#include "serve/sample_source.h"
#include "serve/supervisor.h"
#include "serve/wire_listener.h"
#include "signal_util.h"

using namespace eddie;

namespace
{

/** Flags only the workload mode reads. */
const std::vector<std::string> kWorkloadFlags = {
    "scale", "seed", "em", "snr", "threads", "inject", "payload",
    "contamination", "target", "shards", "stall-prob", "error-prob",
    "source-seed", "retries"};
/** Flags only the listen mode reads. */
const std::vector<std::string> kListenFlags = {
    "listen", "listen-pipe", "expect", "tenant", "idle-timeout-ms"};
/** Flags both modes read. */
const std::vector<std::string> kServeFlags = {
    "checkpoint", "ckpt-interval", "full-every", "resume",
    "restart-budget", "strict-resume", "watch-model"};

/** The serving knobs both modes share; a contradictory config is a
 *  usage error (exit 2). */
serve::ServeConfig
serveConfig(const tools::Args &args)
{
    serve::ServeConfig scfg;
    scfg.checkpoint_interval = args.getCount("ckpt-interval", 64);
    scfg.checkpoint_path = args.get("checkpoint");
    scfg.resume = args.has("resume");
    scfg.full_snapshot_every = args.getCount("full-every", 16);
    try {
        scfg.validate();
    } catch (const serve::ServeConfigError &e) {
        throw tools::UsageError(e.what());
    }
    return scfg;
}

/** The one tenant either mode serves, over the model file the first
 *  argument names. */
serve::TenantSpec
servedTenant(const tools::Args &args, const std::string &id)
{
    serve::TenantSpec spec;
    spec.id = id;
    spec.quota.restart_budget =
        args.getCount("restart-budget", spec.quota.restart_budget);
    if (args.has("watch-model"))
        spec.model_path = args.positional()[0];
    spec.model = std::make_shared<const core::TrainedModel>(
        core::loadModelFile(args.positional()[0]));
    return spec;
}

/**
 * The serving half both modes share: runs every session of @p reg
 * with SIGINT/SIGTERM as the stop check, lets @p report print the
 * per-session lines, prints the serving counters, and picks the exit
 * code: 5 (--strict-resume hit an unrecoverable checkpoint), then 4
 * (a session escalated), then 3 (anomalies reported), else 0.
 */
int
serveFleet(const tools::Args &args, const serve::ServeConfig &scfg,
           serve::TenantRegistry &reg,
           const std::function<void(const serve::FleetResult &)> &report)
{
    serve::Supervisor sup(scfg);
    sup.setStopCheck([] { return tools::stopRequested(); });
    const serve::FleetResult fr = sup.runFleet(reg);
    report(fr);
    const core::ServeStats stats = sup.stats();
    std::printf("%s\n", core::describe(stats).c_str());
    if (args.has("strict-resume") && scfg.resume &&
        stats.snapshot_decode_failures != 0) {
        std::fprintf(stderr,
                     "eddie_serve: %llu unrecoverable checkpoint "
                     "snapshot(s) on resume (--strict-resume)\n",
                     (unsigned long long)stats.snapshot_decode_failures);
        return 5;
    }
    std::size_t total_reports = 0;
    bool any_escalated = false;
    for (const serve::ShardResult &r : fr.sessions) {
        total_reports += r.reports.size();
        any_escalated = any_escalated || r.escalated;
    }
    if (any_escalated) {
        std::fprintf(stderr, "eddie_serve: escalated session(s) hold "
                             "last-checkpoint verdicts\n");
        return 4;
    }
    return total_reports == 0 ? 0 : 3;
}

/**
 * Wire-ingestion mode (--listen / --listen-pipe): no workload is
 * captured locally — admitted eddie_replay clients stream STS windows
 * over the EDDIEWIRE protocol into per-session WireSources, and the
 * supervisor monitors those on a fixed worker pool.
 * SIGINT/SIGTERM drains and closes the listener first, so every
 * session sees its wire end before the final checkpoint is written.
 */
int
runListen(const tools::Args &args)
{
    const serve::ServeConfig scfg = serveConfig(args);
    const std::size_t expect = args.getCount("expect", 1);
    if (expect == 0)
        throw tools::UsageError("--expect: '0' is not >= 1");
    serve::WireListenerConfig lcfg;
    lcfg.tcp = args.get("listen");
    lcfg.unix_path = args.get("listen-pipe");
    lcfg.idle_timeout_ms =
        args.getDouble("idle-timeout-ms", lcfg.idle_timeout_ms);
    try {
        lcfg.validate();
    } catch (const serve::ServeConfigError &e) {
        throw tools::UsageError(e.what());
    }

    const std::string tenant = args.get("tenant");
    serve::TenantRegistry reg;
    reg.addTenant(servedTenant(args, tenant.empty() ? "default" : tenant));

    tools::ignoreSigpipe();
    tools::handleStopSignals();

    serve::WireListener listener(reg, lcfg);
    listener.start();
    if (!listener.tcpAddress().empty())
        std::printf("listening on tcp %s\n",
                    listener.tcpAddress().c_str());
    if (!listener.pipeAddress().empty())
        std::printf("listening on pipe %s\n",
                    listener.pipeAddress().c_str());
    std::fflush(stdout);

    // Admission window: wait for --expect sessions (poll slices so a
    // stop signal cuts the wait short), then freeze and run.
    std::size_t admitted = 0;
    while (!tools::stopRequested()) {
        admitted = listener.awaitSessions(expect, 200.0);
        if (admitted >= expect)
            break;
    }
    if (admitted < expect) {
        listener.drainAndClose();
        std::printf("stopped before %zu sessions connected\n", expect);
        return 0;
    }
    listener.freezeAdmission();

    // Drain watcher: on a stop signal, close the wire before the
    // supervisor writes its final checkpoint. Stopped and joined by
    // the report, or by its destructor if the run throws.
    std::jthread drainer([&listener](std::stop_token done) {
        while (!done.stop_requested() && !tools::stopRequested())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        if (!done.stop_requested())
            listener.drainAndClose();
    });

    return serveFleet(args, scfg, reg, [&](const serve::FleetResult &fr) {
        drainer.request_stop();
        drainer.join();
        listener.drainAndClose();
        const std::vector<serve::WireSource *> srcs = listener.sources();
        for (std::size_t i = 0; i < fr.sessions.size(); ++i) {
            const auto &r = fr.sessions[i];
            const serve::WireSourceStats ws =
                i < srcs.size() ? srcs[i]->wireStats()
                                : serve::WireSourceStats{};
            std::printf("session %zu: %zu steps, %zu reports, "
                        "%llu ingested, %llu duplicates dropped%s%s\n",
                        i, r.steps, r.reports.size(),
                        (unsigned long long)ws.ingested,
                        (unsigned long long)ws.duplicates_dropped,
                        r.escalated ? " [escalated]" : "",
                        r.stopped ? " [stopped]" : "");
        }
        const serve::WireListenerStats ls = listener.stats();
        std::printf("wire: %llu accepted, %llu reattaches, %llu acks, "
                    "%llu nacks, %llu malformed rejected, %llu conn "
                    "errors, %llu idle closes, %llu bytes\n",
                    (unsigned long long)ls.connections_accepted,
                    (unsigned long long)ls.reattaches,
                    (unsigned long long)ls.acks_sent,
                    (unsigned long long)ls.nacks_sent,
                    (unsigned long long)ls.wire.totalErrors(),
                    (unsigned long long)ls.conn_errors,
                    (unsigned long long)ls.idle_closes,
                    (unsigned long long)ls.bytes_received);
    });
}

/** Workload mode: captures --shards streams up front and serves them
 *  as the sessions of kRunTenant. */
int
runWorkload(const tools::Args &args)
{
    core::PipelineConfig cfg;
    cfg.threads = args.getCount("threads", 0);
    tools::applyEmFlags(args, cfg);
    serve::ServeConfig scfg = serveConfig(args);
    scfg.monitor = cfg.monitor;
    const std::size_t shards = args.getCount("shards", 1);
    if (shards == 0)
        throw tools::UsageError("--shards: '0' is not >= 1");
    auto captured = tools::capturedRun(args, args.positional()[1]);
    serve::TenantSpec spec = servedTenant(args, serve::kRunTenant);
    spec.breaker.fault_threshold = 0;
    spec.breaker.storm_outage_windows = 0;
    spec.breaker.decode_failure_threshold = 0;

    core::Pipeline pipe(std::move(captured.workload), cfg);

    // Capture the streams up front (shard i = seed + i), then serve
    // them through the source stack: replay -> deterministic faults
    // -> retry with backoff.
    faults::SourceFaultConfig fault_cfg;
    fault_cfg.stall_prob = args.getDouble("stall-prob", 0.0);
    fault_cfg.error_prob = args.getDouble("error-prob", 0.0);
    fault_cfg.seed = std::uint64_t(args.getLong("source-seed", 0x50FA));
    fault_cfg.enabled =
        fault_cfg.stall_prob > 0.0 || fault_cfg.error_prob > 0.0;

    serve::RetryConfig retry;
    retry.max_attempts = args.getCount("retries", 8);
    retry.backoff.seed = fault_cfg.seed ^ 0xB0FF;

    serve::TenantRegistry reg;
    reg.addTenant(std::move(spec));
    std::vector<std::unique_ptr<serve::SampleSource>> owned;
    for (std::size_t i = 0; i < shards; ++i) {
        const auto stream =
            pipe.captureRunShared(captured.seed + i, captured.plan);
        auto base = std::make_unique<serve::VectorSource>(stream);
        serve::SampleSource *tip = base.get();
        owned.push_back(std::move(base));
        if (fault_cfg.enabled) {
            faults::SourceFaultConfig shard_faults = fault_cfg;
            shard_faults.seed += i; // independent schedules per shard
            auto flaky = std::make_unique<serve::FlakySource>(
                *tip, shard_faults);
            tip = flaky.get();
            owned.push_back(std::move(flaky));
            serve::RetryConfig shard_retry = retry;
            shard_retry.backoff.seed += i;
            auto retrying = std::make_unique<serve::RetryingSource>(
                *tip, shard_retry);
            tip = retrying.get();
            owned.push_back(std::move(retrying));
        }
        reg.openSession(serve::kRunTenant, tip);
    }

    tools::handleStopSignals();
    return serveFleet(args, scfg, reg, [](const serve::FleetResult &fr) {
        // The model the tenant ended on (a --watch-model reload may
        // have replaced the one loaded at start).
        const core::TrainedModel &model = *fr.tenants[0].model;
        for (std::size_t i = 0; i < fr.sessions.size(); ++i) {
            const auto &r = fr.sessions[i];
            std::printf("shard %zu: %zu steps, %zu reports%s%s\n", i,
                        r.steps, r.reports.size(),
                        r.escalated ? " [escalated]" : "",
                        r.stopped ? " [stopped]" : "");
            for (std::size_t k = 0; k < r.reports.size() && k < 5; ++k)
                std::printf("  t=%8.3f ms while tracking %s\n",
                            r.reports[k].time * 1e3,
                            model.regions[r.reports[k].region]
                                .name.c_str());
            if (r.reports.size() > 5)
                std::printf("  ... and %zu more\n",
                            r.reports.size() - 5);
        }
    });
}

int
run(int argc, char **argv)
{
    std::vector<std::string> flags = kServeFlags;
    flags.insert(flags.end(), kWorkloadFlags.begin(), kWorkloadFlags.end());
    flags.insert(flags.end(), kListenFlags.begin(), kListenFlags.end());
    tools::Args args(argc, argv, flags);
    const bool listen = args.has("listen") || args.has("listen-pipe");
    // A flag the chosen mode never reads would silently do nothing.
    for (const std::string &flag : listen ? kWorkloadFlags : kListenFlags)
        if (args.has(flag))
            throw tools::UsageError("--" + flag + " is not read " +
                                    (listen ? "with --listen"
                                            : "without --listen"));
    if (args.positional().size() != (listen ? 1u : 2u)) {
        std::fprintf(
            stderr,
            "usage: eddie_serve <model-file> <workload> [--scale S] "
            "[--seed N] [--em] [--snr DB]\n"
            "       [--threads T] [--inject loop|burst] [--payload N] "
            "[--contamination R] [--target REGION]\n"
            "       [--shards N] [--stall-prob P] [--error-prob P] "
            "[--source-seed N] [--retries N]\n"
            "       <serving flags>\n"
            "   or: eddie_serve <model-file> "
            "--listen HOST:PORT | --listen-pipe PATH\n"
            "       [--expect N] [--tenant ID] "
            "[--idle-timeout-ms MS] <serving flags>\n"
            "serving flags: [--checkpoint FILE] [--ckpt-interval N] "
            "[--full-every N] [--resume]\n"
            "       [--watch-model] [--restart-budget N] "
            "[--strict-resume]\n");
        return 2;
    }
    return listen ? runListen(args) : runWorkload(args);
}

} // namespace

int
main(int argc, char **argv)
{
    return eddie::tools::runTool("eddie_serve",
                                 [&] { return run(argc, argv); });
}
