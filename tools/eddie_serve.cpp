/**
 * @file
 * eddie_serve — run the supervised streaming runtime (src/serve) over
 * one or more captured workload streams, with injectable source
 * faults, bounded-queue backpressure, crash-consistent checkpointing,
 * and hot model reload.
 *
 *   eddie_serve <model-file> <workload>
 *       [--scale S] [--seed N] [--em] [--snr DB] [--threads T]
 *       [--inject loop|burst] [--payload N] [--contamination R]
 *       [--target REGION]
 *       [--shards N]
 *       [--stall-prob P] [--error-prob P] [--source-seed N]
 *       [--retries N]
 *       [--queue N] [--drop-oldest]
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
 *       [--resume] [--restart-budget N] [--strict-resume]
 *
 * Each mode refuses the other's flags (exit 2). Checkpoints live in
 * the EDDIEARC container FILE.arc; eddie_monitor --checkpoint FILE
 * writes one that --resume --checkpoint FILE continues from.
 *
 * Every session runs on the fair-share scheduler (serve/scheduler.h),
 * whose worker pool is min(hardware threads, sessions): the thread
 * count does not grow with the device count.
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
 *      read, a malformed number, a contradictory serving config such
 *      as --resume without --checkpoint)
 *   3  anomalies reported
 *   4  a shard exhausted its restart budget (escalated; its verdicts
 *      are the state at its last checkpoint)
 *   5  --strict-resume: a resume hit an unrecoverable checkpoint
 *      (snapshot decode failures; the run started cold instead)
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "inject/scenarios.h"
#include "serve/sample_source.h"
#include "serve/supervisor.h"
#include "serve/wire_listener.h"
#include "signal_util.h"
#include "tool_util.h"

using namespace eddie;

namespace
{

/** Flags only the workload mode reads. */
const std::vector<std::string> kWorkloadFlags = {
    "scale", "seed", "em", "snr", "threads", "inject", "payload",
    "contamination", "target", "shards", "stall-prob", "error-prob",
    "source-seed", "retries", "queue", "drop-oldest", "watch-model"};
/** Flags only the listen mode reads. */
const std::vector<std::string> kListenFlags = {
    "listen", "listen-pipe", "expect", "tenant", "idle-timeout-ms"};
/** Flags both modes read. */
const std::vector<std::string> kServeFlags = {
    "checkpoint", "ckpt-interval", "full-every", "resume",
    "restart-budget", "strict-resume"};

/** A contradictory serving config is a usage error (exit 2). */
void
validateConfig(const serve::ServeConfig &cfg)
{
    try {
        cfg.validate();
    } catch (const serve::ServeConfigError &e) {
        throw tools::UsageError(e.what());
    }
}

/** The serving knobs both modes share. */
serve::ServeConfig
serveConfig(const tools::Args &args)
{
    serve::ServeConfig scfg;
    scfg.checkpoint_interval =
        std::size_t(std::max(args.getLong("ckpt-interval", 64), 0L));
    scfg.checkpoint_path = args.get("checkpoint");
    scfg.resume = args.has("resume");
    scfg.full_snapshot_every =
        std::size_t(std::max(args.getLong("full-every", 16), 1L));
    scfg.watchdog.restart_budget = std::size_t(std::max(
        args.getLong("restart-budget",
                     long(scfg.watchdog.restart_budget)),
        0L));
    return scfg;
}

/** --strict-resume: a resume that hit an unrecoverable checkpoint
 *  exits 5, ahead of escalation (4) and anomaly verdicts (3). */
bool
strictResumeFailed(const tools::Args &args,
                   const serve::ServeConfig &scfg,
                   const core::ServeStats &stats)
{
    if (!args.has("strict-resume") || !scfg.resume ||
        stats.snapshot_decode_failures == 0)
        return false;
    std::fprintf(stderr,
                 "eddie_serve: %llu unrecoverable checkpoint "
                 "snapshot(s) on resume (--strict-resume)\n",
                 (unsigned long long)stats.snapshot_decode_failures);
    return true;
}

/**
 * Wire-ingestion mode (--listen / --listen-pipe): no workload is
 * captured locally — admitted eddie_replay clients stream STS windows
 * over the EDDIEWIRE protocol into per-session WireSources, and the
 * fleet supervisor monitors those on a fixed worker pool.
 * SIGINT/SIGTERM drains and closes the listener first, so every
 * session sees its wire end before the final checkpoint is written.
 */
int
runListen(const tools::Args &args)
{
    const serve::ServeConfig scfg = serveConfig(args);
    validateConfig(scfg);

    auto model = std::make_shared<const core::TrainedModel>(
        core::loadModelFile(args.positional()[0]));

    serve::TenantRegistry reg;
    std::string tenant = args.get("tenant");
    if (tenant.empty())
        tenant.assign("default");
    serve::TenantSpec spec;
    spec.id = tenant;
    spec.model = model;
    reg.addTenant(std::move(spec));

    serve::WireListenerConfig lcfg;
    lcfg.tcp = args.get("listen");
    lcfg.unix_path = args.get("listen-pipe");
    lcfg.idle_timeout_ms =
        args.getDouble("idle-timeout-ms", lcfg.idle_timeout_ms);

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
    const std::size_t expect =
        std::size_t(std::max(args.getLong("expect", 1), 1L));
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

    serve::Supervisor sup(scfg);
    sup.setStopCheck([] { return tools::stopRequested(); });

    // Drain watcher: on a stop signal, close the wire before the
    // supervisor writes its final checkpoint.
    std::atomic<bool> done{false};
    std::thread drainer([&] {
        while (!done.load() && !tools::stopRequested())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        if (!done.load())
            listener.drainAndClose();
    });

    const serve::FleetResult fr = sup.runFleet(reg);
    done.store(true);
    listener.drainAndClose();
    drainer.join();

    std::size_t total_reports = 0;
    bool any_escalated = false;
    const std::vector<serve::WireSource *> srcs = listener.sources();
    for (std::size_t i = 0; i < fr.sessions.size(); ++i) {
        const auto &r = fr.sessions[i];
        total_reports += r.reports.size();
        any_escalated = any_escalated || r.escalated;
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
    const core::ServeStats stats = sup.stats();
    std::printf("%s\n", core::describe(stats).c_str());
    if (strictResumeFailed(args, scfg, stats))
        return 5;
    if (any_escalated) {
        std::fprintf(stderr,
                     "eddie_serve: escalated wire session(s)\n");
        return 4;
    }
    return total_reports == 0 ? 0 : 3;
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
    if (listen) {
        if (args.positional().size() != 1) {
            std::fprintf(stderr,
                         "usage: eddie_serve <model-file> "
                         "--listen HOST:PORT | --listen-pipe PATH\n"
                         "       [--expect N] [--tenant ID] "
                         "[--idle-timeout-ms MS] [--checkpoint FILE]\n"
                         "       [--ckpt-interval N] [--full-every N] "
                         "[--resume]\n"
                         "       [--restart-budget N] "
                         "[--strict-resume]\n");
            return 2;
        }
        return runListen(args);
    }
    if (args.positional().size() != 2) {
        std::fprintf(
            stderr,
            "usage: eddie_serve <model-file> <workload> [--scale S] "
            "[--seed N] [--em] [--snr DB]\n"
            "       [--threads T] [--inject loop|burst] [--payload N] "
            "[--contamination R] [--target REGION]\n"
            "       [--shards N] [--stall-prob P] [--error-prob P] "
            "[--source-seed N] [--retries N]\n"
            "       [--queue N] [--drop-oldest] [--checkpoint FILE] "
            "[--ckpt-interval N] [--full-every N] [--resume]\n"
            "       [--watch-model]\n"
            "       [--restart-budget N] [--strict-resume]\n");
        return 2;
    }
    const std::string model_path = args.positional()[0];
    core::PipelineConfig cfg;
    cfg.threads = std::size_t(args.getLong("threads", 0));
    if (args.has("em")) {
        cfg.path = core::SignalPath::EmBaseband;
        cfg.channel.snr_db = args.getDouble("snr", 30.0);
        cfg.core.os_irq_rate_hz = 1000.0;
    }
    serve::ServeConfig scfg = serveConfig(args);
    scfg.monitor = cfg.monitor;
    scfg.queue.capacity =
        std::size_t(std::max(args.getLong("queue", 64), 1L));
    scfg.queue.policy = args.has("drop-oldest")
                            ? serve::BackpressurePolicy::DropOldest
                            : serve::BackpressurePolicy::Block;
    if (args.has("watch-model"))
        scfg.model_path = model_path;
    validateConfig(scfg);

    // Sniffs text vs EDDIEARC archive models.
    auto model = std::make_shared<const core::TrainedModel>(
        core::loadModelFile(model_path));
    auto workload = workloads::makeWorkload(
        args.positional()[1], args.getDouble("scale", 1.0));

    const auto target = args.has("target")
                            ? std::size_t(args.getLong("target", 0))
                            : inject::defaultTargetLoop(workload);
    const auto seed = std::uint64_t(args.getLong("seed", 42));

    cpu::InjectionPlan plan;
    const std::string inject = args.get("inject");
    if (inject == "loop") {
        plan = inject::loopPayload(
            target, std::size_t(args.getLong("payload", 8)),
            args.getDouble("contamination", 1.0), seed);
    } else if (inject == "burst") {
        plan = inject::burstOfSize(
            workload, target,
            std::uint64_t(args.getLong("payload", 476'000)), 1, seed);
    } else if (!inject.empty()) {
        std::fprintf(stderr, "unknown --inject kind '%s'\n",
                     inject.c_str());
        return 2;
    }

    const std::size_t shards =
        std::size_t(std::max(args.getLong("shards", 1), 1L));
    core::Pipeline pipe(std::move(workload), cfg);

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
    retry.max_attempts = std::size_t(args.getLong("retries", 8));
    retry.backoff.seed = fault_cfg.seed ^ 0xB0FF;

    std::vector<std::unique_ptr<serve::SampleSource>> owned;
    std::vector<serve::SampleSource *> sources;
    for (std::size_t i = 0; i < shards; ++i) {
        const auto stream = pipe.captureRunShared(seed + i, plan);
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
        sources.push_back(tip);
    }


    tools::handleStopSignals();
    serve::Supervisor sup(model, scfg);
    sup.setStopCheck([] { return tools::stopRequested(); });
    const auto results = sup.run(sources);

    std::size_t total_reports = 0;
    bool any_escalated = false;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        total_reports += r.reports.size();
        any_escalated = any_escalated || r.escalated;
        std::printf("shard %zu: %zu steps, %zu reports%s%s\n", i,
                    r.steps, r.reports.size(),
                    r.escalated ? " [escalated]" : "",
                    r.stopped ? " [stopped]" : "");
        for (std::size_t k = 0; k < r.reports.size() && k < 5; ++k) {
            const auto &rep = r.reports[k];
            std::printf(
                "  t=%8.3f ms while tracking %s\n", rep.time * 1e3,
                sup.model()->regions[rep.region].name.c_str());
        }
        if (r.reports.size() > 5)
            std::printf("  ... and %zu more\n", r.reports.size() - 5);
    }
    const core::ServeStats stats = sup.stats();
    std::printf("%s\n", core::describe(stats).c_str());
    if (strictResumeFailed(args, scfg, stats))
        return 5;
    if (any_escalated) {
        std::fprintf(stderr, "eddie_serve: restart budget exhausted; "
                             "escalated shard(s) hold last-checkpoint "
                             "verdicts\n");
        return 4;
    }
    return total_reports == 0 ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    return eddie::tools::runTool("eddie_serve",
                                 [&] { return run(argc, argv); });
}
