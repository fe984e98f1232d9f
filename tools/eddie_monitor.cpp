/**
 * @file
 * eddie_monitor — monitor one run of a workload against a trained
 * model and print a report.
 *
 *   eddie_monitor <model-file> <workload>
 *       [--scale S] [--seed N] [--em] [--snr DB] [--threads T]
 *       [--inject loop|burst] [--payload N] [--contamination R]
 *       [--target REGION] [--checkpoint FILE]
 *
 * The scale/path options must match how the model was trained.
 *
 * SIGINT/SIGTERM stop the monitoring loop gracefully: the current
 * window finishes, metrics over the processed prefix are flushed, and
 * with --checkpoint a final resumable snapshot is written (a second
 * signal hard-exits). The snapshot goes into the EDDIEARC container
 * FILE.arc in the layout of eddie_serve's workload mode, so
 * `eddie_serve ... --resume --checkpoint FILE` continues from it.
 */

#include <cstdio>

#include "core/errors.h"
#include "core/pipeline.h"
#include "inject/scenarios.h"
#include "serve/checkpoint.h"
#include "signal_util.h"
#include "tool_util.h"

using namespace eddie;

namespace
{

int
run(int argc, char **argv)
{
    tools::Args args(argc, argv,
                     {"scale", "seed", "em", "snr", "threads", "inject",
                      "payload", "contamination", "target", "checkpoint"});
    if (args.positional().size() != 2) {
        std::fprintf(stderr,
                     "usage: eddie_monitor <model-file> <workload> "
                     "[--scale S] [--seed N] [--em] [--snr DB]\n"
                     "       [--threads T] [--inject loop|burst] "
                     "[--payload N] "
                     "[--contamination R] [--target REGION]\n"
                     "       [--checkpoint FILE]\n");
        return 2;
    }
    const auto model = core::loadModelFile(args.positional()[0]);

    core::PipelineConfig cfg;
    cfg.threads = args.getCount("threads", 0);
    if (args.has("em")) {
        cfg.path = core::SignalPath::EmBaseband;
        cfg.channel.snr_db = args.getDouble("snr", 30.0);
        cfg.core.os_irq_rate_hz = 1000.0;
    }
    auto workload = workloads::makeWorkload(
        args.positional()[1], args.getDouble("scale", 1.0));

    const auto target = args.has("target") ?
        args.getCount("target", 0) :
        inject::defaultTargetLoop(workload);
    const auto seed = std::uint64_t(args.getLong("seed", 42));

    cpu::InjectionPlan plan;
    const std::string inject = args.get("inject");
    if (inject == "loop") {
        plan = inject::loopPayload(
            target, args.getCount("payload", 8),
            args.getDouble("contamination", 1.0), seed);
    } else if (inject == "burst") {
        plan = inject::burstOfSize(
            workload, target,
            std::uint64_t(args.getCount("payload", 476'000)), 1, seed);
    } else if (!inject.empty()) {
        std::fprintf(stderr, "unknown --inject kind '%s'\n",
                     inject.c_str());
        return 2;
    }

    tools::handleStopSignals();
    core::Pipeline pipe(std::move(workload), cfg);

    // Explicit step loop (instead of Pipeline::monitorRun) so a stop
    // signal can interrupt between windows; metrics are then scored
    // over the processed prefix (scoreRun tolerates partial records).
    const auto stream = pipe.captureRunShared(seed, plan);
    core::Monitor monitor(model, cfg.monitor);
    bool interrupted = false;
    for (const auto &sts : *stream) {
        if (tools::stopRequested()) {
            interrupted = true;
            break;
        }
        monitor.step(sts);
    }

    core::RunEvaluation ev;
    ev.reports = monitor.reports();
    ev.records = monitor.records();
    ev.metrics = core::scoreRun(*stream, ev.records, ev.reports, model);
    ev.degraded = monitor.degradedStats();

    const std::string ckpt_path = args.get("checkpoint");
    if (!ckpt_path.empty()) {
        serve::CheckpointData ckpt;
        ckpt.monitor = monitor.exportState();
        ckpt.source_pos = ckpt.monitor.step_index;
        store::Archive arc(serve::checkpointArchivePath(ckpt_path));
        serve::CheckpointStoreConfig store_cfg;
        store_cfg.key_prefix = serve::tenantKeyPrefix(serve::kRunTenant);
        store_cfg.archive = &arc;
        serve::CheckpointStore store(store_cfg);
        const std::size_t steps = ckpt.monitor.step_index;
        store.submitFull(0, std::move(ckpt));
        if (!store.flush())
            throw core::IoError("checkpoint: write failed: " +
                                arc.path());
        std::printf("checkpoint written to %s (%zu steps)\n",
                    arc.path().c_str(), steps);
    }
    if (interrupted)
        std::printf("interrupted after %zu of %zu STS windows\n",
                    ev.records.size(), stream->size());

    std::printf("monitored %zu STS windows\n", ev.metrics.groups);
    std::printf("anomaly reports: %zu\n", ev.reports.size());
    for (std::size_t i = 0;
         i < ev.reports.size() && i < 10; ++i) {
        const auto &r = ev.reports[i];
        std::printf("  t=%8.3f ms while tracking %s\n",
                    r.time * 1e3,
                    model.regions[r.region].name.c_str());
    }
    if (ev.reports.size() > 10)
        std::printf("  ... and %zu more\n", ev.reports.size() - 10);
    if (!inject.empty()) {
        std::printf("injected groups: %zu, detected: %zu\n",
                    ev.metrics.injected_groups,
                    ev.metrics.true_positives);
        if (ev.metrics.detection_latency >= 0.0) {
            std::printf("detection latency: %.2f ms\n",
                        ev.metrics.detection_latency * 1e3);
        }
    } else {
        std::printf("false positives: %zu (%.2f%%)\n",
                    ev.metrics.false_positives,
                    100.0 * double(ev.metrics.false_positives) /
                        double(std::max<std::size_t>(
                            ev.metrics.groups, 1)));
        std::printf("coverage: %.1f%%\n",
                    100.0 * double(ev.metrics.covered_steps) /
                        double(std::max<std::size_t>(
                            ev.metrics.labeled_steps, 1)));
    }
    return ev.reports.empty() ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    return eddie::tools::runTool("eddie_monitor",
                                 [&] { return run(argc, argv); });
}
