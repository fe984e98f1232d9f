/**
 * @file
 * eddie_replay — stream STS windows into a listening eddie_serve over
 * the EDDIEWIRE protocol (DESIGN.md §11). The sender half of the wire
 * ingestion path: it survives disconnects with capped-exponential
 * backoff and replays from the server's last ACK, so delivery is
 * exactly-once in-order end to end.
 *
 *   eddie_replay (--capture FILE | --workload NAME)
 *       (--connect HOST:PORT | --connect-pipe PATH)
 *       [--tenant ID] [--session N] [--batch N]
 *       [--scale S] [--seed N] [--inject loop|burst] [--payload N]
 *       [--contamination R] [--target REGION]
 *       [--chaos-seed N] [--tear-prob P] [--disconnect-prob P]
 *       [--duplicate-prob P] [--reorder-prob P] [--corrupt-prob P]
 *       [--hostile-prob P]
 *
 * --capture streams a saved "EDDIESTS" stream file (eddie_capture's
 * --sts output or any saveStsStream artifact); --workload captures a
 * synthetic run in-process first (same pipeline flags as
 * eddie_serve). --chaos-seed arms deterministic byte-level fault
 * injection — torn frames, forced disconnects, duplicated and
 * skip-ahead replays, corrupted bytes, hostile length fields — with
 * the standard chaos mix unless individual --*-prob flags override
 * it; the server must reject every faulted frame and still converge
 * on bit-identical verdicts.
 *
 * Exit codes: 0 delivered in full, 2 usage, 6 the stream could not be
 * delivered (fatal NACK, attempts exhausted).
 */

#include <cstdio>
#include <memory>
#include <string>

#include "run_flags.h"
#include "serve/sample_source.h"
#include "serve/wire_client.h"
#include "signal_util.h"

using namespace eddie;

namespace
{

int
run(int argc, char **argv)
{
    tools::Args args(argc, argv,
                     {"capture", "workload", "connect", "connect-pipe",
                      "tenant", "session", "batch", "scale", "seed",
                      "inject", "payload", "contamination", "target",
                      "chaos-seed", "tear-prob", "disconnect-prob",
                      "duplicate-prob", "reorder-prob", "corrupt-prob",
                      "hostile-prob"});
    const std::string capture = args.get("capture");
    const std::string workload_name = args.get("workload");
    const std::string tcp = args.get("connect");
    const std::string pipe = args.get("connect-pipe");
    if (!args.positional().empty() ||
        (capture.empty() == workload_name.empty()) ||
        (tcp.empty() == pipe.empty())) {
        std::fprintf(
            stderr,
            "usage: eddie_replay (--capture FILE | --workload NAME) "
            "(--connect HOST:PORT | --connect-pipe PATH)\n"
            "       [--tenant ID] [--session N] [--batch N] "
            "[--scale S] [--seed N]\n"
            "       [--inject loop|burst] [--payload N] "
            "[--contamination R] [--target REGION]\n"
            "       [--chaos-seed N] [--tear-prob P] "
            "[--disconnect-prob P] [--duplicate-prob P]\n"
            "       [--reorder-prob P] [--corrupt-prob P] "
            "[--hostile-prob P]\n");
        return 2;
    }

    tools::ignoreSigpipe();
    tools::handleStopSignals();

    std::unique_ptr<serve::SampleSource> source;
    if (!capture.empty()) {
        source = std::make_unique<serve::StsFileSource>(capture);
    } else {
        auto captured = tools::capturedRun(args, workload_name);
        core::Pipeline pipe_cfg(std::move(captured.workload),
                                core::PipelineConfig{});
        source = std::make_unique<serve::VectorSource>(
            pipe_cfg.captureRunShared(captured.seed, captured.plan));
    }

    serve::WireClientConfig cfg;
    cfg.tcp = tcp;
    cfg.unix_path = pipe;
    cfg.tenant = args.get("tenant", "default");
    cfg.session = std::uint64_t(args.getLong("session", 1));
    cfg.batch_windows =
        std::max<std::size_t>(args.getCount("batch", 32), 1);
    if (args.has("chaos-seed")) {
        cfg.chaos.seed = std::uint64_t(args.getLong("chaos-seed", 1));
        cfg.chaos.tear_prob = args.getDouble("tear-prob", 0.05);
        cfg.chaos.disconnect_prob =
            args.getDouble("disconnect-prob", 0.05);
        cfg.chaos.duplicate_prob =
            args.getDouble("duplicate-prob", 0.05);
        cfg.chaos.reorder_prob = args.getDouble("reorder-prob", 0.04);
        cfg.chaos.corrupt_prob = args.getDouble("corrupt-prob", 0.04);
        cfg.chaos.hostile_len_prob =
            args.getDouble("hostile-prob", 0.03);
    }

    serve::WireClient client(cfg);
    const serve::WireClientReport rep = client.stream(*source);

    std::printf(
        "replay: %s; %llu windows in %llu batches (%llu bytes), "
        "%llu connects (%llu reconnects), %llu windows replayed, "
        "%llu nacks\n",
        rep.delivered_all ? "delivered" : "FAILED",
        (unsigned long long)rep.windows_sent,
        (unsigned long long)rep.batches_sent,
        (unsigned long long)rep.bytes_sent,
        (unsigned long long)rep.connects,
        (unsigned long long)rep.reconnects,
        (unsigned long long)rep.windows_replayed,
        (unsigned long long)rep.nacks_received);
    if (rep.torn_frames + rep.forced_disconnects +
            rep.duplicate_batches + rep.reordered_batches +
            rep.corrupted_frames + rep.hostile_lengths >
        0)
        std::printf("chaos: %llu torn, %llu disconnects, "
                    "%llu duplicates, %llu reorders, %llu corrupt, "
                    "%llu hostile lengths\n",
                    (unsigned long long)rep.torn_frames,
                    (unsigned long long)rep.forced_disconnects,
                    (unsigned long long)rep.duplicate_batches,
                    (unsigned long long)rep.reordered_batches,
                    (unsigned long long)rep.corrupted_frames,
                    (unsigned long long)rep.hostile_lengths);
    if (!rep.delivered_all) {
        std::fprintf(stderr, "eddie_replay: %s\n", rep.error.c_str());
        return 6;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return eddie::tools::runTool("eddie_replay",
                                 [&] { return run(argc, argv); });
}
