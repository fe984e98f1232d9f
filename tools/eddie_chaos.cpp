/**
 * @file
 * eddie_chaos — deterministic chaos soak for the multi-tenant fleet
 * runtime (serve/chaos.h).
 *
 *   eddie_chaos [--seed N | --seeds N [--first F]]
 *       [--tenants T] [--sessions S] [--steps W]
 *       [--kill-prob P] [--hang-prob P] [--budget N]
 *       [--dir DIR] [--keep]
 *       [--workers M] [--wire] [--require-all-fates]
 *
 * Each seed runs the full scenario: a faulted fleet run (worker
 * kills/hangs on the victim tenant, starvation), a
 * torn-commit resume, and a corrupt-snapshot resume, asserting that
 * healthy tenants' verdicts stay bit-identical to a clean serial run,
 * restarts stay inside the victim's budget, and recovery from the
 * shared checkpoint archive is clean. Every phase runs on the
 * fair-share scheduler; --workers M fixes its worker pool (default: min(hardware
 * threads, sessions)). --wire adds phase W: every session streams
 * over a live socket (TCP loopback or AF_UNIX, by seed) through a
 * WireListener whose receive windows hold 2 windows (queue overflow),
 * with the client injecting byte-level faults — torn frames,
 * mid-batch disconnects, duplicate/skip-ahead replays, corrupted
 * bytes, hostile length fields — and the harness asserting the wire
 * verdicts stay bit-identical to the serial run anyway.
 * --require-all-fates additionally demands that every fate class
 * actually fired somewhere in the grid (the acceptance bar for the CI
 * soak); with --wire queue overflow and the wire fate classes join
 * the required set.
 *
 * Exit codes: 0 clean, 2 usage, 3 invariant violations, 4 a required
 * fate class never fired.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "serve/chaos.h"
#include "tool_util.h"

using namespace eddie;

namespace
{

int
run(int argc, char **argv)
{
    tools::Args args(argc, argv,
                     {"seed", "seeds", "first", "tenants", "sessions",
                      "steps", "kill-prob", "hang-prob", "budget", "dir",
                      "keep", "workers", "wire", "require-all-fates"});
    if (!args.positional().empty()) {
        std::fprintf(
            stderr,
            "usage: eddie_chaos [--seed N | --seeds N [--first F]] "
            "[--tenants T] [--sessions S]\n"
            "       [--steps W] [--kill-prob P] [--hang-prob P] "
            "[--budget N]\n"
            "       [--dir DIR] [--keep] [--workers M] [--wire] "
            "[--require-all-fates]\n");
        return 2;
    }

    // --seed N is the one-seed grid starting at N.
    const bool one = args.has("seed");
    const long grid =
        one ? 1L : long(std::max<std::size_t>(args.getCount("seeds", 1), 1));
    const long first =
        one ? args.getLong("seed", 1) : args.getLong("first", 1);

    serve::ChaosConfig base;
    base.tenants = std::max<std::size_t>(args.getCount("tenants", 3), 2);
    base.sessions_per_tenant =
        std::max<std::size_t>(args.getCount("sessions", 1), 1);
    base.stream_len =
        std::max<std::size_t>(args.getCount("steps", 160), 16);
    base.kill_prob = args.getDouble("kill-prob", base.kill_prob);
    base.hang_prob = args.getDouble("hang-prob", base.hang_prob);
    base.restart_budget = std::max<std::size_t>(
        args.getCount("budget", base.restart_budget), 1);
    base.workers = args.getCount("workers", 0);
    if (args.has("wire")) {
        base.wire_phase = true;
        // Every wire fate class on, hot enough that a modest grid
        // exercises each (the per-sequence cap bounds the damage).
        base.wire.tear_prob = 0.05;
        base.wire.disconnect_prob = 0.05;
        base.wire.duplicate_prob = 0.05;
        base.wire.reorder_prob = 0.04;
        base.wire.corrupt_prob = 0.04;
        base.wire.hostile_len_prob = 0.03;
    }

    // Scratch root: --dir or a fresh mkdtemp under the system tmpdir.
    std::string root = args.get("dir");
    bool made_root = false;
    if (root.empty()) {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "eddie_chaos")
                .string() +
            ".XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (::mkdtemp(buf.data()) == nullptr) {
            std::fprintf(stderr,
                         "eddie_chaos: cannot create scratch dir\n");
            return 1;
        }
        root = buf.data();
        made_root = true;
    } else {
        std::filesystem::create_directories(root);
    }

    serve::ChaosReport total;
    std::size_t failed_seeds = 0;
    for (long i = 0; i < grid; ++i) {
        serve::ChaosConfig cfg = base;
        cfg.seed = std::uint64_t(first + i);
        cfg.dir = root + "/s" + std::to_string(cfg.seed);
        std::filesystem::create_directories(cfg.dir);

        const serve::ChaosReport rep = serve::runChaos(cfg);
        std::printf("seed %llu: %s\n",
                    static_cast<unsigned long long>(cfg.seed),
                    serve::describe(rep).c_str());
        for (const std::string &v : rep.violations)
            std::printf("  VIOLATION: %s\n", v.c_str());
        if (!rep.ok)
            ++failed_seeds;

        total.kills += rep.kills;
        total.hangs += rep.hangs;
        total.blocked_pushes += rep.blocked_pushes;
        total.windows_throttled += rep.windows_throttled;
        total.windows_shed += rep.windows_shed;
        total.torn_bytes += rep.torn_bytes;
        total.corrupted_snapshots += rep.corrupted_snapshots;
        total.restarts += rep.restarts;
        total.breaker_trips += rep.breaker_trips;
        total.escalations += rep.escalations;
        total.snapshot_decode_failures += rep.snapshot_decode_failures;
        total.healthy_sessions_checked += rep.healthy_sessions_checked;
        total.wire_torn_frames += rep.wire_torn_frames;
        total.wire_disconnects += rep.wire_disconnects;
        total.wire_duplicates += rep.wire_duplicates;
        total.wire_reorders += rep.wire_reorders;
        total.wire_corrupt_frames += rep.wire_corrupt_frames;
        total.wire_hostile_lengths += rep.wire_hostile_lengths;
        total.wire_reconnects += rep.wire_reconnects;
        total.wire_nacks += rep.wire_nacks;
        total.wire_windows_replayed += rep.wire_windows_replayed;
        total.wire_malformed += rep.wire_malformed;
        total.wire_duplicates_dropped += rep.wire_duplicates_dropped;
        total.wire_sessions_checked += rep.wire_sessions_checked;
    }

    if (!args.has("keep") && made_root) {
        std::error_code ec;
        std::filesystem::remove_all(root, ec);
    } else {
        std::printf("scratch kept at %s\n", root.c_str());
    }

    std::printf("soak: %ld seeds, %zu failed; %s\n", grid,
                failed_seeds, serve::describe(total).c_str());
    if (failed_seeds > 0)
        return 3;

    if (args.has("require-all-fates")) {
        struct FateClass
        {
            const char *fate;
            std::uint64_t count;
        };
        std::vector<FateClass> classes = {
            {"worker-kill", total.kills},
            {"worker-hang", total.hangs},
            {"starvation-throttle", total.windows_throttled},
            {"starvation-shed", total.windows_shed},
            {"torn-commit", total.torn_bytes},
            {"corrupt-checkpoint", total.corrupted_snapshots},
        };
        if (args.has("wire")) {
            // The wire receive window is the engine's only queue, so
            // its overflow fate fires in phase W.
            classes.push_back({"queue-overflow", total.blocked_pushes});
            classes.push_back({"wire-tear", total.wire_torn_frames});
            classes.push_back(
                {"wire-disconnect", total.wire_disconnects});
            classes.push_back(
                {"wire-duplicate", total.wire_duplicates});
            classes.push_back({"wire-reorder", total.wire_reorders});
            classes.push_back(
                {"wire-corrupt", total.wire_corrupt_frames});
            classes.push_back(
                {"wire-hostile-length", total.wire_hostile_lengths});
            classes.push_back(
                {"wire-reconnect", total.wire_reconnects});
            classes.push_back(
                {"wire-malformed-rejected", total.wire_malformed});
        }
        bool missing = false;
        for (const FateClass &c : classes) {
            if (c.count == 0) {
                std::printf("fate class never exercised: %s\n",
                            c.fate);
                missing = true;
            }
        }
        if (missing)
            return 4;
        std::printf("all fate classes exercised\n");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return eddie::tools::runTool("eddie_chaos",
                                 [&] { return run(argc, argv); });
}
