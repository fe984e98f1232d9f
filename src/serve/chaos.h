/**
 * @file
 * Deterministic chaos harness for the fleet runtime (DESIGN.md §9.4).
 *
 * runChaos() builds a synthetic multi-tenant fleet (one victim tenant,
 * N-1 healthy neighbors), drives it through a seeded schedule of
 * serve-layer fates, and checks the isolation invariants the tenant
 * layer promises:
 *
 *  - healthy tenants' verdicts are bit-identical to a clean serial
 *    run of the same streams (records AND reports);
 *  - restart counts stay inside the victim's budget and healthy
 *    tenants' breakers never trip;
 *  - recovery from disk is clean after a torn group commit (every
 *    session replays to the full-stream verdicts) and after a corrupt
 *    victim snapshot (the victim is isolated via
 *    FaultClass::CheckpointDecode, neighbors resume untouched).
 *
 * The fate stream is pure state over the seed — stepFate(cfg, session,
 * step, attempt) hashes its arguments through faults::fateMix, the
 * same finalizer behind faults::pullFate — so any failing seed replays
 * exactly, with no recorded schedule to ship around. Attempts are
 * capped like SourceFaultConfig::max_consecutive: a step that killed
 * the worker delivers after max_consecutive replays, so chaos delays
 * progress but cannot livelock a session inside its restart budget.
 *
 * Fates composed per run (each independently switchable):
 *   worker kill / hang mid-interval  -> FleetStepHook on the victim
 *   queue overflow                   -> tiny victim queue + byte quota
 *   slow-tenant starvation           -> victim STS/s quota
 *                                       (Throttle or Shed by seed)
 *   torn group commit                -> archive tail truncation +
 *                                       resume
 *   corrupt tenant checkpoint        -> byte flip in the victim's
 *                                       snapshot + resume
 *   hostile wire traffic (phase W)   -> WireClient byte-level chaos
 *                                       against a live WireListener
 */

#ifndef EDDIE_SERVE_CHAOS_H
#define EDDIE_SERVE_CHAOS_H

#include <cstdint>
#include <string>
#include <vector>

#include "tenant.h"
#include "wire_client.h"

namespace eddie::serve
{

/** Which fate classes this run composes. All on by default. */
struct ChaosFates
{
    bool worker_kill = true;
    bool worker_hang = true;
    /** Tiny victim queue (capacity 2 + byte quota): exercises Block
     *  backpressure under chaos without breaking bit-identity. */
    bool queue_overflow = true;
    /** Victim STS/s quota; Throttle or Shed chosen by the seed so
     *  both postures appear across a seed grid. */
    bool starvation = true;
    /** Truncate the tail of the checkpoint archive, then resume. */
    bool torn_commit = true;
    /** Flip bytes in the victim's live snapshot payload inside the
     *  shared archive, then resume. The harness checks that the flip
     *  hit the victim's snapshot and no neighbor's. */
    bool corrupt_checkpoint = true;
};

struct ChaosConfig
{
    std::uint64_t seed = 1;
    /** Tenants in the fleet; index 0 is the victim. Must be >= 2 so
     *  isolation is observable. */
    std::size_t tenants = 3;
    std::size_t sessions_per_tenant = 1;
    /** Windows per session stream. */
    std::size_t stream_len = 160;
    /** Per-step fate probabilities on the victim's sessions. */
    double kill_prob = 0.02;
    double hang_prob = 0.01;
    /** Faulted replays tolerated per (session, step) before the step
     *  is forced to deliver (see file comment). */
    std::uint64_t max_consecutive = 2;
    /** Victim restart budget (shared across its sessions). */
    std::size_t restart_budget = 6;
    double restart_window_ms = 60000.0;
    /** Victim breaker: WorkerFaults in the window that trip it. */
    std::size_t fault_threshold = 4;
    /** Scratch directory for checkpoint artifacts. Empty = in-memory
     *  checkpoints only; the disk fates (torn_commit,
     *  corrupt_checkpoint) are skipped. */
    std::string dir;
    ChaosFates fates;
    /** Watchdog tuning (short deadlines keep hang fates cheap). */
    double heartbeat_deadline_ms = 40.0;
    double poll_interval_ms = 2.0;
    /** Monitor steps between delta cuts. */
    std::size_t checkpoint_interval = 8;
    std::size_t full_snapshot_every = 4;
    /** Scheduler worker threads every phase runs on; 0 = the
     *  engine's default, min(hardware threads, sessions). */
    std::size_t workers = 0;

    /** Phase W: stream every session over the wire (TCP loopback, or
     *  the AF_UNIX transport by seed when dir is set) through a
     *  WireListener/WireClient pair, with the client injecting
     *  byte-level faults per `wire` — torn frames, mid-batch
     *  disconnects, duplicate and skip-ahead replays, corrupted
     *  bytes, hostile length fields. The invariant is the tentpole
     *  claim: verdicts stay bit-identical to the serial run anyway. */
    bool wire_phase = false;
    /** Fault mix of phase W clients (`seed` is ignored — each client
     *  draws its own fate stream from the run seed). */
    WireChaosConfig wire;
};

/** Per-step fate on a victim session. */
enum class StepFate
{
    None,
    Kill,
    Hang,
};

/**
 * The replayable fate stream: fate of the @p attempt-th try at step
 * @p step of session @p session. Pure in its arguments (hashes them
 * through faults::fateMix with cfg.seed), so harness, tests, and a
 * human replaying a failure all see the same schedule. Sessions of
 * healthy tenants always draw None (the caller filters; this function
 * is victim-agnostic).
 */
StepFate stepFate(const ChaosConfig &cfg, std::size_t session,
                  std::size_t step, std::uint64_t attempt);

/** Everything one chaos run observed. ok == violations.empty(). */
struct ChaosReport
{
    bool ok = true;
    /** Human-readable invariant violations (empty on a clean run). */
    std::vector<std::string> violations;

    /** Fate-class exercise counters (a seed-grid soak sums these to
     *  prove every class actually fired). */
    std::uint64_t kills = 0;
    std::uint64_t hangs = 0;
    std::uint64_t blocked_pushes = 0;
    std::uint64_t windows_throttled = 0;
    std::uint64_t windows_shed = 0;
    std::uint64_t torn_bytes = 0;
    std::uint64_t corrupted_snapshots = 0;

    /** Supervision outcomes across the phases. */
    std::uint64_t restarts = 0;
    std::uint64_t breaker_trips = 0;
    std::uint64_t escalations = 0;
    std::uint64_t snapshot_decode_failures = 0;
    /** The victim ended isolated (breaker or budget) in the faulted
     *  phase; false is fine when the fate draw was gentle. */
    bool victim_isolated = false;
    /** Healthy sessions whose verdicts were checked bit-identical. */
    std::size_t healthy_sessions_checked = 0;

    /** Phase W fate-exercise counters (client-side injection tallies;
     *  a seed grid sums these to prove every wire fate fired). */
    std::uint64_t wire_torn_frames = 0;
    std::uint64_t wire_disconnects = 0;
    std::uint64_t wire_duplicates = 0;
    std::uint64_t wire_reorders = 0;
    std::uint64_t wire_corrupt_frames = 0;
    std::uint64_t wire_hostile_lengths = 0;
    /** Phase W transport/recovery outcomes. */
    std::uint64_t wire_reconnects = 0;
    std::uint64_t wire_nacks = 0;
    std::uint64_t wire_windows_replayed = 0;
    /** Listener-side taxonomy: malformed frames rejected (summed
     *  WireStats buckets) and duplicate windows dropped. */
    std::uint64_t wire_malformed = 0;
    std::uint64_t wire_duplicates_dropped = 0;
    /** Wire sessions whose verdicts were checked bit-identical. */
    std::size_t wire_sessions_checked = 0;
};

/**
 * Runs the full chaos scenario for one seed: a faulted fleet run
 * (phase A), a torn-commit resume (phase B), and a corrupt-snapshot
 * resume (phase C; B and C need cfg.dir). Throws core::Error on
 * configuration errors; invariant violations land in the report, not
 * as exceptions.
 */
ChaosReport runChaos(const ChaosConfig &cfg);

/** One-line summary (tools, CI logs). */
std::string describe(const ChaosReport &report);

/**
 * XOR-flips 8 bytes in the middle of @p key's live value inside the
 * archive at @p path, found through Archive::valueExtent. Value bytes
 * are covered by the archive's per-sector CRCs, so the next get() of
 * the key reads Corrupt and every other artifact stays intact. False
 * when the key is not live or its value is under 8 bytes. Phase C's
 * snapshot corruption; tests use it on purpose too.
 */
bool corruptArchiveValue(const std::string &path, const std::string &key);

} // namespace eddie::serve

#endif // EDDIE_SERVE_CHAOS_H
