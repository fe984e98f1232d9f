/**
 * @file
 * Crash-consistent checkpoints of running monitors (DESIGN.md §7).
 *
 * Two framed formats, both in the one byte codec's framing
 * (common/bytes.h: magic, u32 version, u64 payload length, payload,
 * CRC-32 of the payload):
 *
 *  - A *group snapshot* (magic "EDDIECKP", version 2) holds an epoch
 *    number and every shard's source position plus its complete
 *    core::MonitorState.
 *  - A *delta segment* (magic "EDDIEDLT") is one group commit: the
 *    epoch it chains onto plus every shard's core::MonitorStateDelta
 *    since its previous cut.
 *
 * On disk both live as keyed segments of ONE EDDIEARC container
 * (store/archive.h): "<prefix>ckpt/snap" holds the snapshot image and
 * "<prefix>ckpt/dlt/<n>" one delta segment each. CheckpointStore owns
 * a key prefix in that container plus an in-memory full-state mirror
 * per shard (what the supervisor restarts crashed workers from).
 * Recovery loads the snapshot, replays the delta segments onto it,
 * and — on a corrupt or chain-broken segment — falls back to the
 * state reconstructed so far, counting the fallback. Resume from any
 * delta chain is bit-identical to resume from a full snapshot at the
 * same cut (property-tested in tests/serve).
 */

#ifndef EDDIE_SERVE_CHECKPOINT_H
#define EDDIE_SERVE_CHECKPOINT_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "store/archive.h"

namespace eddie::serve
{

/** Everything resume needs: where the source was, and the monitor's
 *  full mutable state at that point. */
struct CheckpointData
{
    /** Next item the source will deliver (== windows processed, since
     *  a window is checkpointed only after its step completed). */
    std::uint64_t source_pos = 0;
    core::MonitorState monitor;
};

/** All shards' full states at one cut, plus the epoch that names the
 *  delta chain anchored on it. */
struct GroupCheckpoint
{
    std::uint64_t epoch = 0;
    std::vector<CheckpointData> shards;
};

/** One shard's delta within a group commit. */
struct DeltaEntry
{
    std::uint64_t shard = 0;
    core::MonitorStateDelta delta;
};

/** One group commit: the value of one delta key. */
struct DeltaSegment
{
    /** Epoch of the full snapshot this segment chains onto; replay
     *  skips segments from other epochs. */
    std::uint64_t epoch = 0;
    std::vector<DeltaEntry> entries;
};

/** One framed group snapshot (magic "EDDIECKP", version 2): the epoch,
 *  the shard count, then each shard's source position and full
 *  monitor state. */
std::string encodeGroupCheckpoint(const GroupCheckpoint &group);

/**
 * Decodes encodeGroupCheckpoint() bytes, which must fill
 * [data, data + size) exactly. Throws IoError when the bytes end
 * before the frame or a field does, FormatError on any other magic or
 * version, a CRC mismatch, trailing bytes, or a count (shards, gate
 * energies, history rows, reports, records) that the bytes left
 * cannot hold; such a count is refused before anything is allocated
 * for it, so a CRC-valid but lying snapshot is a typed error, never
 * an out-of-memory abort.
 */
GroupCheckpoint decodeGroupCheckpoint(const char *data, std::size_t size);

/** One framed delta segment (magic "EDDIEDLT", version 1): the epoch
 *  and each entry's shard id and core::MonitorStateDelta. */
std::string encodeDeltaSegment(const DeltaSegment &seg);

/** Decodes encodeDeltaSegment() bytes, with the throw contract of
 *  decodeGroupCheckpoint(). */
DeltaSegment decodeDeltaSegment(const char *data, std::size_t size);

/**
 * The one on-disk checkpoint layout: every store of a run keys into
 * one EDDIEARC container at checkpointArchivePath(checkpoint_path),
 * each tenant under tenantKeyPrefix(tenant_id). kRunTenant is the
 * tenant of a single-stream run (eddie_serve's workload mode), so a
 * store written under tenantKeyPrefix(kRunTenant), as eddie_monitor
 * --checkpoint writes it, is what such a run resumes from.
 */
std::string checkpointArchivePath(const std::string &checkpoint_path);
std::string tenantKeyPrefix(const std::string &tenant_id);
inline constexpr char kRunTenant[] = "run";
/** Key of the group snapshot of the store under @p key_prefix. */
std::string snapshotKey(const std::string &key_prefix);

/** CheckpointStore knobs. */
struct CheckpointStoreConfig
{
    std::size_t num_shards = 1;
    /** Group commits between full-snapshot rewrites (chain length
     *  bound — recovery replays at most this many segments). */
    std::size_t full_every = 16;
    /**
     * Key namespace of this store inside the archive: keys become
     * "<key_prefix>ckpt/snap" and "<key_prefix>ckpt/dlt/<n>". This is
     * the per-tenant fault domain of the fleet runtime — every
     * tenant's store writes its own prefix (tenantKeyPrefix()) into
     * one shared container, and a snapshot rewrite removes only the
     * delta keys under its own prefix, so one tenant's checkpoint rot
     * or rewrite can never disturb a neighbor's chain.
     */
    std::string key_prefix;
    /** Non-owned container the keys live in; nullptr keeps the
     *  mirrors in memory only (no persistence). The caller guarantees
     *  the archive outlives the store. */
    store::Archive *archive = nullptr;
};

/** Counters surfaced into core::ServeStats. */
struct CheckpointStoreStats
{
    std::uint64_t group_commits = 0;
    std::uint64_t full_snapshots = 0;
    std::uint64_t delta_bytes = 0;
    /** Deltas that did not apply: a corrupt or chain-broken segment
     *  that stopped a recover() replay, or a submitted delta that did
     *  not chain onto its shard's cut (the shard keeps its last good
     *  cut and the next flush rewrites the snapshot). */
    std::uint64_t delta_fallbacks = 0;
    std::uint64_t delta_segments_dropped = 0;
    /** Failed commits and compactions, swallowed (durability
     *  degraded, serving continues; the next flush rewrites the
     *  snapshot). */
    std::uint64_t write_failures = 0;
    /**
     * A snapshot that *exists* failed to decode during recover() —
     * corruption, not absence (a missing snapshot is a cold start and
     * counts nothing). The fleet runtime's circuit breaker treats
     * this as FaultClass::CheckpointDecode for the owning tenant.
     */
    std::uint64_t snapshot_decode_failures = 0;
};

/**
 * The group-committed checkpoint pipeline. Workers submit deltas (or
 * full states) as they cut them — one move into a queue — and the
 * supervisor's watchdog calls flush() once per poll. A flush takes
 * the queue, applies each delta once to its shard's mirror (so the
 * mirrors are current as of the last flush, and are what a restart
 * reads), and lands the deltas as one archive group commit. Every
 * full_every commits (and whenever a full submit re-anchored a
 * shard's chain) it instead rewrites the group snapshot from the
 * mirrors and drops its delta keys in that one commit, then compacts
 * the archive if its dead bytes have come to exceed three times its
 * live ones. Thread-safe.
 */
class CheckpointStore
{
  public:
    explicit CheckpointStore(const CheckpointStoreConfig &cfg);

    /**
     * Best-effort recovery from the archive: loads the group snapshot
     * and replays matching-epoch delta segments onto it. A corrupt or
     * chain-broken segment stops the replay at the last good state
     * (fallbacks counted). Returns per-shard recovery flags;
     * recovered states are read back via mirror().
     */
    std::vector<bool> recover();

    /** Replaces @p shard's mirror wholesale, re-anchoring its chain:
     *  the next flush rewrites the full snapshot. */
    void submitFull(std::size_t shard, CheckpointData ckpt);

    /** Queues @p delta for the next flush. This is the worker hot
     *  path: one move into the queue. Deltas for one shard must chain
     *  (each base_step matching the previous cut); one that does not
     *  is counted in delta_fallbacks by the flush that takes it. */
    void submitDelta(std::size_t shard, core::MonitorStateDelta delta);

    /** The shard's full state at its newest cut: its mirror plus a
     *  replay of its deltas still queued, up to the first that does
     *  not apply. */
    CheckpointData mirror(std::size_t shard);

    /** Group commit: takes and applies the queued deltas, then lands
     *  them as one keyed segment, or rewrites the full snapshot
     *  instead when due. Returns false when an I/O failure was
     *  swallowed or the flush skipped its write to back off from one
     *  (its deltas still reach the mirrors; @p last never skips); a
     *  later flush then rewrites the snapshot. */
    bool flush(bool last = false);

    CheckpointStoreStats stats() const;

  private:
    /** Compacts the archive once its dead bytes exceed three times
     *  its live ones; false on a failed compaction (counted, file
     *  untouched). */
    bool reclaimDeadSpace();
    /** Archive keys under this store's namespace prefix. */
    std::string deltaPrefixStr() const;
    std::string deltaKeyStr(std::uint64_t n) const;
    /** Applies one decoded delta segment transactionally onto the
     *  mirrors; false = damaged (bad shard or broken chain). */
    bool applySegmentLocked(const DeltaSegment &seg);

    /** cfg_.archive's own lock nests inside io_mu_ and mu_ and it
     *  never calls back, so the lock order is acyclic. */
    CheckpointStoreConfig cfg_;
    mutable std::mutex mu_;
    /** Serializes flush() callers, so segments land in the order their
     *  deltas were taken. Encoding and the archive write happen under
     *  this lock alone, so submitDelta (which needs only mu_) never
     *  waits behind them. */
    std::mutex io_mu_;
    /** Per-shard state as of the last flush or submitFull. */
    std::vector<CheckpointData> mirrors_;
    /** Deltas submitted since the last flush took the queue. */
    std::vector<DeltaEntry> pending_;
    std::uint64_t epoch_ = 0;
    std::size_t commits_since_full_ = 0;
    bool full_dirty_ = true; ///< next flush must rewrite the snapshot
    /** Flushes between write attempts; 1 until a write fails. */
    std::size_t retry_gap_ = 1;
    /** Flushes left that apply their deltas but skip the write. */
    std::size_t flushes_to_skip_ = 0;
    /** Key number of the next delta segment ("ckpt/dlt/<n>"); reset
     *  by each snapshot rewrite (which removes the delta keys). */
    std::uint64_t next_delta_key_ = 0;
    CheckpointStoreStats stats_;
};

} // namespace eddie::serve

#endif // EDDIE_SERVE_CHECKPOINT_H
