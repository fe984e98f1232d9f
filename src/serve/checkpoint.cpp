#include "checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/bytes.h"
#include "core/errors.h"

namespace eddie::serve
{

namespace
{

constexpr char kMagic[8] = {'E', 'D', 'D', 'I', 'E', 'C', 'K', 'P'};
constexpr char kDeltaMagic[8] = {'E', 'D', 'D', 'I',
                                 'E', 'D', 'L', 'T'};
constexpr std::uint32_t kGroupVersion = 2; ///< epoch + all shards
constexpr std::uint32_t kDeltaVersion = 1; ///< delta segment

/** Smallest encodings, the divisors of the bytes-left rule. A full
 *  state is seven u64 scalars, the resync flag, the degraded block and
 *  five u64 counts and widths; a delta entry is the shard id, seven
 *  u64 scalars, the flag, the degraded block and nine u64 counts,
 *  widths and history and rewrite indices. */
constexpr std::size_t kDegradedBytes = 8 * (4 + core::kNumWindowQualities);
constexpr std::size_t kMinStateBytes = 8 * 7 + 1 + kDegradedBytes + 8 * 5;
constexpr std::size_t kMinEntryBytes =
    8 + 8 * 7 + 1 + kDegradedBytes + 8 * 9;
constexpr std::size_t kReportBytes = 8 + 8 + 8;
constexpr std::size_t kRecordBytes = 8 + 1;

/** Archive keys: the snapshot image and the numbered delta segments
 *  ("ckpt/dlt/00000000", …; zero-padded so the archive's
 *  lexicographic key order IS replay order). */
constexpr const char *kSnapKey = "ckpt/snap";
constexpr const char *kDeltaPrefix = "ckpt/dlt/";

std::string
deltaKey(std::uint64_t n)
{
    char key[32];
    std::snprintf(key, sizeof key, "%s%08llu", kDeltaPrefix,
                  static_cast<unsigned long long>(n));
    return key;
}

/** StepRecord flag bits (u8 in the payload). */
constexpr std::uint8_t kTested = 1 << 0;
constexpr std::uint8_t kRejected = 1 << 1;
constexpr std::uint8_t kReported = 1 << 2;
constexpr std::uint8_t kTransitioned = 1 << 3;
constexpr std::uint8_t kDegraded = 1 << 4;

// The field codec of the sections a full state and a delta share.
// Each count is refused before allocating when the bytes left cannot
// hold its items.

using common::ByteReader;
using common::ByteWriter;

void
putDegraded(ByteWriter &w, const core::DegradedStats &d)
{
    w.put<std::uint64_t>(d.quarantined);
    w.put<std::uint64_t>(d.outages);
    w.put<std::uint64_t>(d.resyncs);
    w.put<std::uint64_t>(d.longest_outage);
    for (std::size_t kind : d.by_kind)
        w.put<std::uint64_t>(kind);
}

void
getDegraded(ByteReader &r, core::DegradedStats &d)
{
    d.quarantined = r.get<std::uint64_t>("quarantined count");
    d.outages = r.get<std::uint64_t>("outage count");
    d.resyncs = r.get<std::uint64_t>("resync count");
    d.longest_outage = r.get<std::uint64_t>("longest outage");
    for (std::size_t &kind : d.by_kind)
        kind = r.get<std::uint64_t>("quarantine kind count");
}

void
putEnergies(ByteWriter &w, const std::vector<double> &energies)
{
    w.put<std::uint64_t>(energies.size());
    w.array(energies.data(), energies.size());
}

void
getEnergies(ByteReader &r, std::vector<double> &energies)
{
    const std::size_t n = r.items("gate energy", common::kAnyCount, 8);
    r.array(energies, n, "gate energies");
}

/** History rows as a row count, a width and rows x width doubles
 *  (short rows padded with 0). */
void
putRows(ByteWriter &w, const std::vector<std::vector<double>> &rows)
{
    const std::uint64_t width = rows.empty() ? 0 : rows.front().size();
    w.put<std::uint64_t>(rows.size());
    w.put(width);
    for (const auto &row : rows)
        for (std::size_t p = 0; p < width; ++p)
            w.put<double>(p < row.size() ? row[p] : 0.0);
}

void
getRows(ByteReader &r, std::vector<std::vector<double>> &rows,
        const char *row_what, const char *width_what)
{
    const std::uint64_t n = r.get<std::uint64_t>(row_what);
    const std::uint64_t width = r.get<std::uint64_t>(width_what);
    // A zero-width row holds no bytes, so the row count is bounded by
    // the bytes left on its own (fits() counts an empty item as one
    // byte) rather than by dividing them by the width.
    if (n > 0) {
        r.fits(width_what, width, 8);
        r.fits(row_what, n, width * 8);
    }
    rows.resize(std::size_t(n));
    for (auto &row : rows)
        r.array(row, width, "history values");
}

void
putReports(ByteWriter &w, const std::vector<core::AnomalyReport> &reports)
{
    w.put<std::uint64_t>(reports.size());
    for (const auto &rep : reports) {
        w.put<std::uint64_t>(rep.step);
        w.put(rep.time);
        w.put<std::uint64_t>(rep.region);
    }
}

void
getReports(ByteReader &r, std::vector<core::AnomalyReport> &reports)
{
    reports.resize(r.items("report", common::kAnyCount, kReportBytes));
    for (auto &rep : reports) {
        rep.step = r.get<std::uint64_t>("report step");
        rep.time = r.get<double>("report time");
        rep.region = r.get<std::uint64_t>("report region");
    }
}

void
putRecords(ByteWriter &w, const std::vector<core::StepRecord> &records)
{
    w.put<std::uint64_t>(records.size());
    for (const auto &rec : records) {
        w.put<std::uint64_t>(rec.region);
        w.put<std::uint8_t>((rec.tested ? kTested : 0) |
                            (rec.rejected ? kRejected : 0) |
                            (rec.reported ? kReported : 0) |
                            (rec.transitioned ? kTransitioned : 0) |
                            (rec.degraded ? kDegraded : 0));
    }
}

void
getRecords(ByteReader &r, std::vector<core::StepRecord> &records)
{
    records.resize(r.items("record", common::kAnyCount, kRecordBytes));
    for (auto &rec : records) {
        rec.region = r.get<std::uint64_t>("record region");
        const auto flags = r.get<std::uint8_t>("record flags");
        rec.tested = (flags & kTested) != 0;
        rec.rejected = (flags & kRejected) != 0;
        rec.reported = (flags & kReported) != 0;
        rec.transitioned = (flags & kTransitioned) != 0;
        rec.degraded = (flags & kDegraded) != 0;
    }
}

void
putState(ByteWriter &w, const CheckpointData &ckpt)
{
    const core::MonitorState &m = ckpt.monitor;
    w.put<std::uint64_t>(ckpt.source_pos);
    w.put<std::uint64_t>(m.current);
    w.put<std::uint64_t>(m.steps_since_change);
    w.put<std::uint64_t>(m.anomaly_count);
    w.put<std::uint64_t>(m.step_index);
    w.put<std::uint64_t>(m.test_calls);
    w.put<std::uint64_t>(m.outage_len);
    w.put<std::uint8_t>(m.resync_pending ? 1 : 0);
    putDegraded(w, m.degraded);
    putEnergies(w, m.gate_energies);
    putRows(w, m.history);
    putReports(w, m.reports);
    putRecords(w, m.records);
}

CheckpointData
getState(ByteReader &r)
{
    CheckpointData ckpt;
    core::MonitorState &m = ckpt.monitor;
    ckpt.source_pos = r.get<std::uint64_t>("source position");
    m.current = r.get<std::uint64_t>("current region");
    m.steps_since_change = r.get<std::uint64_t>("steps since change");
    m.anomaly_count = r.get<std::uint64_t>("anomaly count");
    m.step_index = r.get<std::uint64_t>("step index");
    m.test_calls = r.get<std::uint64_t>("test calls");
    m.outage_len = r.get<std::uint64_t>("outage length");
    m.resync_pending = r.get<std::uint8_t>("resync flag") != 0;
    getDegraded(r, m.degraded);
    getEnergies(r, m.gate_energies);
    getRows(r, m.history, "history row", "history width");
    getReports(r, m.reports);
    getRecords(r, m.records);
    return ckpt;
}

void
putDelta(ByteWriter &w, const core::MonitorStateDelta &d)
{
    w.put<std::uint64_t>(d.base_step);
    w.put<std::uint64_t>(d.step);
    w.put<std::uint64_t>(d.current);
    w.put<std::uint64_t>(d.steps_since_change);
    w.put<std::uint64_t>(d.anomaly_count);
    w.put<std::uint64_t>(d.test_calls);
    w.put<std::uint64_t>(d.outage_len);
    w.put<std::uint8_t>(d.resync_pending ? 1 : 0);
    putDegraded(w, d.degraded);
    putEnergies(w, d.gate_energies);
    w.put<std::uint64_t>(d.history_pushes);
    w.put<std::uint64_t>(d.history_count);
    putRows(w, d.history_tail);
    w.put<std::uint64_t>(d.records_from);
    putRecords(w, d.records);
    w.put<std::uint64_t>(d.reports_from);
    putReports(w, d.reports);
}

core::MonitorStateDelta
getDelta(ByteReader &r)
{
    core::MonitorStateDelta d;
    d.base_step = r.get<std::uint64_t>("base step");
    d.step = r.get<std::uint64_t>("step");
    d.current = r.get<std::uint64_t>("current region");
    d.steps_since_change = r.get<std::uint64_t>("steps since change");
    d.anomaly_count = r.get<std::uint64_t>("anomaly count");
    d.test_calls = r.get<std::uint64_t>("test calls");
    d.outage_len = r.get<std::uint64_t>("outage length");
    d.resync_pending = r.get<std::uint8_t>("resync flag") != 0;
    getDegraded(r, d.degraded);
    getEnergies(r, d.gate_energies);
    d.history_pushes = r.get<std::uint64_t>("history pushes");
    d.history_count = r.get<std::uint64_t>("ring row count");
    getRows(r, d.history_tail, "tail row", "tail width");
    d.records_from = r.get<std::uint64_t>("record rewrite index");
    getRecords(r, d.records);
    d.reports_from = r.get<std::uint64_t>("report rewrite index");
    getReports(r, d.reports);
    return d;
}

/** Applies @p delta to @p ckpt; false, with @p ckpt untouched, when
 *  the delta does not chain onto it. */
bool
applyTo(CheckpointData &ckpt, const core::MonitorStateDelta &delta)
{
    try {
        core::applyDelta(ckpt.monitor, delta);
    } catch (const core::Error &) {
        return false;
    }
    ckpt.source_pos = ckpt.monitor.step_index;
    return true;
}

} // namespace

std::string
encodeGroupCheckpoint(const GroupCheckpoint &group)
{
    std::string payload;
    ByteWriter w(payload);
    w.put<std::uint64_t>(group.epoch);
    w.put<std::uint64_t>(group.shards.size());
    for (const auto &shard : group.shards)
        putState(w, shard);
    return common::frame(kMagic, kGroupVersion, payload);
}

GroupCheckpoint
decodeGroupCheckpoint(const char *data, std::size_t size)
{
    const std::string_view payload =
        common::unframe(data, size, kMagic, kGroupVersion, "checkpoint");
    ByteReader r(payload.data(), payload.size(), "checkpoint");
    GroupCheckpoint group;
    group.epoch = r.get<std::uint64_t>("epoch");
    group.shards.resize(
        r.items("shard", common::kAnyCount, kMinStateBytes));
    for (auto &shard : group.shards)
        shard = getState(r);
    r.finish();
    return group;
}

std::string
encodeDeltaSegment(const DeltaSegment &seg)
{
    std::string payload;
    payload.reserve(512 * (seg.entries.size() + 1));
    ByteWriter w(payload);
    w.put<std::uint64_t>(seg.epoch);
    w.put<std::uint64_t>(seg.entries.size());
    for (const auto &entry : seg.entries) {
        w.put<std::uint64_t>(entry.shard);
        putDelta(w, entry.delta);
    }
    return common::frame(kDeltaMagic, kDeltaVersion, payload);
}

DeltaSegment
decodeDeltaSegment(const char *data, std::size_t size)
{
    const std::string_view payload = common::unframe(
        data, size, kDeltaMagic, kDeltaVersion, "delta segment");
    ByteReader r(payload.data(), payload.size(), "delta segment");
    DeltaSegment seg;
    seg.epoch = r.get<std::uint64_t>("epoch");
    seg.entries.resize(
        r.items("delta entry", common::kAnyCount, kMinEntryBytes));
    for (auto &entry : seg.entries) {
        entry.shard = r.get<std::uint64_t>("shard");
        entry.delta = getDelta(r);
    }
    r.finish();
    return seg;
}

std::string
checkpointArchivePath(const std::string &checkpoint_path)
{
    return checkpoint_path + ".arc";
}

std::string
tenantKeyPrefix(const std::string &tenant_id)
{
    return "tenant/" + tenant_id + "/";
}

std::string
snapshotKey(const std::string &key_prefix)
{
    return key_prefix + kSnapKey;
}

CheckpointStore::CheckpointStore(const CheckpointStoreConfig &cfg)
    : cfg_(cfg), mirrors_(std::max<std::size_t>(cfg.num_shards, 1))
{
    if (cfg_.full_every == 0)
        cfg_.full_every = 1;
}

std::string
CheckpointStore::deltaPrefixStr() const
{
    return cfg_.key_prefix + kDeltaPrefix;
}

std::string
CheckpointStore::deltaKeyStr(std::uint64_t n) const
{
    return cfg_.key_prefix + deltaKey(n);
}

bool
CheckpointStore::applySegmentLocked(const DeltaSegment &seg)
{
    // Transactional: decode fully, apply onto copies, then publish —
    // a torn or chain-broken segment leaves every mirror at the
    // previous good cut.
    std::vector<std::pair<std::size_t, CheckpointData>> applied;
    for (const auto &entry : seg.entries) {
        if (entry.shard >= mirrors_.size())
            return false;
        CheckpointData next = mirrors_[std::size_t(entry.shard)];
        for (const auto &prior : applied)
            if (prior.first == std::size_t(entry.shard))
                next = prior.second;
        if (!applyTo(next, entry.delta))
            return false;
        applied.emplace_back(std::size_t(entry.shard), std::move(next));
    }
    for (auto &entry : applied)
        mirrors_[entry.first] = std::move(entry.second);
    return true;
}

std::vector<bool>
CheckpointStore::recover()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<bool> recovered(mirrors_.size(), false);
    store::Archive *arc = cfg_.archive;
    if (arc == nullptr)
        return recovered;

    std::string snap;
    const store::GetStatus got = arc->get(snapshotKey(cfg_.key_prefix), snap);
    if (got != store::GetStatus::Ok) {
        // Corrupt-but-present is checkpoint rot, not a cold start;
        // the fleet breaker keys off this counter.
        if (got == store::GetStatus::Corrupt)
            ++stats_.snapshot_decode_failures;
        return recovered;
    }
    GroupCheckpoint group;
    try {
        group = decodeGroupCheckpoint(snap.data(), snap.size());
    } catch (const core::Error &) {
        ++stats_.snapshot_decode_failures;
        return recovered;
    }
    for (std::size_t i = 0;
         i < group.shards.size() && i < mirrors_.size(); ++i) {
        mirrors_[i] = std::move(group.shards[i]);
        recovered[i] = true;
    }
    epoch_ = group.epoch;

    // Replay the delta segments in key order (zero-padded numbering
    // makes that commit order). Each segment commits transactionally,
    // so a corrupt or chain-broken one leaves every mirror at the
    // previous good cut. Only the chain the snapshot anchors exists —
    // the snapshot rewrite removed older keys in the same atomic
    // commit that landed it — but the epoch check stays as defense in
    // depth.
    const std::string prefix = deltaPrefixStr();
    for (const auto &key : arc->keys()) {
        if (key.rfind(prefix, 0) != 0)
            continue;
        next_delta_key_ =
            std::strtoull(key.c_str() + prefix.size(), nullptr, 10) +
            1;
        DeltaSegment seg;
        try {
            std::string bytes;
            if (arc->get(key, bytes) != store::GetStatus::Ok)
                throw core::FormatError("delta segment: corrupt");
            seg = decodeDeltaSegment(bytes.data(), bytes.size());
        } catch (const core::Error &) {
            ++stats_.delta_fallbacks;
            ++stats_.delta_segments_dropped;
            break;
        }
        if (seg.epoch != epoch_) {
            ++stats_.delta_segments_dropped;
            continue;
        }
        if (!applySegmentLocked(seg)) {
            ++stats_.delta_fallbacks;
            ++stats_.delta_segments_dropped;
            break;
        }
    }
    return recovered;
}

void
CheckpointStore::submitFull(std::size_t shard, CheckpointData ckpt)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (shard >= mirrors_.size())
        return;
    // Queued deltas for this shard chain onto the state this replaces;
    // the snapshot rewrite the dirty flag forces supersedes them.
    std::erase_if(pending_, [shard](const DeltaEntry &e) {
        return std::size_t(e.shard) == shard;
    });
    mirrors_[shard] = std::move(ckpt);
    full_dirty_ = true;
}

void
CheckpointStore::submitDelta(std::size_t shard,
                             core::MonitorStateDelta delta)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (shard >= mirrors_.size())
        return;
    // Monitoring hot path: one move into the queue and out. applyDelta
    // runs at the next flush, on the watchdog thread.
    DeltaEntry entry;
    entry.shard = shard;
    entry.delta = std::move(delta);
    pending_.push_back(std::move(entry));
}

CheckpointData
CheckpointStore::mirror(std::size_t shard)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (shard >= mirrors_.size())
        return CheckpointData{};
    // Non-consuming read: replay this shard's queued deltas onto a
    // copy, leaving the queue for the next flush. Restart-path only,
    // so O(queued) is fine.
    CheckpointData out = mirrors_[shard];
    for (const auto &entry : pending_)
        if (std::size_t(entry.shard) == shard && !applyTo(out, entry.delta))
            break;
    return out;
}

bool
CheckpointStore::reclaimDeadSpace()
{
    // Each rewrite supersedes the old snapshot image and tombstones
    // the chain it anchored, so the append-only container would grow
    // with uptime. Compacting once dead bytes pass three times the
    // live ones keeps the file under about four times its live set
    // plus one rewrite cycle, and copies each live byte once per
    // three bytes made dead; at a ratio of one it would copy the live
    // set once per live set made dead, at about 1.7 times the cost of
    // the rewrites it cleans up after (EXPERIMENTS.md).
    const store::ArchiveStats st = cfg_.archive->stats();
    if (st.dead_bytes <= 3 * st.live_bytes)
        return true;
    bool ok = false;
    try {
        ok = cfg_.archive->compact();
    } catch (const core::Error &) {
    }
    if (!ok) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.write_failures;
    }
    return ok;
}

bool
CheckpointStore::flush(bool last)
{
    // io_mu_ serializes flushes (the watchdog is the only caller in a
    // serving run), so segments land in the order their deltas were
    // taken. mu_ is held to take and apply the queue and to book the
    // outcome, never across encoding or the archive write, so shard
    // workers cutting checkpoints never wait behind disk.
    std::lock_guard<std::mutex> io_lock(io_mu_);
    DeltaSegment seg;
    GroupCheckpoint group;
    std::uint64_t delta_key = 0;
    bool rewrite = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        rewrite = full_dirty_ || commits_since_full_ >= cfg_.full_every;
        // Backing off after a failed write: the mirrors take the
        // deltas, and the snapshot they owe waits for a later flush.
        const bool skip = !last && flushes_to_skip_ > 0;
        if (skip)
            --flushes_to_skip_;
        // Cleared as the rewrite is taken: a submitFull, a delta that
        // does not apply or a failed write from here on sets it again.
        full_dirty_ = skip;
        seg.entries = std::move(pending_);
        pending_.clear();
        for (const auto &entry : seg.entries) {
            if (!applyTo(mirrors_[std::size_t(entry.shard)], entry.delta)) {
                ++stats_.delta_fallbacks;
                full_dirty_ = true;
            }
        }
        if (cfg_.archive == nullptr || skip)
            return !skip;
        if (rewrite) {
            group.epoch = epoch_ + 1;
            group.shards = mirrors_;
        } else if (seg.entries.empty()) {
            return true;
        } else {
            seg.epoch = epoch_;
            delta_key = next_delta_key_++;
        }
    }

    // One group commit either way. A snapshot rewrite lands the new
    // image and the removal of every delta key together, so
    // stale-epoch segments structurally cannot survive a crash; it
    // removes only THIS store's keys, since another prefix's chain in
    // a shared container is a neighbor's. A failed commit is rolled
    // back inside the archive (truncate to the pre-commit end), and a
    // skipped delta key number is tolerated by replay.
    store::Archive::Batch batch;
    std::size_t bytes = 0;
    if (rewrite) {
        batch.puts.emplace_back(snapshotKey(cfg_.key_prefix),
                                encodeGroupCheckpoint(group));
        const std::string prefix = deltaPrefixStr();
        for (std::string &key : cfg_.archive->keys())
            if (key.rfind(prefix, 0) == 0)
                batch.removes.push_back(std::move(key));
    } else {
        batch.puts.emplace_back(deltaKeyStr(delta_key),
                                encodeDeltaSegment(seg));
        bytes = batch.puts.front().second.size();
    }
    bool wrote = false;
    try {
        wrote = cfg_.archive->commit(batch);
    } catch (const core::Error &) {
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!wrote) {
            // Degraded durability: the mirrors hold every cut, and the
            // next successful snapshot re-anchors the chain. The next
            // flush retries, then each failed retry doubles the gap,
            // up to 256 flushes (0.5 s at the default 2 ms poll).
            ++stats_.write_failures;
            full_dirty_ = true;
            flushes_to_skip_ = retry_gap_ - 1;
            retry_gap_ = std::min<std::size_t>(2 * retry_gap_, 256);
            return false;
        }
        retry_gap_ = 1;
        ++stats_.group_commits;
        if (!rewrite) {
            stats_.delta_bytes += bytes;
            ++commits_since_full_;
            return true;
        }
        next_delta_key_ = 0;
        epoch_ = group.epoch;
        commits_since_full_ = 0;
        ++stats_.full_snapshots;
    }
    // Outside mu_: compaction rewrites every tenant's live set, and
    // shard workers must not wait behind it.
    return reclaimDeadSpace();
}

CheckpointStoreStats
CheckpointStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace eddie::serve
