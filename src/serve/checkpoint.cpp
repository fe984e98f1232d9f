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
    : cfg_(cfg), mirrors_(std::max<std::size_t>(cfg.num_shards, 1)),
      mirror_gen_(mirrors_.size(), 0)
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
    std::vector<std::pair<std::size_t, CheckpointData>> staged;
    for (const auto &entry : seg.entries) {
        if (entry.shard >= mirrors_.size())
            return false;
        CheckpointData next = mirrors_[std::size_t(entry.shard)];
        for (const auto &prior : staged)
            if (prior.first == std::size_t(entry.shard))
                next = prior.second;
        try {
            core::applyDelta(next.monitor, entry.delta);
        } catch (const core::Error &) {
            return false;
        }
        next.source_pos = next.monitor.step_index;
        staged.emplace_back(std::size_t(entry.shard),
                            std::move(next));
    }
    for (auto &entry : staged)
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
    // Queued deltas for this shard no longer chain onto its mirror;
    // the snapshot rewrite the dirty flag forces supersedes them. The
    // generation bump also invalidates any of them currently riding
    // an in-flight flush batch.
    const auto stale = [shard](const DeltaEntry &e) {
        return std::size_t(e.shard) == shard;
    };
    pending_.erase(
        std::remove_if(pending_.begin(), pending_.end(), stale),
        pending_.end());
    staged_.erase(
        std::remove_if(staged_.begin(), staged_.end(), stale),
        staged_.end());
    ++mirror_gen_[shard];
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
    // Monitoring hot path: one move into the pending list and out.
    // The mirror fold (applyDelta) runs at flush/mirror time on the
    // watchdog thread, so eight shard workers cutting checkpoints
    // never serialize behind each other's state application.
    DeltaEntry entry;
    entry.shard = shard;
    entry.delta = std::move(delta);
    pending_.push_back(std::move(entry));
}

void
CheckpointStore::foldAllLocked()
{
    // Advances the mirrors to the newest cut by consuming every
    // queued delta (staged_ first: those are older). Only the full
    // snapshot rewrite and the archive-less flush need this — in the
    // steady state the mirrors deliberately lag, so the hot path
    // never pays applyDelta at all.
    const auto fold = [this](std::vector<DeltaEntry> &entries) {
        for (auto &entry : entries) {
            CheckpointData &m = mirrors_[std::size_t(entry.shard)];
            core::applyDelta(m.monitor, entry.delta);
            m.source_pos = m.monitor.step_index;
        }
        entries.clear();
    };
    fold(staged_);
    fold(pending_);
}

CheckpointData
CheckpointStore::mirror(std::size_t shard)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (shard >= mirrors_.size())
        return CheckpointData{};
    // Non-consuming read: replay this shard's unfolded deltas onto a
    // copy, leaving the queues intact for the next segment write /
    // snapshot fold. Restart-path only, so O(queued) is fine.
    CheckpointData out = mirrors_[shard];
    const auto replay = [&](const std::vector<DeltaEntry> &entries) {
        for (const auto &entry : entries)
            if (std::size_t(entry.shard) == shard) {
                core::applyDelta(out.monitor, entry.delta);
                out.source_pos = out.monitor.step_index;
            }
    };
    replay(staged_);
    replay(pending_);
    return out;
}

bool
CheckpointStore::writeFullSnapshotLocked()
{
    // Every queued delta folds into the mirrors (and out of memory)
    // here — on a dead disk this still bounds memory, since the
    // mirrors then carry the cuts the archive never got.
    foldAllLocked();
    GroupCheckpoint group;
    group.epoch = epoch_ + 1;
    group.shards = mirrors_;
    // The new snapshot image and the removal of every delta key land
    // in ONE group commit: either the whole rewrite is visible to a
    // later scan or none of it is, so stale-epoch delta segments
    // structurally cannot survive a crash.
    bool wrote = false;
    try {
        cfg_.archive->stagePut(snapshotKey(cfg_.key_prefix),
                               encodeGroupCheckpoint(group));
        // Only THIS store's delta keys: in a shared multi-tenant
        // container, removing another prefix would tear a neighbor's
        // chain out from under its snapshot.
        const std::string prefix = deltaPrefixStr();
        for (const auto &key : cfg_.archive->keys())
            if (key.rfind(prefix, 0) == 0)
                cfg_.archive->stageRemove(key);
        wrote = cfg_.archive->commit();
    } catch (const core::Error &) {
    }
    if (!wrote) {
        ++stats_.write_failures;
        return false;
    }
    next_delta_key_ = 0;
    epoch_ = group.epoch;
    commits_since_full_ = 0;
    full_dirty_ = false;
    ++stats_.full_snapshots;
    ++stats_.group_commits;
    return true;
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
CheckpointStore::flush()
{
    // io_mu_ serializes writers (the watchdog poll plus per-worker
    // EOF flushes) so segments land in submission order; mu_ is held
    // only long enough to move the queues, so shard workers cutting
    // checkpoints never wait behind serialization or disk.
    std::lock_guard<std::mutex> io_lock(io_mu_);
    DeltaSegment seg;
    std::vector<std::uint64_t> gen_snap;
    std::uint64_t delta_key = 0;
    bool rewrote = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (cfg_.archive == nullptr) {
            foldAllLocked(); // mirrors still track every cut in memory
            full_dirty_ = false;
            return true;
        }
        if (full_dirty_ || commits_since_full_ >= cfg_.full_every) {
            if (!writeFullSnapshotLocked())
                return false;
            rewrote = true;
        } else if (pending_.empty()) {
            return true;
        } else {
            seg.epoch = epoch_;
            seg.entries = std::move(pending_);
            pending_.clear();
            gen_snap = mirror_gen_;
            delta_key = next_delta_key_++;
        }
    }
    // Outside mu_: compaction rewrites every tenant's live set, and
    // shard workers must not wait behind it.
    if (rewrote)
        return reclaimDeadSpace();

    // One keyed segment = one archive group commit. A failed put is
    // rolled back inside the archive (truncate to the pre-commit
    // end), so a torn batch never reaches a later scan; the key
    // number is simply skipped, which replay tolerates.
    const std::string bytes = encodeDeltaSegment(seg);
    const bool wrote = cfg_.archive->put(deltaKeyStr(delta_key), bytes);

    std::lock_guard<std::mutex> lock(mu_);
    // Written or not, the entries stay queued for the snapshot fold:
    // on a write failure the mirrors (via the forced snapshot below)
    // are the only copy left, so losing them here would lose cuts.
    // Entries whose shard took a submitFull while the lock was
    // released are superseded — their chain no longer applies.
    for (auto &entry : seg.entries)
        if (mirror_gen_[std::size_t(entry.shard)] ==
            gen_snap[std::size_t(entry.shard)])
            staged_.push_back(std::move(entry));
    if (!wrote) {
        // Degraded durability: the queued cuts survive in memory and
        // the next successful full snapshot re-anchors the chain.
        ++stats_.write_failures;
        full_dirty_ = true;
        return false;
    }
    stats_.delta_bytes += bytes.size();
    ++stats_.group_commits;
    ++commits_since_full_;
    return true;
}

CheckpointStoreStats
CheckpointStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace eddie::serve
