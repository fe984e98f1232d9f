#include "checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <sstream>
#include <utility>

#include "common/crc32.h"
#include "core/capture_io.h"
#include "core/errors.h"
#include "store/span_stream.h"

namespace eddie::serve
{

namespace
{

constexpr char kMagic[8] = {'E', 'D', 'D', 'I', 'E', 'C', 'K', 'P'};
constexpr char kDeltaMagic[8] = {'E', 'D', 'D', 'I',
                                 'E', 'D', 'L', 'T'};
constexpr std::uint32_t kGroupVersion = 2; ///< epoch + all shards
constexpr std::uint32_t kDeltaVersion = 1; ///< delta segment
/** Element-count sanity cap; a corrupt length field must fail as
 *  FormatError, not as a giant allocation. */
constexpr std::uint64_t kMaxElements = std::uint64_t(1) << 32;

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

template <typename T>
void
put(std::string &out, T value)
{
    out.append(reinterpret_cast<const char *>(&value), sizeof value);
}

/** Bounds-checked payload cursor; running past the end means the
 *  payload lied about its own structure (CRC passed, so this is a
 *  format bug, not line noise). */
class Cursor
{
  public:
    explicit Cursor(const std::string &payload) : payload_(payload) {}

    template <typename T>
    T get()
    {
        T value;
        if (off_ + sizeof value > payload_.size())
            throw core::FormatError("checkpoint: payload underrun");
        std::memcpy(&value, payload_.data() + off_, sizeof value);
        off_ += sizeof value;
        return value;
    }

    std::uint64_t count(const char *what)
    {
        const std::uint64_t n = get<std::uint64_t>();
        if (n > kMaxElements)
            throw core::FormatError(
                std::string("checkpoint: implausible ") + what +
                " count");
        return n;
    }

    bool exhausted() const { return off_ == payload_.size(); }

  private:
    const std::string &payload_;
    std::size_t off_ = 0;
};

void
encodeInto(std::string &out, const CheckpointData &ckpt)
{
    const core::MonitorState &m = ckpt.monitor;
    put<std::uint64_t>(out, ckpt.source_pos);
    put<std::uint64_t>(out, m.current);
    put<std::uint64_t>(out, m.steps_since_change);
    put<std::uint64_t>(out, m.anomaly_count);
    put<std::uint64_t>(out, m.step_index);
    put<std::uint64_t>(out, m.test_calls);
    put<std::uint64_t>(out, m.outage_len);
    put<std::uint8_t>(out, m.resync_pending ? 1 : 0);

    put<std::uint64_t>(out, m.degraded.quarantined);
    put<std::uint64_t>(out, m.degraded.outages);
    put<std::uint64_t>(out, m.degraded.resyncs);
    put<std::uint64_t>(out, m.degraded.longest_outage);
    for (std::size_t kind : m.degraded.by_kind)
        put<std::uint64_t>(out, kind);

    put<std::uint64_t>(out, m.gate_energies.size());
    for (double e : m.gate_energies)
        put<double>(out, e);

    const std::uint64_t width =
        m.history.empty() ? 0 : m.history.front().size();
    put<std::uint64_t>(out, m.history.size());
    put<std::uint64_t>(out, width);
    for (const auto &row : m.history)
        for (std::size_t p = 0; p < width; ++p)
            put<double>(out, p < row.size() ? row[p] : 0.0);

    put<std::uint64_t>(out, m.reports.size());
    for (const auto &r : m.reports) {
        put<std::uint64_t>(out, r.step);
        put<double>(out, r.time);
        put<std::uint64_t>(out, r.region);
    }

    put<std::uint64_t>(out, m.records.size());
    for (const auto &r : m.records) {
        put<std::uint64_t>(out, r.region);
        std::uint8_t flags = 0;
        if (r.tested)
            flags |= kTested;
        if (r.rejected)
            flags |= kRejected;
        if (r.reported)
            flags |= kReported;
        if (r.transitioned)
            flags |= kTransitioned;
        if (r.degraded)
            flags |= kDegraded;
        put<std::uint8_t>(out, flags);
    }
}

CheckpointData
decodeFrom(Cursor &c)
{
    CheckpointData ckpt;
    core::MonitorState &m = ckpt.monitor;
    ckpt.source_pos = c.get<std::uint64_t>();
    m.current = std::size_t(c.get<std::uint64_t>());
    m.steps_since_change = std::size_t(c.get<std::uint64_t>());
    m.anomaly_count = std::size_t(c.get<std::uint64_t>());
    m.step_index = std::size_t(c.get<std::uint64_t>());
    m.test_calls = std::size_t(c.get<std::uint64_t>());
    m.outage_len = std::size_t(c.get<std::uint64_t>());
    m.resync_pending = c.get<std::uint8_t>() != 0;

    m.degraded.quarantined = std::size_t(c.get<std::uint64_t>());
    m.degraded.outages = std::size_t(c.get<std::uint64_t>());
    m.degraded.resyncs = std::size_t(c.get<std::uint64_t>());
    m.degraded.longest_outage = std::size_t(c.get<std::uint64_t>());
    for (std::size_t &kind : m.degraded.by_kind)
        kind = std::size_t(c.get<std::uint64_t>());

    const std::uint64_t n_energies = c.count("gate energy");
    m.gate_energies.resize(std::size_t(n_energies));
    for (double &e : m.gate_energies)
        e = c.get<double>();

    const std::uint64_t rows = c.count("history row");
    const std::uint64_t width = c.count("history width");
    m.history.resize(std::size_t(rows));
    for (auto &row : m.history) {
        row.resize(std::size_t(width));
        for (double &v : row)
            v = c.get<double>();
    }

    const std::uint64_t n_reports = c.count("report");
    m.reports.resize(std::size_t(n_reports));
    for (auto &r : m.reports) {
        r.step = std::size_t(c.get<std::uint64_t>());
        r.time = c.get<double>();
        r.region = std::size_t(c.get<std::uint64_t>());
    }

    const std::uint64_t n_records = c.count("record");
    m.records.resize(std::size_t(n_records));
    for (auto &r : m.records) {
        r.region = std::size_t(c.get<std::uint64_t>());
        const std::uint8_t flags = c.get<std::uint8_t>();
        r.tested = (flags & kTested) != 0;
        r.rejected = (flags & kRejected) != 0;
        r.reported = (flags & kReported) != 0;
        r.transitioned = (flags & kTransitioned) != 0;
        r.degraded = (flags & kDegraded) != 0;
    }
    return ckpt;
}

void
encodeDeltaInto(std::string &out, const core::MonitorStateDelta &d)
{
    put<std::uint64_t>(out, d.base_step);
    put<std::uint64_t>(out, d.step);
    put<std::uint64_t>(out, d.current);
    put<std::uint64_t>(out, d.steps_since_change);
    put<std::uint64_t>(out, d.anomaly_count);
    put<std::uint64_t>(out, d.test_calls);
    put<std::uint64_t>(out, d.outage_len);
    put<std::uint8_t>(out, d.resync_pending ? 1 : 0);

    put<std::uint64_t>(out, d.degraded.quarantined);
    put<std::uint64_t>(out, d.degraded.outages);
    put<std::uint64_t>(out, d.degraded.resyncs);
    put<std::uint64_t>(out, d.degraded.longest_outage);
    for (std::size_t kind : d.degraded.by_kind)
        put<std::uint64_t>(out, kind);

    put<std::uint64_t>(out, d.gate_energies.size());
    for (double e : d.gate_energies)
        put<double>(out, e);

    put<std::uint64_t>(out, d.history_pushes);
    put<std::uint64_t>(out, d.history_count);
    const std::uint64_t width =
        d.history_tail.empty() ? 0 : d.history_tail.front().size();
    put<std::uint64_t>(out, d.history_tail.size());
    put<std::uint64_t>(out, width);
    for (const auto &row : d.history_tail)
        for (std::size_t p = 0; p < width; ++p)
            put<double>(out, p < row.size() ? row[p] : 0.0);

    put<std::uint64_t>(out, d.records_from);
    put<std::uint64_t>(out, d.records.size());
    for (const auto &r : d.records) {
        put<std::uint64_t>(out, r.region);
        std::uint8_t flags = 0;
        if (r.tested)
            flags |= kTested;
        if (r.rejected)
            flags |= kRejected;
        if (r.reported)
            flags |= kReported;
        if (r.transitioned)
            flags |= kTransitioned;
        if (r.degraded)
            flags |= kDegraded;
        put<std::uint8_t>(out, flags);
    }

    put<std::uint64_t>(out, d.reports_from);
    put<std::uint64_t>(out, d.reports.size());
    for (const auto &r : d.reports) {
        put<std::uint64_t>(out, r.step);
        put<double>(out, r.time);
        put<std::uint64_t>(out, r.region);
    }
}

core::MonitorStateDelta
decodeDeltaFrom(Cursor &c)
{
    core::MonitorStateDelta d;
    d.base_step = c.get<std::uint64_t>();
    d.step = c.get<std::uint64_t>();
    d.current = std::size_t(c.get<std::uint64_t>());
    d.steps_since_change = std::size_t(c.get<std::uint64_t>());
    d.anomaly_count = std::size_t(c.get<std::uint64_t>());
    d.test_calls = std::size_t(c.get<std::uint64_t>());
    d.outage_len = std::size_t(c.get<std::uint64_t>());
    d.resync_pending = c.get<std::uint8_t>() != 0;

    d.degraded.quarantined = std::size_t(c.get<std::uint64_t>());
    d.degraded.outages = std::size_t(c.get<std::uint64_t>());
    d.degraded.resyncs = std::size_t(c.get<std::uint64_t>());
    d.degraded.longest_outage = std::size_t(c.get<std::uint64_t>());
    for (std::size_t &kind : d.degraded.by_kind)
        kind = std::size_t(c.get<std::uint64_t>());

    const std::uint64_t n_energies = c.count("gate energy");
    d.gate_energies.resize(std::size_t(n_energies));
    for (double &e : d.gate_energies)
        e = c.get<double>();

    d.history_pushes = c.get<std::uint64_t>();
    d.history_count = c.count("ring row");
    const std::uint64_t rows = c.count("tail row");
    const std::uint64_t width = c.count("tail width");
    d.history_tail.resize(std::size_t(rows));
    for (auto &row : d.history_tail) {
        row.resize(std::size_t(width));
        for (double &v : row)
            v = c.get<double>();
    }

    d.records_from = c.count("record rewrite index");
    const std::uint64_t n_records = c.count("record");
    d.records.resize(std::size_t(n_records));
    for (auto &r : d.records) {
        r.region = std::size_t(c.get<std::uint64_t>());
        const std::uint8_t flags = c.get<std::uint8_t>();
        r.tested = (flags & kTested) != 0;
        r.rejected = (flags & kRejected) != 0;
        r.reported = (flags & kReported) != 0;
        r.transitioned = (flags & kTransitioned) != 0;
        r.degraded = (flags & kDegraded) != 0;
    }

    d.reports_from = c.count("report rewrite index");
    const std::uint64_t n_reports = c.count("report");
    d.reports.resize(std::size_t(n_reports));
    for (auto &r : d.reports) {
        r.step = std::size_t(c.get<std::uint64_t>());
        r.time = c.get<double>();
        r.region = std::size_t(c.get<std::uint64_t>());
    }
    return d;
}

/** One framed delta segment (magic "EDDIEDLT"): the value of one
 *  "<prefix>ckpt/dlt/<n>" key. */
std::string
encodeDeltaSegment(const DeltaSegment &seg)
{
    std::string payload;
    payload.reserve(512 * (seg.entries.size() + 1));
    put<std::uint64_t>(payload, seg.epoch);
    put<std::uint64_t>(payload, seg.entries.size());
    for (const auto &entry : seg.entries) {
        put<std::uint64_t>(payload, entry.shard);
        encodeDeltaInto(payload, entry.delta);
    }
    std::ostringstream framed(std::ios::binary);
    core::writeFramed(framed, kDeltaMagic, kDeltaVersion, payload);
    return framed.str();
}

/** Decodes encodeDeltaSegment() bytes; throws IoError on truncation,
 *  FormatError on corruption. */
DeltaSegment
decodeDeltaSegment(std::span<const char> bytes)
{
    store::SpanStream is(bytes.data(), bytes.size());
    std::string payload;
    core::readFramed(is, kDeltaMagic, kDeltaVersion, "delta segment",
                     payload);
    Cursor c(payload);
    DeltaSegment seg;
    seg.epoch = c.get<std::uint64_t>();
    const std::uint64_t n = c.count("delta entry");
    seg.entries.reserve(std::size_t(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        DeltaEntry entry;
        entry.shard = c.get<std::uint64_t>();
        entry.delta = decodeDeltaFrom(c);
        seg.entries.push_back(std::move(entry));
    }
    if (!c.exhausted())
        throw core::FormatError("delta segment: trailing payload bytes");
    return seg;
}

} // namespace

void
saveGroupCheckpoint(const GroupCheckpoint &group, std::ostream &os)
{
    std::string payload;
    put<std::uint64_t>(payload, group.epoch);
    put<std::uint64_t>(payload, group.shards.size());
    for (const auto &shard : group.shards)
        encodeInto(payload, shard);
    core::writeFramed(os, kMagic, kGroupVersion, payload);
}

GroupCheckpoint
loadGroupCheckpoint(std::istream &is)
{
    std::string payload;
    core::readFramed(is, kMagic, kGroupVersion, "checkpoint", payload);
    Cursor c(payload);
    GroupCheckpoint group;
    group.epoch = c.get<std::uint64_t>();
    const std::uint64_t n = c.count("shard");
    group.shards.reserve(std::size_t(n));
    for (std::uint64_t i = 0; i < n; ++i)
        group.shards.push_back(decodeFrom(c));
    if (!c.exhausted())
        throw core::FormatError("checkpoint: trailing payload bytes");
    return group;
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

    std::span<const char> snap;
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
        store::SpanStream is(snap.data(), snap.size());
        group = loadGroupCheckpoint(is);
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
            std::span<const char> span;
            if (arc->get(key, span) != store::GetStatus::Ok)
                throw core::FormatError("delta segment: corrupt");
            seg = decodeDeltaSegment(span);
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

void
CheckpointStore::forceFullSnapshot()
{
    std::lock_guard<std::mutex> lock(mu_);
    full_dirty_ = true;
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
    std::ostringstream framed(std::ios::binary);
    saveGroupCheckpoint(group, framed);
    // The new snapshot image and the removal of every delta key land
    // in ONE group commit: either the whole rewrite is visible to a
    // later scan or none of it is, so stale-epoch delta segments
    // structurally cannot survive a crash.
    bool wrote = false;
    try {
        cfg_.archive->stagePut(snapshotKey(cfg_.key_prefix), framed.str());
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
    // three bytes made dead. Compaction verifies, re-encodes and
    // rescans what it copies; at a ratio of one it cost several times
    // the snapshot writes it cleaned up after (EXPERIMENTS.md).
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
