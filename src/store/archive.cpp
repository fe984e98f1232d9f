#include "archive.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/bytes.h"
#include "core/errors.h"

namespace eddie::store
{

namespace
{

constexpr char kMagic[8] = {'E', 'D', 'D', 'I', 'E', 'A', 'R', 'C'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kKindPut = 1;
constexpr std::uint32_t kKindRemove = 2;

/** seq(8) kind(4) reserved(4) key_len(8) value_len(8). */
constexpr std::size_t kFixedHeader = 32;
/** Superblock content before its CRC: magic + version + sector +
 *  reserved. */
constexpr std::size_t kSuperBytes = 8 + 4 + 4 + 8;

constexpr std::uint64_t kMaxKeyLen = std::uint64_t(1) << 20;

using common::load;

std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

bool
validSectorSize(std::uint32_t s)
{
    return s >= 64 && s <= (1u << 20) && (s & (s - 1)) == 0;
}

/** Sector 0 of a new archive: magic, version, sector size, reserved,
 *  and a CRC32 over those fields, zero-padded to the sector. */
std::string
superblock(std::uint32_t sector)
{
    std::string block;
    common::ByteWriter w(block);
    w.bytes(std::string_view(kMagic, sizeof kMagic));
    w.put(kVersion);
    w.put(sector);
    w.put<std::uint64_t>(0);
    w.put(common::crc32(block.data(), block.size()));
    block.resize(sector, '\0');
    return block;
}

/** A segment header as the scan reads it. */
struct SegmentHeader
{
    std::uint64_t seq = 0;
    std::uint32_t kind = 0;
    std::uint64_t key_len = 0;
    std::uint64_t value_len = 0;
    std::uint64_t n_psec = 0;       ///< payload sectors
    std::uint64_t header_bytes = 0; ///< fixed part + key + CRCs
    std::uint64_t header_secs = 0;
};

/** Parses the header at @p off; false unless its fields are plausible,
 *  it lies wholly inside the file and its CRC matches. */
bool
readHeader(const char *base, std::uint64_t off, std::uint64_t file_size,
           std::uint32_t sector, SegmentHeader &h)
{
    if (off + kFixedHeader > file_size)
        return false;
    h.seq = load<std::uint64_t>(base + off);
    h.kind = load<std::uint32_t>(base + off + 8);
    h.key_len = load<std::uint64_t>(base + off + 16);
    h.value_len = load<std::uint64_t>(base + off + 24);
    if ((h.kind != kKindPut && h.kind != kKindRemove) || h.key_len == 0 ||
        h.key_len > kMaxKeyLen || h.value_len > common::kMaxPayloadBytes ||
        (h.kind == kKindRemove && h.value_len != 0))
        return false;
    h.n_psec = ceilDiv(h.value_len, sector);
    h.header_bytes = kFixedHeader + h.key_len + 4 * h.n_psec + 4;
    h.header_secs = ceilDiv(h.header_bytes, sector);
    if (h.header_bytes > file_size - off)
        return false;
    return load<std::uint32_t>(base + off + h.header_bytes - 4) ==
           common::crc32(base + off, std::size_t(h.header_bytes - 4));
}

} // namespace

Archive::Archive(ArchiveConfig cfg) : cfg_(std::move(cfg))
{
    if (!validSectorSize(cfg_.sector_size))
        throw core::FormatError(
            "archive: sector size must be a power of two in "
            "[64, 1 MiB]");
    sector_ = cfg_.sector_size;
    std::lock_guard<std::mutex> lock(mu_);
    openLocked(true);
}

Archive::~Archive()
{
    if (fd_ >= 0)
        ::close(fd_);
}

GetStatus
Archive::readValue(const std::string &path, std::string_view key,
                   std::string &out)
{
    // One read into memory instead of a mapping: a writer replacing
    // the file in place meanwhile cannot fault a mapped page here.
    errno = 0;
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw core::ioErrorErrno("archive: open for read", path);
    const std::string file{std::istreambuf_iterator<char>(is),
                           std::istreambuf_iterator<char>()};
    if (is.bad())
        throw core::ioErrorErrno("archive: read", path);

    Archive arc;
    arc.cfg_.path = path;
    std::lock_guard<std::mutex> lock(arc.mu_);
    arc.scanFileLocked(file.data(), file.size());
    const auto it = arc.dir_.find(key);
    if (it == arc.dir_.end())
        return GetStatus::Missing;
    if (!arc.verifySlotLocked(file.data(), it->second))
        return GetStatus::Corrupt;
    out.assign(file.data() + it->second.payload_off,
               std::size_t(it->second.value_len));
    return GetStatus::Ok;
}

void
Archive::openLocked(bool creating_ok)
{
    namespace fs = std::filesystem;
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    active_.reset();

    std::error_code ec;
    std::uint64_t fsize = fs::file_size(cfg_.path, ec);
    if (ec)
        fsize = 0;
    if (fsize == 0) {
        if (!creating_ok)
            throw core::IoError(
                "archive: missing " + cfg_.path +
                (ec ? ": " + ec.message() : std::string()));
        // A new archive has nothing to scan, and its file — superblock
        // first — is created by the first commit rather than here:
        // file creation costs tens of microseconds, and a serving run
        // opens its checkpoint archive before any session starts,
        // while its commits run on the watchdog. Only check here that
        // the file can be created.
        const fs::path dir = fs::path(cfg_.path).parent_path();
        errno = 0;
        if (::access(dir.empty() ? "." : dir.c_str(), W_OK) != 0)
            throw core::ioErrorErrno("archive: create", cfg_.path);
        end_ = sector_;
        next_seq_ = 1;
        staged_seq_ = next_seq_;
        broken_ = false;
        return;
    }
    // One scan mapping over the whole file; the active mapping is
    // rebuilt lazily (and only up to the verified logical end).
    MappedFile scan;
    scan.open(cfg_.path, std::size_t(fsize));
    scanFileLocked(scan.data(), fsize);
    scan.reset();

    // Drop any torn tail now so the append descriptor (O_APPEND)
    // lands the next commit right after the last good segment.
    if (end_ < fsize) {
        fs::resize_file(cfg_.path, end_, ec);
        if (ec)
            throw core::IoError(
                "archive: cannot truncate torn tail of " + cfg_.path +
                " to offset " + std::to_string(end_) + ": " +
                ec.message());
    }

    fd_ = ::open(cfg_.path.c_str(),
                 O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd_ < 0)
        throw core::ioErrorErrno("archive: open for append",
                                 cfg_.path);
    staged_seq_ = next_seq_;
    broken_ = false;
}

void
Archive::scanFileLocked(const char *base, std::uint64_t file_size)
{
    if (file_size < kSuperBytes + 4)
        throw core::FormatError("archive: truncated superblock in " +
                                cfg_.path);
    if (std::memcmp(base, kMagic, sizeof kMagic) != 0)
        throw core::FormatError("archive: bad magic in " + cfg_.path);
    if (load<std::uint32_t>(base + 8) != kVersion)
        throw core::FormatError("archive: unsupported version in " +
                                cfg_.path);
    const std::uint32_t file_sector =
        load<std::uint32_t>(base + 12);
    if (load<std::uint32_t>(base + kSuperBytes) !=
        common::crc32(base, kSuperBytes))
        throw core::FormatError(
            "archive: superblock checksum mismatch in " + cfg_.path);
    if (!validSectorSize(file_sector))
        throw core::FormatError("archive: bad sector size in " +
                                cfg_.path);
    sector_ = file_sector; // an existing file's geometry wins
    if (file_size < sector_)
        throw core::FormatError("archive: truncated superblock in " +
                                cfg_.path);
    scanLocked(base, std::size_t(file_size));
}

void
Archive::scanLocked(const char *base, std::size_t file_size)
{
    dir_.clear();
    next_seq_ = 1;
    stats_.segments_scanned = 0;
    stats_.payload_sectors_total = 0;
    stats_.payload_sectors_verified = 0;
    std::uint64_t dead = 0;

    std::uint64_t off = sector_;
    SegmentHeader h;
    while (off < file_size) {
        if (!readHeader(base, off, file_size, sector_, h) ||
            h.seq != next_seq_ ||
            (h.header_secs + h.n_psec) * sector_ > file_size - off)
            break;

        std::string key(base + off + kFixedHeader,
                        std::size_t(h.key_len));
        if (h.kind == kKindPut) {
            Slot slot;
            slot.offset = off;
            slot.table_off = off + kFixedHeader + h.key_len;
            slot.payload_off = off + h.header_secs * sector_;
            slot.value_len = h.value_len;
            slot.n_sectors = std::uint32_t(h.n_psec);
            const auto it = dir_.find(key);
            if (it != dir_.end()) {
                ++dead; // superseded put
                it->second = slot;
            } else {
                dir_.emplace(std::move(key), slot);
            }
        } else {
            ++dead; // the remove segment itself is dead space
            if (dir_.erase(key) > 0)
                ++dead; // ... and so is the put it tombstoned
        }
        stats_.payload_sectors_total += h.n_psec;
        ++stats_.segments_scanned;
        off += (h.header_secs + h.n_psec) * sector_;
        ++next_seq_;
    }
    if (off < file_size) {
        // A torn write damages only the last batch, so nothing valid
        // can follow it. A CRC-valid header further on means this
        // damage is mid-file, and truncating here would delete every
        // artifact after it.
        for (std::uint64_t at = off + sector_; at < file_size;
             at += sector_)
            if (readHeader(base, at, file_size, sector_, h))
                throw core::FormatError(
                    "archive: damaged segment at offset " +
                    std::to_string(off) + " precedes a valid one at " +
                    std::to_string(at) + " in " + cfg_.path);
        ++stats_.torn_tail_dropped;
    }
    end_ = off;
    stats_.dead_segments = dead;
    stats_.live_artifacts = dir_.size();
}

void
Archive::encodeSegment(std::string &out, std::uint64_t seq,
                       std::uint32_t kind, std::string_view key,
                       std::string_view value) const
{
    const std::uint64_t n_psec = ceilDiv(value.size(), sector_);
    const std::uint64_t header_secs = ceilDiv(
        kFixedHeader + key.size() + 4 * n_psec + 4, sector_);
    const std::size_t start = out.size();

    common::ByteWriter w(out);
    w.put(seq);
    w.put(kind);
    w.put<std::uint32_t>(0);
    w.put<std::uint64_t>(key.size());
    w.put<std::uint64_t>(value.size());
    w.bytes(key);
    // Per-sector CRC table; each entry covers one full payload
    // sector, zero padding included, so torn last sectors cannot
    // hide behind their padding.
    for (std::uint64_t i = 0; i < n_psec; ++i) {
        const std::size_t at = std::size_t(i) * sector_;
        const std::size_t len =
            std::min<std::size_t>(sector_, value.size() - at);
        std::uint32_t c = common::crc32(value.data() + at, len);
        if (len < sector_) {
            const std::string zeros(sector_ - len, '\0');
            c = common::crc32(zeros.data(), zeros.size(), c);
        }
        w.put(c);
    }
    w.put(common::crc32(out.data() + start, out.size() - start));
    out.resize(start + std::size_t(header_secs) * sector_, '\0');
    out.append(value);
    out.resize(start + std::size_t(header_secs + n_psec) * sector_,
               '\0');
}

void
Archive::stagePut(std::string_view key, std::string_view value)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (key.empty() || key.size() > kMaxKeyLen)
        throw core::FormatError("archive: bad key length");
    if (value.size() > common::kMaxPayloadBytes)
        throw core::FormatError("archive: oversized value");

    const std::uint64_t off = end_ + staging_.size();
    const std::uint64_t n_psec = ceilDiv(value.size(), sector_);
    const std::uint64_t header_secs = ceilDiv(
        kFixedHeader + key.size() + 4 * n_psec + 4, sector_);

    encodeSegment(staging_, staged_seq_++, kKindPut, key, value);

    PendingOp op;
    op.key = std::string(key);
    op.is_put = true;
    op.slot.offset = off;
    op.slot.table_off = off + kFixedHeader + key.size();
    op.slot.payload_off = off + header_secs * sector_;
    op.slot.value_len = value.size();
    op.slot.n_sectors = std::uint32_t(n_psec);
    pending_.push_back(std::move(op));
    staged_sectors_ += n_psec;
    ++staged_puts_;
}

void
Archive::stageRemove(std::string_view key)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (key.empty() || key.size() > kMaxKeyLen)
        throw core::FormatError("archive: bad key length");
    encodeSegment(staging_, staged_seq_++, kKindRemove, key, {});
    PendingOp op;
    op.key = std::string(key);
    op.is_put = false;
    pending_.push_back(std::move(op));
    ++staged_removes_;
}

bool
Archive::commit()
{
    std::lock_guard<std::mutex> lock(mu_);
    return commitLocked();
}

bool
Archive::commitLocked()
{
    if (staging_.empty())
        return true;
    bool ok = !broken_;
    std::string_view out = staging_;
    // The first commit of a new archive creates its file, with the
    // superblock in the same write as the batch. A file that appeared
    // meanwhile is another writer's: refuse it rather than clobber.
    std::string created;
    if (ok && fd_ < 0) {
        fd_ = ::open(cfg_.path.c_str(),
                     O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
        struct stat st{};
        ok = fd_ >= 0 && ::fstat(fd_, &st) == 0 && st.st_size == 0;
        created = superblock(sector_);
        created += staging_;
        out = created;
    }
    // The whole batch goes down in one write call — that write *is*
    // the group commit (the loop only resumes a partial write). No
    // fsync: durability is to the page cache.
    std::size_t done = 0;
    while (ok && done < out.size()) {
        const ssize_t n =
            ::write(fd_, out.data() + done, out.size() - done);
        if (n <= 0)
            ok = false;
        else
            done += std::size_t(n);
    }
    if (!ok) {
        ++stats_.write_failures;
        // Roll the file back to the last good segment so the partial
        // batch can never be scanned as a live prefix later. A file
        // this commit created goes back to empty and is created again
        // by the next one.
        if (!created.empty()) {
            if (fd_ >= 0 && done > 0 && ::ftruncate(fd_, 0) != 0)
                broken_ = true;
            if (fd_ >= 0)
                ::close(fd_);
            fd_ = -1;
        } else if (fd_ >= 0 && ::ftruncate(fd_, off_t(end_)) != 0) {
            broken_ = true;
        }
        staged_seq_ = next_seq_;
    } else {
        end_ += staging_.size();
        next_seq_ = staged_seq_;
        for (auto &op : pending_) {
            if (op.is_put) {
                const auto it = dir_.find(op.key);
                if (it != dir_.end()) {
                    ++stats_.dead_segments;
                    it->second = op.slot;
                } else {
                    dir_.emplace(std::move(op.key), op.slot);
                }
            } else {
                ++stats_.dead_segments;
                if (dir_.erase(op.key) > 0)
                    ++stats_.dead_segments;
            }
        }
        stats_.puts += staged_puts_;
        stats_.removes += staged_removes_;
        stats_.payload_sectors_total += staged_sectors_;
        stats_.commit_bytes += staging_.size();
        ++stats_.group_commits;
        stats_.live_artifacts = dir_.size();
    }
    staging_.clear();
    pending_.clear();
    staged_sectors_ = 0;
    staged_puts_ = 0;
    staged_removes_ = 0;
    return ok;
}

bool
Archive::put(std::string_view key, std::string_view value)
{
    stagePut(key, value);
    return commit();
}

void
Archive::ensureMappedLocked(std::uint64_t need)
{
    need = std::max<std::uint64_t>(need, sector_);
    if (active_.size() >= need)
        return;
    // Map the full logical file; outgrown mappings retire but stay
    // alive so spans handed out earlier keep pointing at real bytes.
    MappedFile next;
    next.open(cfg_.path, std::size_t(end_));
    if (active_.size() > 0)
        retired_.push_back(std::move(active_));
    active_ = std::move(next);
    ++stats_.remaps;
}

bool
Archive::verifySlotLocked(const char *base, Slot &slot)
{
    if (slot.verified)
        return true;
    for (std::uint32_t i = 0; i < slot.n_sectors; ++i) {
        const std::uint32_t want = load<std::uint32_t>(
            base + slot.table_off + std::uint64_t(4) * i);
        const std::uint32_t got = common::crc32(
            base + slot.payload_off + std::uint64_t(i) * sector_,
            std::size_t(sector_));
        if (want != got) {
            ++stats_.sector_crc_failures;
            return false;
        }
    }
    slot.verified = true;
    stats_.payload_sectors_verified += slot.n_sectors;
    return true;
}

GetStatus
Archive::get(std::string_view key, std::span<const char> &out)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = dir_.find(key);
    if (it == dir_.end())
        return GetStatus::Missing;
    Slot &slot = it->second;
    ensureMappedLocked(slot.payload_off +
                       std::uint64_t(slot.n_sectors) * sector_);
    if (!verifySlotLocked(active_.data(), slot))
        return GetStatus::Corrupt;
    out = {active_.data() + slot.payload_off,
           std::size_t(slot.value_len)};
    return GetStatus::Ok;
}

std::optional<std::string>
Archive::getCopy(std::string_view key)
{
    std::span<const char> span;
    if (get(key, span) != GetStatus::Ok)
        return std::nullopt;
    return std::string(span.data(), span.size());
}

std::optional<Archive::Extent>
Archive::valueExtent(std::string_view key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = dir_.find(key);
    if (it == dir_.end())
        return std::nullopt;
    return Extent{it->second.payload_off, it->second.value_len};
}

bool
Archive::contains(std::string_view key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dir_.find(key) != dir_.end();
}

std::vector<std::string>
Archive::keys() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(dir_.size());
    for (const auto &kv : dir_)
        out.push_back(kv.first);
    return out;
}

std::size_t
Archive::liveCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dir_.size();
}

bool
Archive::compact()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!commitLocked())
        return false;

    // Stream the replacement file: superblock + the live set,
    // renumbered from seq 1, one segment in memory at a time, every
    // value copied byte-identically after verifying its sectors
    // (compaction must not launder a corrupt artifact into a
    // freshly-CRC'd one).
    const std::string tmp = cfg_.path + ".compact";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        std::string seg = superblock(sector_);
        os.write(seg.data(), std::streamsize(seg.size()));
        std::uint64_t seq = 1;
        bool verified = true;
        for (auto &kv : dir_) {
            Slot &slot = kv.second;
            ensureMappedLocked(slot.payload_off +
                               std::uint64_t(slot.n_sectors) * sector_);
            verified = verifySlotLocked(active_.data(), slot);
            if (!os || !verified)
                break;
            seg.clear();
            encodeSegment(seg, seq++, kKindPut, kv.first,
                          {active_.data() + slot.payload_off,
                           std::size_t(slot.value_len)});
            os.write(seg.data(), std::streamsize(seg.size()));
        }
        os.flush();
        if (!os || !verified) {
            os.close();
            std::remove(tmp.c_str());
            if (verified)
                ++stats_.write_failures;
            return false;
        }
    }

    // Point of no return for outstanding spans: swap the file in and
    // rescan. (compact() is documented to invalidate spans.)
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    active_.reset();
    retired_.clear();
    if (std::rename(tmp.c_str(), cfg_.path.c_str()) != 0) {
        std::remove(tmp.c_str());
        ++stats_.write_failures;
        openLocked(false); // stay usable on the old file
        return false;
    }
    ++stats_.compactions;
    openLocked(false);
    return true;
}

ArchiveStats
Archive::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    ArchiveStats out = stats_;
    out.live_artifacts = dir_.size();
    for (const auto &kv : dir_)
        out.live_bytes += kv.second.payload_off - kv.second.offset +
                          std::uint64_t(kv.second.n_sectors) * sector_;
    out.dead_bytes = end_ - sector_ - out.live_bytes;
    out.mmap_active = active_.mapped();
    return out;
}

} // namespace eddie::store
