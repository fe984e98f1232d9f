#include "archive.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
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

/** Sector 0 of a new archive: magic, version, sector size, reserved,
 *  and a CRC32 over those fields, zero-padded to the sector. */
std::string
superblock()
{
    std::string block;
    common::ByteWriter w(block);
    w.bytes(std::string_view(kMagic, sizeof kMagic));
    w.put(kVersion);
    w.put(kSectorSize);
    w.put<std::uint64_t>(0);
    w.put(common::crc32(block.data(), block.size()));
    block.resize(kSectorSize, '\0');
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
           SegmentHeader &h)
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
    h.n_psec = ceilDiv(h.value_len, kSectorSize);
    h.header_bytes = kFixedHeader + h.key_len + 4 * h.n_psec + 4;
    h.header_secs = ceilDiv(h.header_bytes, kSectorSize);
    if (h.header_bytes > file_size - off)
        return false;
    return load<std::uint32_t>(base + off + h.header_bytes - 4) ==
           common::crc32(base + off, std::size_t(h.header_bytes - 4));
}

/** Appends one segment — header, CRC table, payload — to @p out. */
void
encodeSegment(std::string &out, std::uint64_t seq, std::uint32_t kind,
              std::string_view key, std::string_view value)
{
    const std::uint64_t n_psec = ceilDiv(value.size(), kSectorSize);
    const std::uint64_t header_secs = ceilDiv(
        kFixedHeader + key.size() + 4 * n_psec + 4, kSectorSize);
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
        const std::size_t at = std::size_t(i) * kSectorSize;
        const std::size_t len =
            std::min<std::size_t>(kSectorSize, value.size() - at);
        std::uint32_t c = common::crc32(value.data() + at, len);
        if (len < kSectorSize) {
            const std::string zeros(kSectorSize - len, '\0');
            c = common::crc32(zeros.data(), zeros.size(), c);
        }
        w.put(c);
    }
    w.put(common::crc32(out.data() + start, out.size() - start));
    out.resize(start + std::size_t(header_secs) * kSectorSize, '\0');
    out.append(value);
    out.resize(start + std::size_t(header_secs + n_psec) * kSectorSize,
               '\0');
}

/** Renumbers the segment image at @p seg to @p seq and re-seals its
 *  header: the CRC over the first @p header_bytes - 4 bytes, then
 *  zeros up to the payload at @p payload_rel. */
void
sealHeader(char *seg, std::uint64_t seq, std::size_t header_bytes,
           std::size_t payload_rel)
{
    std::memcpy(seg, &seq, sizeof seq);
    const std::uint32_t crc = common::crc32(seg, header_bytes - 4);
    std::memcpy(seg + header_bytes - 4, &crc, sizeof crc);
    std::memset(seg + header_bytes, 0, payload_rel - header_bytes);
}

/** pread()s up to @p len bytes at @p off into @p buf, resuming short
 *  reads; returns the bytes read (fewer than @p len only at the end
 *  of the file), or -1 with errno set when a read fails. */
std::int64_t
readAt(int fd, char *buf, std::size_t len, std::uint64_t off)
{
    std::size_t done = 0;
    while (done < len) {
        const ssize_t n =
            ::pread(fd, buf + done, len - done, off_t(off + done));
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            return -1;
        if (n == 0)
            break;
        done += std::size_t(n);
    }
    return std::int64_t(done);
}

/** The whole file at @p path, in one read. */
std::string
readFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        throw core::ioErrorErrno("archive: open for read", path);
    struct stat st{};
    std::string file;
    std::int64_t got = -1;
    if (::fstat(fd, &st) == 0) {
        file.resize(std::size_t(st.st_size));
        got = readAt(fd, file.data(), file.size(), 0);
    }
    if (got < 0) {
        const auto err = core::ioErrorErrno("archive: read", path);
        ::close(fd);
        throw err;
    }
    ::close(fd);
    file.resize(std::size_t(got));
    return file;
}

/** write()s @p bytes to @p fd, resuming partial writes; returns the
 *  bytes written, fewer than all of them only when a write fails. */
std::size_t
writeAll(int fd, std::string_view bytes)
{
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n <= 0)
            break;
        done += std::size_t(n);
    }
    return done;
}

} // namespace

Archive::Archive(std::string path) : path_(std::move(path))
{
    std::lock_guard<std::mutex> lock(mu_);
    openLocked();
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
    // One read into memory: a writer replacing the file in place
    // meanwhile cannot change the bytes between check and copy.
    const std::string file = readFile(path);
    Archive arc;
    arc.path_ = path;
    std::lock_guard<std::mutex> lock(arc.mu_);
    arc.scanLocked(file);
    const auto it = arc.dir_.find(key);
    if (it == arc.dir_.end())
        return GetStatus::Missing;
    const Slot &slot = it->second;
    if (!arc.verifyLocked(file.data() + slot.table_off,
                          file.data() + slot.payload_off, slot.n_sectors))
        return GetStatus::Corrupt;
    out.assign(file.data() + slot.payload_off, std::size_t(slot.value_len));
    return GetStatus::Ok;
}

void
Archive::openLocked()
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const std::uint64_t fsize = fs::file_size(path_, ec);
    if (ec || fsize == 0) {
        // A new archive has nothing to scan, and its file — superblock
        // first — is created by the first commit rather than here:
        // file creation costs tens of microseconds, and a serving run
        // opens its checkpoint archive before any session starts,
        // while its commits run on the watchdog. Only check here that
        // the file can be created.
        const fs::path dir = fs::path(path_).parent_path();
        errno = 0;
        if (::access(dir.empty() ? "." : dir.c_str(), W_OK) != 0)
            throw core::ioErrorErrno("archive: create", path_);
        end_ = kSectorSize;
        return;
    }
    // One read into memory, as readValue() does.
    const std::string file = readFile(path_);
    scanLocked(file);

    // Drop any torn tail now so the append descriptor (O_APPEND)
    // lands the next commit right after the last good segment.
    if (end_ < file.size()) {
        fs::resize_file(path_, end_, ec);
        if (ec)
            throw core::IoError(
                "archive: cannot truncate torn tail of " + path_ +
                " to offset " + std::to_string(end_) + ": " +
                ec.message());
    }

    fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
    if (fd_ < 0)
        throw core::ioErrorErrno("archive: open for append", path_);
    staged_seq_ = next_seq_;
}

void
Archive::scanLocked(std::string_view file)
{
    const char *base = file.data();
    const std::uint64_t file_size = file.size();
    if (file_size < kSuperBytes + 4)
        throw core::FormatError("archive: truncated superblock in " +
                                path_);
    if (std::memcmp(base, kMagic, sizeof kMagic) != 0)
        throw core::FormatError("archive: bad magic in " + path_);
    if (load<std::uint32_t>(base + 8) != kVersion)
        throw core::FormatError("archive: unsupported version in " +
                                path_);
    if (load<std::uint32_t>(base + kSuperBytes) !=
        common::crc32(base, kSuperBytes))
        throw core::FormatError(
            "archive: superblock checksum mismatch in " + path_);
    if (load<std::uint32_t>(base + 12) != kSectorSize)
        throw core::FormatError("archive: bad sector size in " + path_);
    if (file_size < kSectorSize)
        throw core::FormatError("archive: truncated superblock in " +
                                path_);

    dir_.clear();
    next_seq_ = 1;
    stats_.segments_scanned = 0;
    stats_.payload_sectors_total = 0;
    stats_.payload_sectors_verified = 0;
    std::uint64_t dead = 0;

    std::uint64_t off = kSectorSize;
    SegmentHeader h;
    while (off < file_size) {
        if (!readHeader(base, off, file_size, h) || h.seq != next_seq_ ||
            (h.header_secs + h.n_psec) * kSectorSize > file_size - off)
            break;

        std::string key(base + off + kFixedHeader,
                        std::size_t(h.key_len));
        if (h.kind == kKindPut) {
            Slot slot;
            slot.offset = off;
            slot.table_off = off + kFixedHeader + h.key_len;
            slot.payload_off = off + h.header_secs * kSectorSize;
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
        off += (h.header_secs + h.n_psec) * kSectorSize;
        ++next_seq_;
    }
    if (off < file_size) {
        // A torn write damages only the last batch, so nothing valid
        // can follow it. A CRC-valid header further on means this
        // damage is mid-file, and truncating here would delete every
        // artifact after it.
        for (std::uint64_t at = off + kSectorSize; at < file_size;
             at += kSectorSize)
            if (readHeader(base, at, file_size, h))
                throw core::FormatError(
                    "archive: damaged segment at offset " +
                    std::to_string(off) + " precedes a valid one at " +
                    std::to_string(at) + " in " + path_);
        ++stats_.torn_tail_dropped;
    }
    end_ = off;
    stats_.dead_segments = dead;
    stats_.live_artifacts = dir_.size();
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
    const std::uint64_t n_psec = ceilDiv(value.size(), kSectorSize);
    const std::uint64_t header_secs = ceilDiv(
        kFixedHeader + key.size() + 4 * n_psec + 4, kSectorSize);

    encodeSegment(staging_, staged_seq_++, kKindPut, key, value);

    PendingOp op;
    op.key = std::string(key);
    op.is_put = true;
    op.slot.offset = off;
    op.slot.table_off = off + kFixedHeader + key.size();
    op.slot.payload_off = off + header_secs * kSectorSize;
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
        fd_ = ::open(path_.c_str(),
                     O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
        struct stat st{};
        ok = fd_ >= 0 && ::fstat(fd_, &st) == 0 && st.st_size == 0;
        created = superblock();
        created += staging_;
        out = created;
    }
    // The whole batch goes down in one write call — that write *is*
    // the group commit (writeAll only resumes a partial write). No
    // fsync: durability is to the page cache.
    const std::size_t done = ok ? writeAll(fd_, out) : 0;
    ok = ok && done == out.size();
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

bool
Archive::verifyLocked(const char *table, const char *payload,
                      std::uint32_t n_sectors)
{
    for (std::uint32_t i = 0; i < n_sectors; ++i) {
        const std::uint32_t want =
            load<std::uint32_t>(table + std::uint64_t(4) * i);
        const std::uint32_t got =
            common::crc32(payload + std::uint64_t(i) * kSectorSize,
                          std::size_t(kSectorSize));
        if (want != got) {
            ++stats_.sector_crc_failures;
            return false;
        }
    }
    stats_.payload_sectors_verified += n_sectors;
    return true;
}

GetStatus
Archive::get(std::string_view key, std::string &out)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = dir_.find(key);
    if (it == dir_.end())
        return GetStatus::Missing;
    const Slot &slot = it->second;
    // The CRC table through the last payload sector, in one read.
    std::string seg(
        std::size_t(slot.segmentBytes() - (slot.table_off - slot.offset)),
        '\0');
    const std::int64_t got =
        readAt(fd_, seg.data(), seg.size(), slot.table_off);
    if (got < 0)
        throw core::ioErrorErrno("archive: read", path_,
                                 static_cast<long long>(slot.table_off));
    const char *payload = seg.data() + (slot.payload_off - slot.table_off);
    // A file cut short under the value reads short: Corrupt.
    if (std::uint64_t(got) < seg.size() ||
        !verifyLocked(seg.data(), payload, slot.n_sectors))
        return GetStatus::Corrupt;
    out.assign(payload, std::size_t(slot.value_len));
    return GetStatus::Ok;
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

    // Stream the replacement file: the superblock, then each live
    // segment copied once, one in memory at a time. Its payload
    // sectors are verified against its CRC table first (compaction
    // must not launder a corrupt artifact into a fresh file); payload
    // and table are copied as they are, the seq renumbered from 1 and
    // the header re-sealed. The new directory is the offsets written.
    const std::string tmp = path_ + ".compact";
    const int out = ::open(tmp.c_str(),
                           O_RDWR | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                           0644);
    const std::string super = superblock();
    bool written = out >= 0 && writeAll(out, super) == super.size();
    bool verified = true;
    decltype(dir_) dir;
    std::uint64_t end = kSectorSize;
    std::uint64_t seq = 1;
    std::uint64_t sectors = 0;
    std::string seg;
    for (const auto &[key, slot] : dir_) {
        if (!written)
            break;
        seg.resize(std::size_t(slot.segmentBytes()));
        const std::size_t table_rel = slot.table_off - slot.offset;
        const std::size_t payload_rel = slot.payload_off - slot.offset;
        verified =
            readAt(fd_, seg.data(), seg.size(), slot.offset) ==
                std::int64_t(seg.size()) &&
            verifyLocked(seg.data() + table_rel, seg.data() + payload_rel,
                         slot.n_sectors);
        if (!verified)
            break;
        sealHeader(seg.data(), seq++,
                   table_rel + std::size_t(4) * slot.n_sectors + 4,
                   payload_rel);
        written = writeAll(out, seg) == seg.size();
        Slot &moved = dir.emplace(key, slot).first->second;
        moved.offset = end;
        moved.table_off = end + table_rel;
        moved.payload_off = end + payload_rel;
        end += seg.size();
        sectors += slot.n_sectors;
    }
    if (!written || !verified ||
        std::rename(tmp.c_str(), path_.c_str()) != 0) {
        // The archive keeps its file, descriptor and directory.
        if (out >= 0)
            ::close(out);
        std::remove(tmp.c_str());
        if (verified)
            ++stats_.write_failures;
        return false;
    }
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = out;
    dir_ = std::move(dir);
    end_ = end;
    next_seq_ = seq;
    staged_seq_ = seq;
    broken_ = false;
    stats_.dead_segments = 0;
    stats_.payload_sectors_total = sectors;
    ++stats_.compactions;
    return true;
}

ArchiveStats
Archive::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    ArchiveStats out = stats_;
    out.live_artifacts = dir_.size();
    for (const auto &kv : dir_)
        out.live_bytes += kv.second.segmentBytes();
    out.dead_bytes = end_ - kSectorSize - out.live_bytes;
    return out;
}

} // namespace eddie::store
