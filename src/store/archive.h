/**
 * @file
 * EDDIEARC — the segmented, verified artifact container (DESIGN.md
 * §8). One append-only file holds keyed segments of every artifact
 * kind: trained models, capture-cache spills, and checkpoint
 * snapshots/delta segments.
 *
 * Layout (all offsets sector-aligned, sector size fixed at creation):
 *
 *   sector 0        superblock: magic "EDDIEARC", version, sector
 *                   size, CRC32 over the superblock fields
 *   sector 1..      segments, each:
 *                     header  — seq, kind (put/remove), key length,
 *                               value length, the key bytes, a CRC32
 *                               *per payload sector*, and a CRC32
 *                               over the header itself; zero-padded
 *                               to a sector boundary
 *                     payload — the value bytes, zero-padded to a
 *                               sector boundary (puts only)
 *
 * Invariants the format buys:
 *
 *  - Group commit: stagePut()/stageRemove() encode into a staging
 *    buffer; commit() lands the whole batch in ONE write syscall. A
 *    failed commit truncates the file back to its pre-commit end, so
 *    the archive never exposes a half-written batch to a later scan.
 *  - Zero-copy reads: the payload is contiguous (the per-sector CRC
 *    table lives in the header, not interleaved), so get() returns a
 *    span straight into the read-only mmap. Spans stay valid across
 *    later commits — grown mappings are added, old ones retired but
 *    kept — and are invalidated only by compact() or destruction.
 *  - Verify-on-demand: opening scans and CRC-checks segment *headers*
 *    only (that is what rebuilds the key directory); payload sectors
 *    are CRC-verified lazily on first get() of their key, then
 *    remembered. Recovery therefore checksums only the artifacts it
 *    actually reads — the live tail — not every dead byte ever
 *    appended (stats report verified vs. total sectors to prove it).
 *  - Torn-tail fallback: a truncated or bit-flipped final batch fails
 *    its header CRC (or runs past EOF) and is dropped with a counted
 *    fallback; everything before it stays readable. A damaged header
 *    with a CRC-valid header anywhere after it is not a torn tail but
 *    mid-file damage: opening throws FormatError and leaves the file
 *    untouched, since truncating there would delete live artifacts.
 *  - Last-write-wins: re-putting a key supersedes the old segment
 *    (counted dead); compact() rewrites the live set into a fresh
 *    file and atomically renames it over the old one.
 *  - Read-only readers: readValue() answers one lookup without
 *    opening the file for writing or dropping its torn tail, so a
 *    model loads from a file its reader may not write, and a copy
 *    still in progress is never cut short by a reader.
 *
 * Thread-safe: one mutex over directory, staging, and IO.
 */

#ifndef EDDIE_STORE_ARCHIVE_H
#define EDDIE_STORE_ARCHIVE_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mapped_file.h"

namespace eddie::store
{

struct ArchiveConfig
{
    /** Archive file; when absent, the first commit creates it (with
     *  its superblock). */
    std::string path;
    /** Sector size for a *newly created* archive; an existing file's
     *  superblock wins. Power of two in [64, 1 MiB]. */
    std::uint32_t sector_size = 512;
};

/** Counters; snapshot via Archive::stats(). */
struct ArchiveStats
{
    std::uint64_t segments_scanned = 0; ///< headers walked at open
    std::uint64_t live_artifacts = 0;   ///< current directory size
    std::uint64_t dead_segments = 0;    ///< superseded puts + removes
    /** File bytes (headers and payload) of the live segments, and of
     *  every other segment: what compact() would reclaim. */
    std::uint64_t live_bytes = 0;
    std::uint64_t dead_bytes = 0;
    /** Torn or corrupt tail batches dropped (open-time fallback). */
    std::uint64_t torn_tail_dropped = 0;
    std::uint64_t group_commits = 0; ///< successful commit() calls
    std::uint64_t commit_bytes = 0;  ///< bytes appended by commits
    std::uint64_t puts = 0;          ///< committed put segments
    std::uint64_t removes = 0;       ///< committed remove segments
    /** Payload-sector CRC mismatches found by get() (→ Corrupt). */
    std::uint64_t sector_crc_failures = 0;
    /** All payload sectors present in the file (live + dead). */
    std::uint64_t payload_sectors_total = 0;
    /** Payload sectors actually CRC-verified so far — the measure of
     *  "recovery checks only the tail it reads". */
    std::uint64_t payload_sectors_verified = 0;
    std::uint64_t write_failures = 0; ///< swallowed commit failures
    std::uint64_t compactions = 0;
    std::uint64_t remaps = 0; ///< growth remappings
    /** True when reads go through a real mmap (false = read-buffer
     *  fallback; see mapped_file.h). */
    bool mmap_active = false;
};

/** Outcome of a point lookup. */
enum class GetStatus
{
    Ok,      ///< span returned, sectors verified
    Missing, ///< key not in the directory (plain miss)
    Corrupt, ///< key present but a payload sector failed its CRC
};

class Archive
{
  public:
    /** Opens an existing archive (scanning the segment headers), or a
     *  new one whose file the first commit creates. Throws
     *  core::IoError on IO failure or when a new archive's directory
     *  is not writable, core::FormatError when the file exists but is
     *  not an EDDIEARC v1 archive or has a damaged segment header
     *  before its last valid one. */
    explicit Archive(ArchiveConfig cfg);
    ~Archive();

    Archive(const Archive &) = delete;
    Archive &operator=(const Archive &) = delete;

    /**
     * Read-only lookup of one key in the archive at @p path: reads
     * the file, scans its segment headers, CRC-verifies @p key's
     * payload sectors and copies the value into @p out. It never
     * writes: no write descriptor, no torn-tail truncation, so read
     * permission is enough and the file stays byte for byte as it
     * was. A value whose batch is torn reads as Missing. Throws
     * core::IoError when the file cannot be read, core::FormatError
     * when it is not an EDDIEARC v1 archive or has mid-file damage.
     */
    static GetStatus readValue(const std::string &path,
                               std::string_view key, std::string &out);

    /** Stages one put/remove for the next commit(). Staged ops are
     *  invisible to get() until committed. Throws FormatError on an
     *  oversized key or value. */
    void stagePut(std::string_view key, std::string_view value);
    void stageRemove(std::string_view key);

    /** Lands every staged op in one write syscall. Returns false on a
     *  swallowed IO failure (counted; the file is truncated back to
     *  its pre-commit end and the staged batch is dropped). */
    bool commit();

    /** stagePut + commit in one call. */
    bool put(std::string_view key, std::string_view value);

    /**
     * Point lookup. On Ok, @p out refers directly into the archive
     * mapping (zero-copy) and stays valid until compact() or
     * destruction. First access CRC-verifies the value's payload
     * sectors against the header table (then remembers the verdict).
     */
    GetStatus get(std::string_view key, std::span<const char> &out);

    /** get() into an owned string; nullopt on Missing OR Corrupt
     *  (stats tell them apart). */
    std::optional<std::string> getCopy(std::string_view key);

    /** Where a live value's bytes sit in the file. */
    struct Extent
    {
        std::uint64_t offset = 0;
        std::uint64_t length = 0;
    };
    /** File extent of @p key's live value; nullopt when the key is not
     *  live. For fault injection and tooling that must aim at one
     *  artifact inside a shared container. */
    std::optional<Extent> valueExtent(std::string_view key) const;

    bool contains(std::string_view key) const;
    /** Live keys in ascending order. */
    std::vector<std::string> keys() const;
    std::size_t liveCount() const;

    /**
     * Compaction: lands any staged batch, rewrites the live set
     * (verifying every payload sector) into path + ".compact", renames
     * it over the archive, and rescans. Every live artifact's value bytes are
     * preserved byte-identically. Returns false (file untouched) on
     * IO failure or when a live artifact fails verification.
     * Invalidates all previously returned spans.
     */
    bool compact();

    ArchiveStats stats() const;
    const std::string &path() const { return cfg_.path; }
    std::uint32_t sectorSize() const { return sector_; }

  private:
    struct Slot
    {
        std::uint64_t offset = 0;      ///< segment start
        std::uint64_t table_off = 0;   ///< per-sector CRC table
        std::uint64_t payload_off = 0; ///< first value byte
        std::uint64_t value_len = 0;
        std::uint32_t n_sectors = 0; ///< payload sectors
        bool verified = false;       ///< payload CRCs checked
    };

    /** One staged directory mutation, applied iff commit() lands. */
    struct PendingOp
    {
        std::string key;
        bool is_put = false;
        Slot slot;
    };

    /** For readValue(): an archive object over no file. */
    Archive() = default;

    void openLocked(bool creating_ok);
    /** Checks the superblock of the @p file_size bytes at @p base,
     *  adopts its sector size and scans the segments after it. */
    void scanFileLocked(const char *base, std::uint64_t file_size);
    void scanLocked(const char *base, std::size_t file_size);
    void encodeSegment(std::string &out, std::uint64_t seq,
                       std::uint32_t kind, std::string_view key,
                       std::string_view value) const;
    bool commitLocked();
    void ensureMappedLocked(std::uint64_t need);
    /** CRC-checks @p slot's payload sectors in the file bytes at
     *  @p base (once; the verdict is remembered). */
    bool verifySlotLocked(const char *base, Slot &slot);

    ArchiveConfig cfg_;
    std::uint32_t sector_ = 512;

    mutable std::mutex mu_;
    std::map<std::string, Slot, std::less<>> dir_;
    /** Logical end of the last good segment (append point). */
    std::uint64_t end_ = 0;
    std::uint64_t next_seq_ = 1;     ///< seq of the next segment
    std::string staging_;            ///< encoded staged segments
    std::uint64_t staged_seq_ = 1;   ///< next_seq_ after commit
    std::vector<PendingOp> pending_; ///< staged directory updates
    std::uint64_t staged_sectors_ = 0;
    std::uint64_t staged_puts_ = 0;
    std::uint64_t staged_removes_ = 0;
    /** Append descriptor; -1 until the first commit of a new
     *  archive creates the file. */
    int fd_ = -1;
    bool broken_ = false; ///< truncate-after-failed-commit also failed
    MappedFile active_;
    /** Outgrown mappings, kept so returned spans stay valid. */
    std::vector<MappedFile> retired_;
    ArchiveStats stats_;
};

} // namespace eddie::store

#endif // EDDIE_STORE_ARCHIVE_H
