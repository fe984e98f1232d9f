/**
 * @file
 * EDDIEARC — the segmented, verified artifact container (DESIGN.md
 * §8). One append-only file holds keyed segments of trained models
 * and of checkpoint snapshots/delta segments.
 *
 * Layout (all offsets aligned to kSectorSize, 512 bytes):
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
 *  - Group commit: commit() encodes the puts and removes of one
 *    Batch and lands them in ONE write syscall. A failed commit
 *    truncates the file back to its pre-commit end, so the archive
 *    never exposes a half-written batch to a later scan.
 *  - Copy-out reads, verified on every read: get() preads the value's
 *    CRC table and payload sectors through the archive's descriptor,
 *    checks every sector and copies the value out. A byte changed on
 *    disk after an earlier good read, or a file cut short under an
 *    open archive, reads as Corrupt.
 *  - Tail-only verification: opening scans and CRC-checks segment
 *    *headers* only (that is what rebuilds the key directory); payload
 *    sectors are checked by the reads that return them. Recovery
 *    therefore checksums only the artifacts it actually reads — the
 *    live tail — not every dead byte ever appended (stats report
 *    verified vs. total sectors to prove it).
 *  - Torn-tail fallback: a truncated or bit-flipped final batch fails
 *    its header CRC (or runs past EOF) and is dropped with a counted
 *    fallback; everything before it stays readable. A damaged header
 *    with a CRC-valid header anywhere after it is not a torn tail but
 *    mid-file damage: opening throws FormatError and leaves the file
 *    untouched, since truncating there would delete live artifacts.
 *  - Last-write-wins: re-putting a key supersedes the old segment
 *    (counted dead); compact() copies the live segments once into a
 *    fresh file and atomically renames it over the old one.
 *  - Read-only readers: readValue() answers one lookup without
 *    opening the file for writing or dropping its torn tail, so a
 *    model loads from a file its reader may not write, and a copy
 *    still in progress is never cut short by a reader.
 *
 * Thread-safe: one mutex over directory and IO.
 */

#ifndef EDDIE_STORE_ARCHIVE_H
#define EDDIE_STORE_ARCHIVE_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eddie::store
{

/** The sector every offset is aligned to; a superblock naming any
 *  other size is refused (FormatError). */
inline constexpr std::uint32_t kSectorSize = 512;

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
    /** Payload sectors CRC-verified so far, once per read — the
     *  measure of "recovery checks only the tail it reads". */
    std::uint64_t payload_sectors_verified = 0;
    std::uint64_t write_failures = 0; ///< swallowed commit failures
    std::uint64_t compactions = 0;
};

/** Outcome of a point lookup. */
enum class GetStatus
{
    Ok,      ///< value copied out, sectors verified
    Missing, ///< key not in the directory (plain miss)
    /** Key present, but a payload sector failed its CRC or the file
     *  no longer holds all of the value. */
    Corrupt,
};

class Archive
{
  public:
    /** Opens the archive at @p path (reading the file once and
     *  scanning its segment headers), or a new one whose file the
     *  first commit creates. Throws core::IoError on IO failure or
     *  when a new archive's directory is not writable,
     *  core::FormatError when the file exists but is not an EDDIEARC
     *  v1 archive or has a damaged segment header before its last
     *  valid one. */
    explicit Archive(std::string path);
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

    /** The puts and removes one commit() lands together. It owns its
     *  strings, so an encoded value is moved in, not copied. */
    struct Batch
    {
        std::vector<std::pair<std::string, std::string>> puts;
        std::vector<std::string> removes;
    };

    /**
     * Group commit: encodes @p batch's puts, then its removes, and
     * lands them in one write syscall, so a later scan sees all of
     * them or none. Throws FormatError, before anything is written,
     * on an empty or oversized key or an oversized value. Returns
     * false on a swallowed IO failure (counted; the file is truncated
     * back to its pre-commit end and the directory is unchanged).
     */
    bool commit(const Batch &batch);

    /** A one-put commit(). */
    bool put(std::string key, std::string value);

    /**
     * Point lookup: reads @p key's CRC table and payload sectors from
     * the file, checks every sector and, on Ok, copies the value into
     * @p out. Every call reads and verifies afresh. Corrupt when a
     * sector fails its CRC or the file has been cut short under the
     * value; throws core::IoError when the read itself fails.
     */
    GetStatus get(std::string_view key, std::string &out);

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
     * Compaction: copies each live segment once into
     * path + ".compact" — its payload and CRC table
     * as they are, after verifying every payload sector; its seq
     * renumbered from 1 and its header CRC re-sealed — renames that
     * file over the archive and adopts the directory of the offsets
     * it wrote. Every live artifact's value bytes are preserved
     * byte-identically. Returns false (file untouched) on IO failure
     * or when a live artifact fails verification.
     */
    bool compact();

    ArchiveStats stats() const;
    const std::string &path() const { return path_; }

  private:
    struct Slot
    {
        std::uint64_t offset = 0;      ///< segment start
        std::uint64_t table_off = 0;   ///< per-sector CRC table
        std::uint64_t payload_off = 0; ///< first value byte
        std::uint64_t value_len = 0;
        std::uint32_t n_sectors = 0; ///< payload sectors

        /** File bytes from the segment start to its payload's end. */
        std::uint64_t segmentBytes() const
        {
            return payload_off - offset +
                   std::uint64_t(n_sectors) * kSectorSize;
        }
    };

    /** For readValue(): an archive object over no file. */
    Archive() = default;

    void openLocked();
    /** Checks the superblock of @p file and scans the segments after
     *  it. */
    void scanLocked(std::string_view file);
    /** CRC-checks @p n_sectors payload sectors at @p payload against
     *  the table at @p table (counted as verified when they match). */
    bool verifyLocked(const char *table, const char *payload,
                      std::uint32_t n_sectors);

    std::string path_;

    mutable std::mutex mu_;
    std::map<std::string, Slot, std::less<>> dir_;
    /** Logical end of the last good segment (append point). */
    std::uint64_t end_ = 0;
    std::uint64_t next_seq_ = 1; ///< seq of the next segment
    /** Read/append descriptor; -1 until the first commit of a new
     *  archive creates the file. */
    int fd_ = -1;
    bool broken_ = false; ///< truncate-after-failed-commit also failed
    ArchiveStats stats_;
};

} // namespace eddie::store

#endif // EDDIE_STORE_ARCHIVE_H
