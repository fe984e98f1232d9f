/**
 * @file
 * Property tests for the EDDIEARC artifact container, reusing the
 * bit-flip/truncation discipline of tests/core/corruption_test.cpp:
 * any damaged file must either load with the damage counted (torn
 * tail dropped, Corrupt get) or fail with a typed error — never
 * crash, never return silently wrong bytes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/errors.h"
#include "store/archive.h"

namespace fs = std::filesystem;
using eddie::store::Archive;
using eddie::store::GetStatus;
using eddie::store::kSectorSize;

namespace
{

std::string
tempPath(const std::string &name)
{
    return (fs::path(::testing::TempDir()) / name).string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), std::streamsize(bytes.size()));
}

/** Deterministic filler that is not all-one-byte, so a misaligned
 *  read cannot accidentally look correct. */
std::string
pattern(std::size_t n, std::uint64_t seed)
{
    std::string out(n, '\0');
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
    for (std::size_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out[i] = char(x & 0xFF);
    }
    return out;
}

/** @p key's value, or @p fallback when get() is not Ok. */
std::string
valueOr(Archive &arc, const std::string &key,
        const std::string &fallback = "")
{
    std::string out;
    return arc.get(key, out) == GetStatus::Ok ? out : fallback;
}

} // namespace

TEST(ArchiveTest, RoundTripsValuesOfAwkwardSizes)
{
    const std::string path = tempPath("arc_roundtrip.arc");
    fs::remove(path);
    // Sizes straddling every sector boundary case, including empty.
    const std::vector<std::size_t> sizes = {0,    1,    511,  512,
                                            513,  1023, 1024, 4000};
    {
        Archive arc(path);
        for (std::size_t i = 0; i < sizes.size(); ++i)
            arc.stagePut("key-" + std::to_string(i),
                         pattern(sizes[i], i));
        ASSERT_TRUE(arc.commit());
        // One batch, one commit.
        EXPECT_EQ(arc.stats().group_commits, 1u);
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            std::string got;
            ASSERT_EQ(arc.get("key-" + std::to_string(i), got),
                      GetStatus::Ok);
            EXPECT_EQ(got, pattern(sizes[i], i));
        }
    }
    // Reopen: the scan must rebuild the same directory.
    Archive arc(path);
    EXPECT_EQ(arc.liveCount(), sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i)
        EXPECT_EQ(valueOr(arc, "key-" + std::to_string(i), "<missing>"),
                  pattern(sizes[i], i));
    EXPECT_EQ(arc.stats().torn_tail_dropped, 0u);
}

TEST(ArchiveTest, LastWriteWinsAndRemove)
{
    const std::string path = tempPath("arc_lww.arc");
    fs::remove(path);
    Archive arc(path);
    ASSERT_TRUE(arc.put("a", "first"));
    ASSERT_TRUE(arc.put("a", "second"));
    ASSERT_TRUE(arc.put("b", "keep"));
    EXPECT_EQ(valueOr(arc, "a"), "second");
    EXPECT_EQ(arc.stats().dead_segments, 1u);

    arc.stageRemove("a");
    ASSERT_TRUE(arc.commit());
    EXPECT_FALSE(arc.contains("a"));
    EXPECT_TRUE(arc.contains("b"));
    EXPECT_EQ(arc.liveCount(), 1u);

    // Reopen: supersession and tombstone replay identically.
    Archive re(path);
    EXPECT_FALSE(re.contains("a"));
    EXPECT_EQ(valueOr(re, "b"), "keep");
}

TEST(ArchiveTest, LazyVerificationCountsOnlyTouchedSectors)
{
    const std::string path = tempPath("arc_lazy.arc");
    fs::remove(path);
    {
        Archive arc(path);
        arc.stagePut("hot", pattern(kSectorSize * 4, 1));  // 4 sectors
        arc.stagePut("cold", pattern(kSectorSize * 8, 2)); // 8 sectors
        ASSERT_TRUE(arc.commit());
    }
    Archive arc(path);
    // Open scans headers only: nothing payload-verified yet.
    EXPECT_EQ(arc.stats().payload_sectors_verified, 0u);
    EXPECT_EQ(arc.stats().payload_sectors_total, 12u);
    std::string got;
    ASSERT_EQ(arc.get("hot", got), GetStatus::Ok);
    // Only the read key's sectors were checksummed.
    EXPECT_EQ(arc.stats().payload_sectors_verified, 4u);
    // Every read verifies afresh.
    ASSERT_EQ(arc.get("hot", got), GetStatus::Ok);
    EXPECT_EQ(arc.stats().payload_sectors_verified, 8u);
}

/** A file cut short under an open archive: a value that no longer
 *  fits in it reads as Corrupt (or a typed IoError), never as a
 *  signal. The cut lands a page below the value, after an earlier
 *  read of another key. */
TEST(ArchiveTest, TruncatedUnderAnOpenArchiveReadsCorrupt)
{
    const std::string path = tempPath("arc_truncated_open.arc");
    fs::remove(path);
    Archive arc(path);
    ASSERT_TRUE(arc.put("a", pattern(10000, 1)));
    ASSERT_TRUE(arc.put("b", pattern(100000, 2)));
    EXPECT_EQ(valueOr(arc, "a"), pattern(10000, 1));
    const auto b = arc.valueExtent("b");
    ASSERT_TRUE(b.has_value());
    ASSERT_GE(b->offset, 3 * 4096u);
    fs::resize_file(path, 4096);

    std::string got;
    try {
        EXPECT_EQ(arc.get("b", got), GetStatus::Corrupt);
    } catch (const eddie::core::IoError &) {
    }
    EXPECT_EQ(arc.get("a", got), GetStatus::Corrupt);
    fs::remove(path);
}

/** Every read checks the bytes it returns: a payload byte flipped on
 *  disk after a good read makes the next read Corrupt. */
TEST(ArchiveTest, FlippedAfterAGoodReadReadsCorrupt)
{
    const std::string path = tempPath("arc_flip_after_read.arc");
    fs::remove(path);
    Archive arc(path);
    ASSERT_TRUE(arc.put("a", pattern(3000, 1)));
    std::string got;
    ASSERT_EQ(arc.get("a", got), GetStatus::Ok);
    ASSERT_EQ(got, pattern(3000, 1));

    const auto extent = arc.valueExtent("a");
    ASSERT_TRUE(extent.has_value());
    std::string bytes = readFile(path);
    bytes[std::size_t(extent->offset + 100)] ^= 0x20;
    writeFile(path, bytes);

    EXPECT_EQ(arc.get("a", got), GetStatus::Corrupt);
    EXPECT_EQ(arc.stats().sector_crc_failures, 1u);
    fs::remove(path);
}

/** Size and CRC-32 of the file compaction writes over a fixed history
 *  of puts, overwrites and removes — a key whose header spans two
 *  sectors, an empty value and a whole-sector value included. The
 *  digest was recorded from the compaction that re-encoded every live
 *  value; copying each segment once must write the same bytes. */
TEST(ArchiveTest, CompactionMatchesItsGolden)
{
    const std::string path = tempPath("arc_compact_golden.arc");
    fs::remove(path);
    Archive arc(path);
    for (int i = 0; i < 9; ++i)
        ASSERT_TRUE(
            arc.put("k" + std::to_string(i), pattern(300 + 700 * i, i)));
    for (int i = 0; i < 9; i += 2)
        ASSERT_TRUE(
            arc.put("k" + std::to_string(i), pattern(40 * i + 1, 50 + i)));
    for (int i = 0; i < 9; i += 3)
        arc.stageRemove("k" + std::to_string(i));
    ASSERT_TRUE(arc.commit());
    ASSERT_TRUE(arc.put(std::string(600, 'q'), pattern(1500, 77)));
    ASSERT_TRUE(arc.put("z", ""));
    ASSERT_TRUE(arc.put("s", pattern(kSectorSize * 2, 78)));
    ASSERT_TRUE(arc.compact());

    const std::string bytes = readFile(path);
    EXPECT_EQ(bytes.size(), 20480u);
    EXPECT_EQ(eddie::common::crc32(bytes), 0x46eb0269u);
    fs::remove(path);
}

TEST(ArchiveTest, CompactionPreservesLiveSetByteIdentically)
{
    const std::string path = tempPath("arc_compact.arc");
    fs::remove(path);
    Archive arc(path);
    std::map<std::string, std::string> expect;
    for (int i = 0; i < 12; ++i) {
        const std::string key = "k" + std::to_string(i);
        ASSERT_TRUE(arc.put(key, pattern(50 + 70 * i, i)));
        expect[key] = pattern(50 + 70 * i, i);
    }
    // Churn: overwrite half, remove a third of the keys.
    for (int i = 0; i < 12; i += 2) {
        const std::string key = "k" + std::to_string(i);
        ASSERT_TRUE(arc.put(key, pattern(33 * i + 1, 100 + i)));
        expect[key] = pattern(33 * i + 1, 100 + i);
    }
    for (int i = 0; i < 12; i += 3) {
        const std::string key = "k" + std::to_string(i);
        arc.stageRemove(key);
        expect.erase(key);
    }
    ASSERT_TRUE(arc.commit());

    const auto before = fs::file_size(path);
    const std::uint64_t sector = kSectorSize;
    ASSERT_GT(arc.stats().dead_segments, 0u);
    EXPECT_EQ(sector + arc.stats().live_bytes + arc.stats().dead_bytes,
              before);
    const std::uint64_t live_bytes = arc.stats().live_bytes;
    ASSERT_TRUE(arc.compact());
    const auto after = fs::file_size(path);

    EXPECT_LT(after, before);
    EXPECT_EQ(arc.stats().dead_segments, 0u);
    EXPECT_EQ(arc.stats().dead_bytes, 0u);
    EXPECT_EQ(arc.stats().live_bytes, live_bytes);
    EXPECT_EQ(sector + live_bytes, after);
    EXPECT_EQ(arc.liveCount(), expect.size());
    for (const auto &kv : expect)
        EXPECT_EQ(valueOr(arc, kv.first, "<missing>"), kv.second)
            << kv.first;
    // The archive keeps appending after the segments it copied.
    ASSERT_TRUE(arc.put("k1", "after"));
    expect["k1"] = "after";
    // And the compacted file reopens clean.
    Archive re(path);
    EXPECT_EQ(re.liveCount(), expect.size());
    EXPECT_EQ(re.stats().torn_tail_dropped, 0u);
    for (const auto &kv : expect)
        EXPECT_EQ(valueOr(re, kv.first, "<missing>"), kv.second);
}

TEST(ArchiveTest, CompactionRefusesACorruptArtifactAndKeepsTheFile)
{
    const std::string path = tempPath("arc_compact_corrupt.arc");
    fs::remove(path);
    {
        Archive arc(path);
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(arc.put("k" + std::to_string(i), pattern(300, i)));
        ASSERT_TRUE(arc.put("k1", pattern(200, 9))); // one dead segment
        const auto extent = arc.valueExtent("k2");
        ASSERT_TRUE(extent.has_value());
        std::string bytes = readFile(path);
        bytes[std::size_t(extent->offset + 10)] ^= 0x40;
        writeFile(path, bytes);
    }
    const std::string damaged = readFile(path);

    // Compaction verifies every live value before copying it: a
    // corrupt one must not come out of it with fresh CRCs.
    Archive arc(path);
    EXPECT_FALSE(arc.compact());
    EXPECT_EQ(readFile(path), damaged);
    EXPECT_FALSE(fs::exists(path + ".compact"));
    EXPECT_EQ(arc.stats().compactions, 0u);
    EXPECT_EQ(valueOr(arc, "k0", "<missing>"), pattern(300, 0));
    std::string got;
    EXPECT_EQ(arc.get("k2", got), GetStatus::Corrupt);
    fs::remove(path);
}

TEST(ArchiveTest, TruncatedTailDropsOnlyTheTornBatch)
{
    const std::string path = tempPath("arc_trunc.arc");
    // Two commits: the first must survive any truncation of the
    // second; truncation inside the first may drop it (counted), but
    // never yields wrong bytes.
    std::uint64_t first_commit_end = 0;
    {
        fs::remove(path);
        Archive arc(path);
        arc.stagePut("base-1", pattern(300, 1));
        arc.stagePut("base-2", pattern(40, 2));
        ASSERT_TRUE(arc.commit());
        first_commit_end = fs::file_size(path);
        ASSERT_TRUE(arc.put("tail", pattern(500, 3)));
    }
    const std::string full = readFile(path);
    std::mt19937 rng(7);
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t cut =
            1 + std::size_t(rng()) % (full.size() - 1);
        writeFile(path, full.substr(0, cut));
        if (cut < kSectorSize) {
            // Cut inside the superblock: typed error, not a crash.
            EXPECT_THROW(Archive{path}, eddie::core::Error);
            continue;
        }
        Archive arc(path);
        if (cut >= first_commit_end) {
            // The first batch is intact; the tail segment is torn
            // (counted) unless the cut landed exactly on the first
            // commit's end, which is simply a shorter clean archive.
            EXPECT_EQ(valueOr(arc, "base-1"), pattern(300, 1));
            EXPECT_EQ(valueOr(arc, "base-2"), pattern(40, 2));
            EXPECT_EQ(arc.stats().torn_tail_dropped,
                      cut == first_commit_end ? 0u : 1u);
            EXPECT_FALSE(arc.contains("tail"));
        } else {
            // Cut inside the first batch: whatever keys survive must
            // read back exactly; the torn remainder is counted.
            EXPECT_EQ(arc.stats().torn_tail_dropped, 1u);
            std::string b1;
            if (arc.get("base-1", b1) == GetStatus::Ok) {
                EXPECT_EQ(b1, pattern(300, 1));
            }
            EXPECT_FALSE(arc.contains("tail"));
        }
    }
}

TEST(ArchiveTest, BitFlipsAreDetectedNeverSilent)
{
    const std::string path = tempPath("arc_flip.arc");
    fs::remove(path);
    // Values of 4-13 sectors, so payload bytes (which the sector CRCs
    // cover) far outweigh header padding (which nothing covers).
    const auto value = [](int i) { return pattern(2000 + 900 * i, i); };
    {
        Archive arc(path);
        for (int i = 0; i < 6; ++i)
            arc.stagePut("key-" + std::to_string(i), value(i));
        ASSERT_TRUE(arc.commit());
    }
    const std::string clean = readFile(path);
    std::mt19937 rng(11);
    int detected = 0;
    for (int trial = 0; trial < 200; ++trial) {
        std::string bytes = clean;
        const std::size_t at = std::size_t(rng()) % bytes.size();
        const int bit = int(rng()) & 7;
        bytes[at] = char(bytes[at] ^ (1u << bit));
        writeFile(path, bytes);
        try {
            Archive arc(path);
            bool damage_seen =
                arc.stats().torn_tail_dropped > 0 ||
                arc.liveCount() < 6;
            for (int i = 0; i < 6; ++i) {
                std::string got;
                const auto st = arc.get("key-" + std::to_string(i), got);
                if (st == GetStatus::Ok) {
                    // Verified reads must be byte-exact.
                    ASSERT_EQ(got, value(i));
                } else {
                    damage_seen = true;
                }
            }
            // A flipped padding byte (header or payload tail pad) may
            // legitimately go unnoticed by the directory scan, but
            // payload padding is covered by the sector CRCs, so reads
            // can only miss damage that changes no retrievable byte.
            if (damage_seen)
                ++detected;
        } catch (const eddie::core::Error &) {
            ++detected; // superblock damage → typed error
        }
    }
    // The overwhelming majority of flips hit covered bytes.
    EXPECT_GT(detected, 150);
}

/** readValue() answers from a file it never writes: a committed key
 *  reads back, a key whose batch is torn reads as Missing, a flipped
 *  payload byte as Corrupt, and the file keeps every byte — torn tail
 *  included — where opening it for writing would cut the tail. */
TEST(ArchiveTest, ReadValueLeavesTheFileByteIdentical)
{
    const std::string path = tempPath("arc_read_value.arc");
    fs::remove(path);
    const std::string a = pattern(300, 1);
    const std::string b = pattern(700, 2);
    {
        Archive arc(path);
        ASSERT_TRUE(arc.put("a", a));
        ASSERT_TRUE(arc.put("b", b));
    }
    // Tear the second batch: keep its header, cut its payload short.
    const std::string whole = readFile(path);
    const std::string torn = whole.substr(0, whole.size() - 200);
    writeFile(path, torn);

    std::string out;
    EXPECT_EQ(Archive::readValue(path, "a", out), GetStatus::Ok);
    EXPECT_EQ(out, a);
    EXPECT_EQ(Archive::readValue(path, "b", out), GetStatus::Missing);
    EXPECT_EQ(Archive::readValue(path, "zz", out), GetStatus::Missing);
    EXPECT_EQ(readFile(path), torn);

    // A flipped payload byte of "a" (its first sector follows the
    // superblock and one header sector).
    std::string flipped = torn;
    flipped[2 * kSectorSize + 5] = char(flipped[2 * kSectorSize + 5] ^ 0x10);
    writeFile(path, flipped);
    EXPECT_EQ(Archive::readValue(path, "a", out), GetStatus::Corrupt);
    EXPECT_EQ(readFile(path), flipped);

    // A writer opening the same torn file drops the tail.
    writeFile(path, torn);
    {
        Archive arc(path);
        EXPECT_EQ(arc.stats().torn_tail_dropped, 1u);
    }
    EXPECT_LT(readFile(path).size(), torn.size());

    writeFile(path, "eddie-model 1\nnot an archive\n");
    EXPECT_THROW(Archive::readValue(path, "a", out),
                 eddie::core::FormatError);
    EXPECT_THROW(Archive::readValue(tempPath("arc_read_missing.arc"),
                                    "a", out),
                 eddie::core::IoError);
    fs::remove(path);
}

TEST(ArchiveTest, RejectsNonArchiveFilesWithTypedError)
{
    const std::string path = tempPath("arc_notarc.arc");
    writeFile(path, "this is not an archive at all, far too short");
    EXPECT_THROW(Archive{path}, eddie::core::FormatError);
    writeFile(path, std::string(4096, 'x'));
    EXPECT_THROW(Archive{path}, eddie::core::FormatError);
}

TEST(ArchiveTest, DamagedHeaderBeforeValidSegmentsIsNotATornTail)
{
    // Four puts, the first superseded by the second. A flipped bit in
    // the first segment's header is mid-file damage: every live key
    // sits after it, so opening must refuse (typed) and leave the
    // file byte-identical instead of truncating it to the superblock.
    const std::string path = tempPath("arc_midfile.arc");
    fs::remove(path);
    {
        Archive arc(path);
        ASSERT_TRUE(arc.put("key", pattern(300, 1)));
        ASSERT_TRUE(arc.put("key", pattern(300, 2)));
        ASSERT_TRUE(arc.put("x", pattern(200, 3)));
        ASSERT_TRUE(arc.put("y", pattern(100, 4)));
    }
    std::string bytes = readFile(path);
    bytes[kSectorSize + 24] =
        char(bytes[kSectorSize + 24] ^ 0x01); // first value_len
    writeFile(path, bytes);

    EXPECT_THROW(Archive{path}, eddie::core::FormatError);
    EXPECT_EQ(readFile(path), bytes);
}

TEST(ArchiveTest, ValueExtentLocatesTheLiveValueBytes)
{
    const std::string path = tempPath("arc_extent.arc");
    fs::remove(path);
    Archive arc(path);
    ASSERT_TRUE(arc.put("a", pattern(300, 5)));
    ASSERT_TRUE(arc.put("b", pattern(70, 6)));
    ASSERT_TRUE(arc.put("a", pattern(260, 7))); // supersedes the first
    EXPECT_FALSE(arc.valueExtent("missing").has_value());
    const std::string file = readFile(path);
    for (const auto &[key, value] :
         {std::pair<std::string, std::string>{"a", pattern(260, 7)},
          {"b", pattern(70, 6)}}) {
        const auto extent = arc.valueExtent(key);
        ASSERT_TRUE(extent.has_value()) << key;
        ASSERT_EQ(extent->length, value.size()) << key;
        EXPECT_EQ(file.substr(std::size_t(extent->offset),
                              std::size_t(extent->length)),
                  value)
            << key;
    }
}

TEST(ArchiveTest, NewArchiveFileIsCreatedByTheFirstCommit)
{
    const std::string path = tempPath("arc_lazy.arc");
    fs::remove(path);
    {
        Archive arc(path);
        EXPECT_FALSE(fs::exists(path));
        EXPECT_EQ(arc.liveCount(), 0u);
        EXPECT_FALSE(arc.contains("k"));
        ASSERT_TRUE(arc.put("k", pattern(300, 8)));
        EXPECT_TRUE(fs::exists(path));
        EXPECT_EQ(valueOr(arc, "k"), pattern(300, 8));
    }
    Archive reopened(path);
    EXPECT_EQ(valueOr(reopened, "k"), pattern(300, 8));

    // An archive that could never be created fails at open, not at
    // its first commit.
    EXPECT_THROW(Archive{tempPath("no-such-dir/x.arc")},
                 eddie::core::IoError);
}
