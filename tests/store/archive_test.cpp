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

#include "core/errors.h"
#include "store/archive.h"
#include "store/span_stream.h"

namespace fs = std::filesystem;
using eddie::store::Archive;
using eddie::store::ArchiveConfig;
using eddie::store::GetStatus;

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

ArchiveConfig
smallConfig(const std::string &path)
{
    ArchiveConfig cfg;
    cfg.path = path;
    cfg.sector_size = 128; // small sectors → many sectors per value
    return cfg;
}

} // namespace

TEST(ArchiveTest, RoundTripsValuesOfAwkwardSizes)
{
    const std::string path = tempPath("arc_roundtrip.arc");
    fs::remove(path);
    // Sizes straddling every sector boundary case, including empty.
    const std::vector<std::size_t> sizes = {0,   1,   127, 128,
                                            129, 255, 256, 1000};
    {
        Archive arc(smallConfig(path));
        for (std::size_t i = 0; i < sizes.size(); ++i)
            arc.stagePut("key-" + std::to_string(i),
                         pattern(sizes[i], i));
        ASSERT_TRUE(arc.commit());
        // One batch, one commit.
        EXPECT_EQ(arc.stats().group_commits, 1u);
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            std::span<const char> span;
            ASSERT_EQ(arc.get("key-" + std::to_string(i), span),
                      GetStatus::Ok);
            EXPECT_EQ(std::string(span.data(), span.size()),
                      pattern(sizes[i], i));
        }
    }
    // Reopen: the scan must rebuild the same directory.
    Archive arc(smallConfig(path));
    EXPECT_EQ(arc.liveCount(), sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        auto got = arc.getCopy("key-" + std::to_string(i));
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, pattern(sizes[i], i));
    }
    EXPECT_EQ(arc.stats().torn_tail_dropped, 0u);
}

TEST(ArchiveTest, LastWriteWinsAndRemove)
{
    const std::string path = tempPath("arc_lww.arc");
    fs::remove(path);
    Archive arc(smallConfig(path));
    ASSERT_TRUE(arc.put("a", "first"));
    ASSERT_TRUE(arc.put("a", "second"));
    ASSERT_TRUE(arc.put("b", "keep"));
    EXPECT_EQ(arc.getCopy("a").value_or(""), "second");
    EXPECT_EQ(arc.stats().dead_segments, 1u);

    arc.stageRemove("a");
    ASSERT_TRUE(arc.commit());
    EXPECT_FALSE(arc.contains("a"));
    EXPECT_TRUE(arc.contains("b"));
    EXPECT_EQ(arc.liveCount(), 1u);

    // Reopen: supersession and tombstone replay identically.
    Archive re(smallConfig(path));
    EXPECT_FALSE(re.contains("a"));
    EXPECT_EQ(re.getCopy("b").value_or(""), "keep");
}

TEST(ArchiveTest, SpansSurviveLaterCommits)
{
    const std::string path = tempPath("arc_span.arc");
    fs::remove(path);
    Archive arc(smallConfig(path));
    const std::string v = pattern(777, 42);
    ASSERT_TRUE(arc.put("stable", v));
    std::span<const char> span;
    ASSERT_EQ(arc.get("stable", span), GetStatus::Ok);

    // Grow the archive well past the first mapping.
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(
            arc.put("grow-" + std::to_string(i), pattern(500, i)));
    std::span<const char> later;
    ASSERT_EQ(arc.get("grow-19", later), GetStatus::Ok);

    // The pre-growth span still reads the original bytes.
    EXPECT_EQ(std::string(span.data(), span.size()), v);
}

TEST(ArchiveTest, LazyVerificationCountsOnlyTouchedSectors)
{
    const std::string path = tempPath("arc_lazy.arc");
    fs::remove(path);
    {
        Archive arc(smallConfig(path));
        arc.stagePut("hot", pattern(128 * 4, 1));  // 4 sectors
        arc.stagePut("cold", pattern(128 * 8, 2)); // 8 sectors
        ASSERT_TRUE(arc.commit());
    }
    Archive arc(smallConfig(path));
    // Open scans headers only: nothing payload-verified yet.
    EXPECT_EQ(arc.stats().payload_sectors_verified, 0u);
    EXPECT_EQ(arc.stats().payload_sectors_total, 12u);
    ASSERT_TRUE(arc.getCopy("hot").has_value());
    // Only the read key's sectors were checksummed.
    EXPECT_EQ(arc.stats().payload_sectors_verified, 4u);
    // A second read re-verifies nothing.
    ASSERT_TRUE(arc.getCopy("hot").has_value());
    EXPECT_EQ(arc.stats().payload_sectors_verified, 4u);
}

TEST(ArchiveTest, CompactionPreservesLiveSetByteIdentically)
{
    const std::string path = tempPath("arc_compact.arc");
    fs::remove(path);
    Archive arc(smallConfig(path));
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
    const std::uint64_t sector = arc.sectorSize();
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
    for (const auto &kv : expect) {
        auto got = arc.getCopy(kv.first);
        ASSERT_TRUE(got.has_value()) << kv.first;
        EXPECT_EQ(*got, kv.second) << kv.first;
    }
    // And the compacted file reopens clean.
    Archive re(smallConfig(path));
    EXPECT_EQ(re.liveCount(), expect.size());
    for (const auto &kv : expect)
        EXPECT_EQ(re.getCopy(kv.first).value_or("<missing>"),
                  kv.second);
}

TEST(ArchiveTest, CompactionRefusesACorruptArtifactAndKeepsTheFile)
{
    const std::string path = tempPath("arc_compact_corrupt.arc");
    fs::remove(path);
    {
        Archive arc(smallConfig(path));
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
    Archive arc(smallConfig(path));
    EXPECT_FALSE(arc.compact());
    EXPECT_EQ(readFile(path), damaged);
    EXPECT_FALSE(fs::exists(path + ".compact"));
    EXPECT_EQ(arc.stats().compactions, 0u);
    EXPECT_EQ(arc.getCopy("k0").value_or("<missing>"), pattern(300, 0));
    std::span<const char> span;
    EXPECT_EQ(arc.get("k2", span), GetStatus::Corrupt);
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
        Archive arc(smallConfig(path));
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
        if (cut < 128) {
            // Cut inside the superblock: typed error, not a crash.
            EXPECT_THROW(Archive(smallConfig(path)),
                         eddie::core::Error);
            continue;
        }
        Archive arc(smallConfig(path));
        if (cut >= first_commit_end) {
            // The first batch is intact; the tail segment is torn
            // (counted) unless the cut landed exactly on the first
            // commit's end, which is simply a shorter clean archive.
            EXPECT_EQ(arc.getCopy("base-1").value_or(""),
                      pattern(300, 1));
            EXPECT_EQ(arc.getCopy("base-2").value_or(""),
                      pattern(40, 2));
            EXPECT_EQ(arc.stats().torn_tail_dropped,
                      cut == first_commit_end ? 0u : 1u);
            EXPECT_FALSE(arc.contains("tail"));
        } else {
            // Cut inside the first batch: whatever keys survive must
            // read back exactly; the torn remainder is counted.
            EXPECT_EQ(arc.stats().torn_tail_dropped, 1u);
            auto b1 = arc.getCopy("base-1");
            if (b1.has_value()) {
                EXPECT_EQ(*b1, pattern(300, 1));
            }
            EXPECT_FALSE(arc.contains("tail"));
        }
    }
}

TEST(ArchiveTest, BitFlipsAreDetectedNeverSilent)
{
    const std::string path = tempPath("arc_flip.arc");
    fs::remove(path);
    {
        Archive arc(smallConfig(path));
        for (int i = 0; i < 6; ++i)
            arc.stagePut("key-" + std::to_string(i),
                         pattern(200 + 90 * i, i));
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
            Archive arc(smallConfig(path));
            bool damage_seen =
                arc.stats().torn_tail_dropped > 0 ||
                arc.liveCount() < 6;
            for (int i = 0; i < 6; ++i) {
                std::span<const char> span;
                const auto st =
                    arc.get("key-" + std::to_string(i), span);
                if (st == GetStatus::Ok) {
                    // Verified reads must be byte-exact.
                    ASSERT_EQ(
                        std::string(span.data(), span.size()),
                        pattern(200 + 90 * i, i));
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

TEST(ArchiveTest, SniffDistinguishesArchivesFromOtherFiles)
{
    const std::string arc_path = tempPath("arc_sniff.arc");
    const std::string txt_path = tempPath("arc_sniff.txt");
    fs::remove(arc_path);
    {
        Archive arc(smallConfig(arc_path));
        ASSERT_TRUE(arc.put("k", "v"));
    }
    writeFile(txt_path, "eddie-model 1\nnot an archive\n");
    EXPECT_TRUE(Archive::sniff(arc_path));
    EXPECT_FALSE(Archive::sniff(txt_path));
    EXPECT_FALSE(Archive::sniff(tempPath("arc_sniff_missing.arc")));
}

TEST(ArchiveTest, SpanStreamReadsArchiveValuesInPlace)
{
    const std::string path = tempPath("arc_stream.arc");
    fs::remove(path);
    Archive arc(smallConfig(path));
    const std::string v = pattern(513, 9);
    ASSERT_TRUE(arc.put("blob", v));
    std::span<const char> span;
    ASSERT_EQ(arc.get("blob", span), GetStatus::Ok);

    eddie::store::SpanStream is(span.data(), span.size());
    std::string out(v.size(), '\0');
    is.read(out.data(), std::streamsize(out.size()));
    ASSERT_TRUE(bool(is));
    EXPECT_EQ(out, v);
    // Seek support for codecs that rewind.
    is.clear();
    is.seekg(0);
    EXPECT_EQ(is.get(), int(static_cast<unsigned char>(v[0])));
    EXPECT_EQ(is.peek(), int(static_cast<unsigned char>(v[1])));
}

TEST(ArchiveTest, RejectsNonArchiveFilesWithTypedError)
{
    const std::string path = tempPath("arc_notarc.arc");
    writeFile(path, "this is not an archive at all, far too short");
    EXPECT_THROW(Archive(smallConfig(path)),
                 eddie::core::FormatError);
    writeFile(path, std::string(4096, 'x'));
    EXPECT_THROW(Archive(smallConfig(path)),
                 eddie::core::FormatError);
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
        Archive arc(smallConfig(path));
        ASSERT_TRUE(arc.put("key", pattern(300, 1)));
        ASSERT_TRUE(arc.put("key", pattern(300, 2)));
        ASSERT_TRUE(arc.put("x", pattern(200, 3)));
        ASSERT_TRUE(arc.put("y", pattern(100, 4)));
    }
    std::string bytes = readFile(path);
    bytes[128 + 24] = char(bytes[128 + 24] ^ 0x01); // first value_len
    writeFile(path, bytes);

    EXPECT_THROW(Archive(smallConfig(path)), eddie::core::FormatError);
    EXPECT_EQ(readFile(path), bytes);
}

TEST(ArchiveTest, ValueExtentLocatesTheLiveValueBytes)
{
    const std::string path = tempPath("arc_extent.arc");
    fs::remove(path);
    Archive arc(smallConfig(path));
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
        Archive arc(smallConfig(path));
        EXPECT_FALSE(fs::exists(path));
        EXPECT_EQ(arc.liveCount(), 0u);
        EXPECT_FALSE(arc.contains("k"));
        ASSERT_TRUE(arc.put("k", pattern(300, 8)));
        EXPECT_TRUE(fs::exists(path));
        EXPECT_EQ(arc.getCopy("k").value_or(""), pattern(300, 8));
    }
    Archive reopened(smallConfig(path));
    EXPECT_EQ(reopened.getCopy("k").value_or(""), pattern(300, 8));

    // An archive that could never be created fails at open, not at
    // its first commit.
    EXPECT_THROW(Archive(smallConfig(tempPath("no-such-dir/x.arc"))),
                 eddie::core::IoError);
}
