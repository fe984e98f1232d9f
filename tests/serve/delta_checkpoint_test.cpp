/**
 * @file
 * Tests of the group-committed checkpoint pipeline
 * (serve::CheckpointStore over an EDDIEARC container): group-snapshot
 * round-trips, v1 frames refused as FormatError, recovery from the
 * archive reproducing the live mirror byte-for-byte at every cut of a
 * full-snapshot + delta chain, the archive staying bounded across
 * many snapshot rewrites, and the corruption fallbacks — a torn
 * archive tail or a bit-flipped delta segment must recover to the
 * last good prefix of the chain with the fallback counted.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "../store/codec_samples.h"
#include "../store/file_size_limit.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "core/errors.h"
#include "serve/checkpoint.h"
#include "serve_test_util.h"
#include "store/archive.h"

namespace
{

using namespace eddie;
using namespace eddie::serve;
using serve_test::eventfulStream;
using serve_test::sharpModel;

/** @p ckpt as a one-shard group snapshot. */
std::string
bytes(const CheckpointData &ckpt)
{
    GroupCheckpoint group;
    group.shards.push_back(ckpt);
    return encodeGroupCheckpoint(group);
}

CheckpointData
stateAt(const core::Monitor &m)
{
    CheckpointData ckpt;
    ckpt.monitor = m.exportState();
    ckpt.source_pos = ckpt.monitor.step_index;
    return ckpt;
}

std::string
arcPath(const std::string &name)
{
    return testing::TempDir() + name + ".arc";
}

const std::string kPrefix = tenantKeyPrefix(kRunTenant);

/** One-shard store keyed into @p arc under kPrefix. */
CheckpointStoreConfig
storeConfig(store::Archive &arc, std::size_t full_every)
{
    CheckpointStoreConfig cfg;
    cfg.num_shards = 1;
    cfg.full_every = full_every;
    cfg.key_prefix = kPrefix;
    cfg.archive = &arc;
    return cfg;
}

TEST(GroupCheckpointTest, RoundTripPreservesEveryShard)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);

    GroupCheckpoint group;
    group.epoch = 5;
    for (std::size_t prefix : {std::size_t(40), std::size_t(90),
                               std::size_t(160)}) {
        core::Monitor m(model, core::MonitorConfig());
        const auto stream = eventfulStream(50 + prefix);
        for (std::size_t i = 0; i < prefix; ++i)
            m.step(stream[i]);
        group.shards.push_back(stateAt(m));
    }

    const std::string encoded = encodeGroupCheckpoint(group);
    const auto loaded =
        decodeGroupCheckpoint(encoded.data(), encoded.size());
    EXPECT_EQ(loaded.epoch, 5u);
    ASSERT_EQ(loaded.shards.size(), group.shards.size());
    for (std::size_t i = 0; i < group.shards.size(); ++i)
        EXPECT_EQ(bytes(loaded.shards[i]), bytes(group.shards[i]))
            << "shard " << i;
}

TEST(GroupCheckpointTest, V1FrameFailsAsFormatError)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    core::Monitor m(model, core::MonitorConfig());
    for (const auto &sts : eventfulStream(3))
        m.step(sts);

    // A v1 checkpoint framed one shard's state under version 1: the
    // one-shard group payload minus its epoch and shard count.
    const std::string v2 = bytes(stateAt(m));
    const std::size_t frame_head = 8 + 4 + 8; // magic, version, size
    const std::string v1_payload =
        v2.substr(frame_head + 16, v2.size() - frame_head - 16 - 4);
    const char magic[8] = {'E', 'D', 'D', 'I', 'E', 'C', 'K', 'P'};
    const std::string v1 = common::frame(magic, 1, v1_payload);
    EXPECT_THROW(decodeGroupCheckpoint(v1.data(), v1.size()),
                 core::FormatError);

    // Recovery treats a v1 image under the snapshot key as rot, not
    // as a cold start.
    const std::string path = arcPath("delta_ckpt_v1");
    std::remove(path.c_str());
    store::Archive arc(path);
    ASSERT_TRUE(arc.put(snapshotKey(kPrefix), v1));
    CheckpointStore store(storeConfig(arc, 16));
    EXPECT_EQ(store.recover(), std::vector<bool>{false});
    EXPECT_EQ(store.stats().snapshot_decode_failures, 1u);
    std::remove(path.c_str());
}

TEST(CheckpointStoreTest, RecoverMatchesLiveMirrorAtEveryCut)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto stream = eventfulStream(77);

    const std::string path = arcPath("delta_ckpt_every_cut");
    std::remove(path.c_str());
    store::Archive arc(path);
    // full_every 3: mix full rewrites and delta commits.
    CheckpointStore store(storeConfig(arc, 3));

    core::Monitor m(model, core::MonitorConfig());
    store.submitFull(0, stateAt(m));
    ASSERT_TRUE(store.flush());

    // Cut every 7 steps: cuts land mid-ring-wrap, inside the anomaly
    // burst (retro-marked records) and inside the dropout outage
    // (cleared history). After every group commit, a cold recovery
    // from a freshly opened archive must reproduce the live mirror
    // byte-for-byte — whether the newest cut sits in the snapshot or
    // at the end of a delta chain.
    for (std::size_t i = 0; i < stream.size(); ++i) {
        m.step(stream[i]);
        if ((i + 1) % 7 != 0)
            continue;
        store.submitDelta(0, m.exportDelta());
        ASSERT_TRUE(store.flush());

        store::Archive reopened(path);
        CheckpointStore fresh(storeConfig(reopened, 3));
        const auto recovered = fresh.recover();
        ASSERT_TRUE(recovered[0]) << "cut after step " << i;
        ASSERT_EQ(bytes(fresh.mirror(0)), bytes(store.mirror(0)))
            << "cut after step " << i;
        ASSERT_EQ(bytes(fresh.mirror(0)), bytes(stateAt(m)))
            << "cut after step " << i;
        EXPECT_EQ(fresh.stats().delta_fallbacks, 0u);
    }
    std::remove(path.c_str());
}

TEST(CheckpointStoreTest, CutImmediatelyAfterFullSnapshotRecovers)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto stream = eventfulStream(31);

    const std::string path = arcPath("delta_ckpt_after_full");
    std::remove(path.c_str());
    store::Archive arc(path);
    CheckpointStore store(storeConfig(arc, 1u << 20));

    core::Monitor m(model, core::MonitorConfig());
    for (std::size_t i = 0; i < 40; ++i)
        m.step(stream[i]);
    store.submitFull(0, stateAt(m));
    m.resetDeltaBaseline(); // next delta chains off this snapshot
    ASSERT_TRUE(store.flush()); // full snapshot, drops the delta keys

    // A one-step delta chained directly onto the fresh snapshot.
    m.step(stream[40]);
    store.submitDelta(0, m.exportDelta());
    ASSERT_TRUE(store.flush());

    store::Archive reopened(path);
    CheckpointStore fresh(storeConfig(reopened, 1u << 20));
    ASSERT_TRUE(fresh.recover()[0]);
    EXPECT_EQ(bytes(fresh.mirror(0)), bytes(stateAt(m)));
    EXPECT_EQ(fresh.stats().delta_fallbacks, 0u);
    std::remove(path.c_str());
}

/** Writes snapshot-at-40 plus delta commits at 60/80/100 into the
 *  archive at @p path and returns the expected state bytes at each
 *  cut (index 0 = snapshot at 40). */
std::vector<std::string>
buildChain(const std::string &path)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto stream = eventfulStream(123);

    std::remove(path.c_str());
    store::Archive arc(path);
    // Keep all cuts in the delta chain.
    CheckpointStore store(storeConfig(arc, 1u << 20));

    std::vector<std::string> cut_bytes;
    core::Monitor m(model, core::MonitorConfig());
    std::size_t pos = 0;
    for (; pos < 40; ++pos)
        m.step(stream[pos]);
    store.submitFull(0, stateAt(m));
    m.resetDeltaBaseline(); // deltas below chain off this snapshot
    EXPECT_TRUE(store.flush());
    cut_bytes.push_back(bytes(stateAt(m)));

    for (std::size_t cut : {std::size_t(60), std::size_t(80),
                            std::size_t(100)}) {
        for (; pos < cut; ++pos)
            m.step(stream[pos]);
        store.submitDelta(0, m.exportDelta());
        EXPECT_TRUE(store.flush());
        cut_bytes.push_back(bytes(stateAt(m)));
    }
    return cut_bytes;
}

TEST(CheckpointStoreTest, TruncatedDeltaTailFallsBackToLastGoodCut)
{
    const std::string path = arcPath("delta_ckpt_trunc");
    const auto cut_bytes = buildChain(path);

    // Tear the final segment: drop one byte off the archive's tail,
    // as a crash mid-commit would.
    const auto size = std::filesystem::file_size(path);
    ASSERT_GT(size, 1u);
    std::filesystem::resize_file(path, size - 1);

    store::Archive reopened(path);
    CheckpointStore fresh(storeConfig(reopened, 1u << 20));
    ASSERT_TRUE(fresh.recover()[0]);
    // Cuts at 40, 60, 80 survive; the torn cut at 100 is dropped —
    // counted by the archive, which drops a torn tail at open before
    // the store ever sees it.
    EXPECT_EQ(bytes(fresh.mirror(0)), cut_bytes[2]);
    EXPECT_EQ(reopened.stats().torn_tail_dropped, 1u);
    std::remove(path.c_str());
}

TEST(CheckpointStoreTest, ArchiveStaysBoundedAcrossSnapshotRewrites)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    core::Monitor m(model, core::MonitorConfig());
    for (const auto &sts : eventfulStream(40))
        m.step(sts);

    const std::string path = arcPath("delta_ckpt_bounded");
    std::remove(path.c_str());
    store::Archive arc(path);
    CheckpointStore store(storeConfig(arc, 2));
    store.submitFull(0, stateAt(m));
    m.resetDeltaBaseline();
    ASSERT_TRUE(store.flush());
    const auto first = std::filesystem::file_size(path);

    // 100 rewrite cycles of a state that no longer grows (the deltas
    // carry no steps). Each rewrite supersedes one snapshot image and
    // tombstones two delta segments; without compaction the file
    // would end near 200x its first size, with it under about 4x the
    // live set plus one cycle.
    std::uintmax_t largest = 0;
    for (int i = 0; i < 300; ++i) {
        store.submitDelta(0, m.exportDelta());
        ASSERT_TRUE(store.flush());
        largest = std::max(largest, std::filesystem::file_size(path));
    }
    EXPECT_EQ(store.stats().full_snapshots, 101u);
    EXPECT_GT(arc.stats().compactions, 0u);
    EXPECT_LE(largest, 6 * first);

    store::Archive reopened(path);
    CheckpointStore fresh(storeConfig(reopened, 2));
    ASSERT_TRUE(fresh.recover()[0]);
    EXPECT_EQ(bytes(fresh.mirror(0)), bytes(stateAt(m)));
    std::remove(path.c_str());
}

TEST(CheckpointStoreTest, BitFlippedSegmentFallsBackToSnapshot)
{
    const std::string path = arcPath("delta_ckpt_flip");
    const auto cut_bytes = buildChain(path);

    // Flip one bit inside the first delta segment's value; its CRC
    // check must reject it and recovery must stop the replay at the
    // snapshot rather than trust anything after the damage.
    std::uint64_t flip_at = 0;
    {
        store::Archive arc(path);
        const std::string delta_prefix = kPrefix + "ckpt/dlt/";
        for (const auto &key : arc.keys()) {
            if (key.rfind(delta_prefix, 0) != 0)
                continue;
            const auto extent = arc.valueExtent(key);
            ASSERT_TRUE(extent.has_value());
            ASSERT_GT(extent->length, 24u);
            flip_at = extent->offset + 24;
            break;
        }
    }
    ASSERT_NE(flip_at, 0u);
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        ASSERT_TRUE(f.is_open());
        f.seekg(std::streamoff(flip_at));
        char c = 0;
        f.get(c);
        f.seekp(std::streamoff(flip_at));
        f.put(char(c ^ 0x10));
    }

    store::Archive reopened(path);
    CheckpointStore fresh(storeConfig(reopened, 1u << 20));
    ASSERT_TRUE(fresh.recover()[0]);
    EXPECT_EQ(bytes(fresh.mirror(0)), cut_bytes[0]);
    EXPECT_EQ(fresh.stats().delta_fallbacks, 1u);
    EXPECT_GE(fresh.stats().delta_segments_dropped, 1u);
    std::remove(path.c_str());
}

/** A delta segment that fails to land (the file may not grow) leaves
 *  the mirror at the newest cut and makes the next flush rewrite the
 *  snapshot, so a fresh recovery reads that cut. */
TEST(CheckpointStoreTest, FailedSegmentWriteIsFollowedByASnapshot)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto stream = eventfulStream(77);

    const std::string path = arcPath("delta_ckpt_failed_segment");
    std::remove(path.c_str());
    store::Archive arc(path);
    CheckpointStore store(storeConfig(arc, 16));
    core::Monitor m(model, core::MonitorConfig());
    for (std::size_t i = 0; i < 40; ++i)
        m.step(stream[i]);
    store.submitFull(0, stateAt(m));
    m.resetDeltaBaseline();
    ASSERT_TRUE(store.flush());

    for (std::size_t i = 40; i < 60; ++i)
        m.step(stream[i]);
    store.submitDelta(0, m.exportDelta());
    {
        FileSizeLimit limit(std::filesystem::file_size(path));
        EXPECT_FALSE(store.flush());
    }
    EXPECT_EQ(store.stats().write_failures, 1u);
    EXPECT_EQ(arc.stats().write_failures, 1u);
    EXPECT_EQ(bytes(store.mirror(0)), bytes(stateAt(m)));

    ASSERT_TRUE(store.flush()); // nothing queued: the rewrite alone
    EXPECT_EQ(store.stats().full_snapshots, 2u);
    store::Archive reopened(path);
    CheckpointStore fresh(storeConfig(reopened, 16));
    ASSERT_TRUE(fresh.recover()[0]);
    EXPECT_EQ(bytes(fresh.mirror(0)), bytes(stateAt(m)));
    EXPECT_EQ(fresh.stats().delta_fallbacks, 0u);
    std::remove(path.c_str());
}

/** While writes keep failing, flushes back off: the flush after a
 *  failure retries, then the gap between attempts doubles, and every
 *  flush in between still applies its deltas to the mirror. Once
 *  writes land again, the first one is a snapshot of the newest cut.
 *  A run's last flush writes even while the store backs off. */
TEST(CheckpointStoreTest, FailedWritesBackOffAndTheFirstToLandIsASnapshot)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto stream = eventfulStream(78);

    const std::string path = arcPath("delta_ckpt_write_backoff");
    std::remove(path.c_str());
    store::Archive arc(path);
    CheckpointStore store(storeConfig(arc, 16));
    core::Monitor m(model, core::MonitorConfig());
    std::size_t next = 0;
    for (; next < 40; ++next)
        m.step(stream[next]);
    store.submitFull(0, stateAt(m));
    m.resetDeltaBaseline();
    ASSERT_TRUE(store.flush());

    const auto stepAndSubmit = [&] {
        m.step(stream[next++]);
        store.submitDelta(0, m.exportDelta());
    };
    {
        FileSizeLimit limit(std::filesystem::file_size(path));
        stepAndSubmit();
        EXPECT_FALSE(store.flush());
        ASSERT_EQ(store.stats().write_failures, 1u);
        for (int i = 0; i < 100; ++i) {
            stepAndSubmit();
            EXPECT_FALSE(store.flush());
        }
        // Every attempt failed, so the failures count the attempts:
        // the first one plus at most 10 in the 100 flushes after it.
        EXPECT_LE(store.stats().write_failures, 11u);
        EXPECT_EQ(arc.stats().write_failures,
                  store.stats().write_failures);
        EXPECT_EQ(bytes(store.mirror(0)), bytes(stateAt(m)));
    }

    const CheckpointStoreStats before = store.stats();
    std::size_t flushes = 0;
    while (store.stats().group_commits == before.group_commits &&
           flushes < 1000) {
        store.flush();
        ++flushes;
    }
    EXPECT_LE(flushes, 256u);
    EXPECT_EQ(store.stats().group_commits, before.group_commits + 1);
    EXPECT_EQ(store.stats().full_snapshots, before.full_snapshots + 1);
    {
        store::Archive reopened(path);
        CheckpointStore fresh(storeConfig(reopened, 16));
        ASSERT_TRUE(fresh.recover()[0]);
        EXPECT_EQ(bytes(fresh.mirror(0)), bytes(stateAt(m)));
    }

    // Two failed attempts in a row: the next plain flush would skip.
    {
        FileSizeLimit limit(std::filesystem::file_size(path));
        for (int i = 0; i < 2; ++i) {
            stepAndSubmit();
            EXPECT_FALSE(store.flush());
        }
    }
    stepAndSubmit();
    EXPECT_TRUE(store.flush(/*last=*/true));
    store::Archive reopened(path);
    CheckpointStore fresh(storeConfig(reopened, 16));
    ASSERT_TRUE(fresh.recover()[0]);
    EXPECT_EQ(bytes(fresh.mirror(0)), bytes(stateAt(m)));
    std::remove(path.c_str());
}

/** A queued delta that does not chain onto its shard's cut — the
 *  codec sample leaves six records where it claims step 42 — is a
 *  counted fallback, never a throw: the shard stays at its last good
 *  cut in memory, the flush that takes the delta still lands its
 *  segment as submitted (which recovery refuses the same way), and
 *  the next flush rewrites the snapshot without it. */
TEST(CheckpointStoreTest, DeltaThatDoesNotApplyIsCountedNotThrown)
{
    const std::string path = arcPath("delta_ckpt_bad_delta");
    std::remove(path.c_str());
    store::Archive arc(path);
    CheckpointStoreConfig cfg = storeConfig(arc, 16);
    cfg.num_shards = 2;
    CheckpointStore store(cfg);
    const CheckpointData good0 = codec_samples::checkpoint(0);
    const CheckpointData good1 = codec_samples::checkpoint(1);
    store.submitFull(0, good0);
    store.submitFull(1, good1);
    ASSERT_TRUE(store.flush());

    store.submitDelta(0, codec_samples::delta());
    CheckpointData mirrored;
    EXPECT_NO_THROW(mirrored = store.mirror(0));
    EXPECT_EQ(bytes(mirrored), bytes(good0));
    bool flushed = false;
    EXPECT_NO_THROW(flushed = store.flush());
    EXPECT_TRUE(flushed);
    EXPECT_EQ(store.stats().delta_fallbacks, 1u);
    EXPECT_EQ(bytes(store.mirror(0)), bytes(good0));
    const std::string segment_key = kPrefix + "ckpt/dlt/00000000";
    EXPECT_TRUE(arc.contains(segment_key));
    {
        store::Archive reopened(path);
        cfg.archive = &reopened;
        CheckpointStore fresh(cfg);
        EXPECT_EQ(fresh.recover(), (std::vector<bool>{true, true}));
        EXPECT_EQ(fresh.stats().delta_fallbacks, 1u);
        EXPECT_EQ(bytes(fresh.mirror(0)), bytes(good0));
    }

    flushed = false;
    EXPECT_NO_THROW(flushed = store.flush());
    EXPECT_TRUE(flushed);
    EXPECT_EQ(store.stats().full_snapshots, 2u);
    EXPECT_FALSE(arc.contains(segment_key));
    store::Archive reopened(path);
    cfg.archive = &reopened;
    CheckpointStore fresh(cfg);
    EXPECT_EQ(fresh.recover(), (std::vector<bool>{true, true}));
    EXPECT_EQ(fresh.stats().delta_fallbacks, 0u);
    EXPECT_EQ(bytes(fresh.mirror(0)), bytes(good0));
    EXPECT_EQ(bytes(fresh.mirror(1)), bytes(good1));
    std::remove(path.c_str());
}

/** Size and CRC-32 of the archive a two-shard store leaves after a
 *  fixed history of submitFull, submitDelta and flush calls: twelve
 *  cuts of twelve steps at full_every 3, so the chain crosses three
 *  snapshot rewrites (two of them followed by a compaction), one of
 *  them forced by a submitFull two deltas into a chain. The digest was
 *  recorded from the store that applied queued deltas only at snapshot
 *  time; a store that applies them at every flush must write the same
 *  bytes. */
TEST(CheckpointStoreTest, HistoryMatchesItsGolden)
{
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto stream_a = eventfulStream(41);
    const auto stream_b = eventfulStream(42);

    const std::string path = arcPath("delta_ckpt_history_golden");
    std::remove(path.c_str());
    store::Archive arc(path);
    CheckpointStoreConfig cfg = storeConfig(arc, 3);
    cfg.num_shards = 2;
    CheckpointStore store(cfg);

    core::Monitor a(model, core::MonitorConfig());
    core::Monitor b(model, core::MonitorConfig());
    store.submitFull(0, stateAt(a));
    store.submitFull(1, stateAt(b));
    ASSERT_TRUE(store.flush()); // the epoch-1 snapshot
    for (std::size_t cut = 1; cut <= 12; ++cut) {
        for (std::size_t i = 12 * (cut - 1); i < 12 * cut; ++i) {
            a.step(stream_a[i]);
            b.step(stream_b[i]);
        }
        store.submitDelta(0, a.exportDelta());
        if (cut == 7) {
            store.submitFull(1, stateAt(b));
            b.resetDeltaBaseline();
        } else {
            store.submitDelta(1, b.exportDelta());
        }
        ASSERT_TRUE(store.flush());
    }
    // Rewrites at cuts 4 (full_every), 7 (the submitFull) and 11.
    EXPECT_EQ(store.stats().full_snapshots, 4u);
    EXPECT_EQ(store.stats().group_commits, 13u);

    std::ifstream is(path, std::ios::binary);
    const std::string file((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(arc.stats().compactions, 2u);
    EXPECT_EQ(file.size(), 7680u);
    EXPECT_EQ(common::crc32(file), 0x197f75fcu);

    store::Archive reopened(path);
    cfg.archive = &reopened;
    CheckpointStore fresh(cfg);
    EXPECT_EQ(fresh.recover(), (std::vector<bool>{true, true}));
    EXPECT_EQ(bytes(fresh.mirror(0)), bytes(stateAt(a)));
    EXPECT_EQ(bytes(fresh.mirror(1)), bytes(stateAt(b)));
    std::remove(path.c_str());
}

/** The counted sections of a state or delta, each grown by one item:
 *  the first byte where the grown encoding differs from the original
 *  is that section's count. */
template <typename State>
std::vector<std::function<void(State &)>>
growEachSection()
{
    return {
        [](State &s) { s.gate_energies.push_back(1.0); },
        [](State &s) {
            if constexpr (std::is_same_v<State, core::MonitorState>) {
                s.history.push_back(s.history.back());
            } else {
                s.history_tail.push_back(s.history_tail.back());
            }
        },
        [](State &s) { s.reports.emplace_back(); },
        [](State &s) { s.records.emplace_back(); },
    };
}

/** A snapshot or delta segment whose CRC is valid but whose gate
 *  energy, history row, report or record count claims 2^32 items is a
 *  counted decode failure that falls back, never an out-of-memory
 *  abort. The lying bytes go in through Archive::put, so the archive's
 *  sector CRCs are fresh and only the decoder can refuse them. */
TEST(CheckpointStoreTest, LyingCountsAreCountedDecodeFailures)
{
    using codec_samples::firstDifference;
    std::mt19937_64 rng(7);
    const auto model = sharpModel(rng);
    const auto stream = eventfulStream(77);
    core::Monitor m(model, core::MonitorConfig());
    for (std::size_t i = 0; i < 40; ++i)
        m.step(stream[i]);
    const CheckpointData snap = stateAt(m);
    ASSERT_FALSE(snap.monitor.history.empty());
    m.resetDeltaBaseline();
    for (std::size_t i = 40; i < 60; ++i)
        m.step(stream[i]);
    DeltaSegment seg;
    seg.entries.push_back({0, m.exportDelta()});
    ASSERT_FALSE(seg.entries[0].delta.history_tail.empty());

    const std::string path = arcPath("delta_ckpt_lying");
    const auto recoverFrom = [&](const std::string &snapshot,
                                 const std::string &segment) {
        std::remove(path.c_str());
        store::Archive arc(path);
        EXPECT_TRUE(arc.put(snapshotKey(kPrefix), snapshot));
        if (!segment.empty()) {
            EXPECT_TRUE(arc.put(kPrefix + "ckpt/dlt/00000000", segment));
        }
        CheckpointStore store(storeConfig(arc, 16));
        const bool recovered = store.recover()[0];
        return std::make_tuple(recovered, store.stats(),
                               bytes(store.mirror(0)));
    };
    const auto lie = [](std::string good, const std::string &grown) {
        codec_samples::poke(good, firstDifference(good, grown),
                            std::uint64_t(1) << 32);
        codec_samples::reseal(good);
        return good;
    };

    // Honest bytes: the segment applies on top of the snapshot.
    const std::string good_snap = bytes(snap);
    const std::string good_seg = encodeDeltaSegment(seg);
    {
        const auto [ok, st, mirror] = recoverFrom(good_snap, good_seg);
        EXPECT_TRUE(ok);
        EXPECT_EQ(st.delta_fallbacks, 0u);
        EXPECT_EQ(mirror, bytes(stateAt(m)));
    }
    for (const auto &grow : growEachSection<core::MonitorState>()) {
        CheckpointData grown = snap;
        grow(grown.monitor);
        const auto [ok, st, mirror] =
            recoverFrom(lie(good_snap, bytes(grown)), std::string());
        EXPECT_FALSE(ok);
        EXPECT_EQ(st.snapshot_decode_failures, 1u);
    }
    for (const auto &grow : growEachSection<core::MonitorStateDelta>()) {
        DeltaSegment grown = seg;
        grow(grown.entries[0].delta);
        const auto [ok, st, mirror] = recoverFrom(
            good_snap, lie(good_seg, encodeDeltaSegment(grown)));
        EXPECT_TRUE(ok);
        EXPECT_EQ(st.delta_fallbacks, 1u);
        EXPECT_EQ(mirror, good_snap);
    }
    std::remove(path.c_str());
}

} // namespace
