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
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/capture_io.h"
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
    std::ostringstream os;
    saveGroupCheckpoint(group, os);
    return os.str();
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

/** Opens (scanning) or creates the archive at @p path. */
store::Archive
openArchive(const std::string &path)
{
    store::ArchiveConfig cfg;
    cfg.path = path;
    return store::Archive(cfg);
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

    std::ostringstream os;
    saveGroupCheckpoint(group, os);
    std::istringstream is(os.str());
    const auto loaded = loadGroupCheckpoint(is);
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
    std::ostringstream os;
    core::writeFramed(os, magic, 1, v1_payload);
    const std::string v1 = os.str();
    std::istringstream is(v1);
    EXPECT_THROW(loadGroupCheckpoint(is), core::FormatError);

    // Recovery treats a v1 image under the snapshot key as rot, not
    // as a cold start.
    const std::string path = arcPath("delta_ckpt_v1");
    std::remove(path.c_str());
    store::Archive arc = openArchive(path);
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
    store::Archive arc = openArchive(path);
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

        store::Archive reopened = openArchive(path);
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
    store::Archive arc = openArchive(path);
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

    store::Archive reopened = openArchive(path);
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
    store::Archive arc = openArchive(path);
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

    store::Archive reopened = openArchive(path);
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
    store::Archive arc = openArchive(path);
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

    store::Archive reopened = openArchive(path);
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
        store::Archive arc = openArchive(path);
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

    store::Archive reopened = openArchive(path);
    CheckpointStore fresh(storeConfig(reopened, 1u << 20));
    ASSERT_TRUE(fresh.recover()[0]);
    EXPECT_EQ(bytes(fresh.mirror(0)), cut_bytes[0]);
    EXPECT_EQ(fresh.stats().delta_fallbacks, 1u);
    EXPECT_GE(fresh.stats().delta_segments_dropped, 1u);
    std::remove(path.c_str());
}

} // namespace
