/**
 * @file
 * Byte-identity goldens for every encoded format: the CRC-32 and size
 * of a fixed model, capture, STS payload and stream, group snapshot,
 * delta segment, EDDIEARC file and each wire frame type. Files already
 * on disk depend on these layouts. A round-trip test cannot catch a
 * layout that the encoder and decoder change together; these digests
 * can. Any codec change must pass them unchanged; a deliberate format
 * change needs a new magic or version, not new digests.
 *
 * The snapshot and delta segment are read back from the archive a
 * CheckpointStore writes, so they pin what lands on disk.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "codec_samples.h"
#include "common/crc32.h"
#include "core/capture_io.h"
#include "core/model.h"
#include "serve/checkpoint.h"
#include "store/archive.h"
#include "wire/frame.h"

namespace
{

using namespace eddie;

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

std::string
freshPath(const std::string &name)
{
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

/** The group snapshot and first delta segment a two-shard store lands
 *  in its archive. */
void
checkpointBytes(std::string &snapshot, std::string &delta)
{
    store::Archive arc(freshPath("codec_golden_ckpt.arc"));
    serve::CheckpointStoreConfig cfg;
    cfg.num_shards = 2;
    cfg.key_prefix = serve::tenantKeyPrefix("golden");
    cfg.archive = &arc;
    serve::CheckpointStore ckpt(cfg);
    ckpt.submitFull(0, codec_samples::checkpoint(0));
    ckpt.submitFull(1, codec_samples::checkpoint(1));
    ASSERT_TRUE(ckpt.flush()); // the epoch-1 snapshot
    ckpt.submitDelta(0, codec_samples::delta());
    ASSERT_TRUE(ckpt.flush()); // delta segment 0
    ASSERT_EQ(arc.get(serve::snapshotKey(cfg.key_prefix), snapshot),
              store::GetStatus::Ok);
    ASSERT_EQ(arc.get(cfg.key_prefix + "ckpt/dlt/00000000", delta),
              store::GetStatus::Ok);
}

/** An archive file after one put and one remove. */
std::string
archiveBytes()
{
    const std::string path = freshPath("codec_golden_store.arc");
    {
        store::Archive arc(path);
        EXPECT_TRUE(arc.put("golden/a", "the value of a"));
        store::Archive::Batch remove;
        remove.removes.push_back("golden/a");
        EXPECT_TRUE(arc.commit(remove));
    }
    return fileBytes(path);
}

struct Golden
{
    const char *name;
    std::string bytes;
    std::size_t size;
    std::uint32_t crc;
};

/** CRC-32 of @p bytes. A frame with no payload ends in the CRC of all
 *  bytes before it, and the CRC-32 of any such message is the same
 *  constant (the CRC residue), so only the 40 bytes its header CRC
 *  covers are digested there. */
std::uint32_t
digest(const std::string &bytes)
{
    const bool header_only = bytes.size() == wire::kHeaderSize &&
                             bytes.compare(0, 4, "EDW1") == 0;
    return common::crc32(bytes.data(),
                         header_only ? wire::kHeaderSize - 4
                                     : bytes.size());
}

TEST(CodecGolden, EveryFormatKeepsItsBytes)
{
    std::ostringstream capture;
    core::saveCapture(codec_samples::run(), capture);
    std::ostringstream sts;
    core::saveStsStream(codec_samples::stream(), sts);
    std::string snapshot, delta;
    checkpointBytes(snapshot, delta);

    wire::FrameHeader h;
    h.tenant = wire::tenantHash("golden");
    h.session = 7;
    h.type = wire::FrameType::Hello;
    const std::string hello =
        wire::encodeFrame(h, wire::encodeHelloPayload("golden"));
    h.type = wire::FrameType::Nack;
    h.sequence = 3;
    const std::string nack = wire::encodeFrame(
        h, wire::encodeNackPayload(wire::NackCode::SequenceGap,
                                   "gap at 3"));
    h.type = wire::FrameType::StsBatch;
    h.sequence = 0;
    const std::string batch = wire::encodeFrame(
        h, core::encodeStsPayload(codec_samples::stream()));
    h.type = wire::FrameType::Ack;
    h.sequence = 12;
    const std::string ack = wire::encodeFrame(h, std::string());
    h.type = wire::FrameType::Heartbeat;
    h.payload_len = 1u << 30; // a lying length, as a hostile peer sends
    const std::string raw = wire::encodeHeaderRaw(h, 0xdeadbeefu);

    // Recorded before the byte codec was unified (src/common/bytes.h).
    const Golden goldens[] = {
        {"model", core::encodeModelBinary(codec_samples::model()), 194,
         0x9b8260a2u},
        {"capture", capture.str(), 125, 0x259003f5u},
        {"sts payload", core::encodeStsPayload(codec_samples::stream()),
         182, 0xae3fe7abu},
        {"sts stream", sts.str(), 206, 0xb8cd5f22u},
        {"group snapshot", snapshot, 690, 0x5638226bu},
        {"delta segment", delta, 356, 0x35406518u},
        {"archive", archiveBytes(), 2048, 0x48f8a809u},
        {"hello frame", hello, 54, 0x5e982e04u},
        {"nack frame", nack, 60, 0x49431178u},
        {"sts-batch frame", batch, 226, 0x8c45938eu},
        {"ack frame", ack, 44, 0x614fadd2u},
        {"raw header", raw, 44, 0xd9afac2cu},
    };
    for (const Golden &g : goldens) {
        char got[16];
        std::snprintf(got, sizeof got, "0x%08x",
                      unsigned(digest(g.bytes)));
        EXPECT_EQ(g.bytes.size(), g.size) << g.name;
        EXPECT_EQ(digest(g.bytes), g.crc)
            << g.name << " digest " << got;
    }
}

} // namespace
