/**
 * @file
 * Port-level tests for the persistence layers kept in the EDDIEARC
 * artifact store: trained models (which still round-trip
 * bit-identically with the text format and load through the
 * format-version switch) and capture-cache spills. A corrupted
 * container fails typed, never silently. Checkpoint stores are
 * tested in tests/serve.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/capture_cache.h"
#include "core/capture_io.h"
#include "core/errors.h"
#include "core/model.h"
#include "../serve/serve_test_util.h"

namespace
{

using namespace eddie;

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() /
            ("eddie_port_" + name))
        .string();
}

core::TrainedModel
sampleModel()
{
    core::TrainedModel m;
    m.alpha = 0.01;
    m.sentinel = 2e7;
    m.entry_region = 1;
    m.num_loops = 2;
    core::RegionModel r0;
    r0.name = "L0";
    r0.trained = true;
    r0.num_peaks = 2;
    r0.group_n = 16;
    r0.ref = {{1.0, 2.0, 3.0}, {4.0, 5.0}};
    r0.succs = {1};
    core::RegionModel r1;
    r1.name = "L1";
    r1.trained = false;
    m.regions = {r0, r1};
    return m;
}

bool
sameSts(const std::vector<core::Sts> &a,
        const std::vector<core::Sts> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].t_start != b[i].t_start ||
            a[i].t_end != b[i].t_end ||
            a[i].true_region != b[i].true_region ||
            a[i].injected != b[i].injected ||
            a[i].window_energy != b[i].window_energy ||
            a[i].peak_energy_frac != b[i].peak_energy_frac ||
            a[i].faulted != b[i].faulted ||
            a[i].peak_freqs != b[i].peak_freqs)
            return false;
    }
    return true;
}

TEST(ModelPort, ArchiveAndTextFilesDecodeIdentically)
{
    const auto m = sampleModel();
    const std::string text_path = tempPath("model.txt");
    const std::string arc_path = tempPath("model.arc");
    core::saveModelFile(m, text_path, core::ModelFormat::Text);
    core::saveModelFile(m, arc_path, core::ModelFormat::Archive);

    const auto from_text = core::loadModelFile(text_path);
    const auto from_arc = core::loadModelFile(arc_path);
    // Bit-identity through the canonical binary encoding: both files
    // describe the exact same model.
    EXPECT_EQ(core::encodeModelBinary(from_text),
              core::encodeModelBinary(from_arc));
    EXPECT_EQ(core::encodeModelBinary(m),
              core::encodeModelBinary(from_arc));

    std::remove(text_path.c_str());
    std::remove(arc_path.c_str());
}

TEST(ModelPort, LegacyTextModelLoadsThroughTheSwitch)
{
    const auto m = sampleModel();
    const std::string path = tempPath("legacy_model.txt");
    {
        // The pre-archive writer: plain text straight to the file.
        std::ofstream os(path);
        core::saveModel(m, os);
    }
    const auto loaded = core::loadModelFile(path);
    EXPECT_EQ(core::encodeModelBinary(m),
              core::encodeModelBinary(loaded));
    std::remove(path.c_str());
}

TEST(ModelPort, CorruptArchiveModelFailsTyped)
{
    const auto m = sampleModel();
    const std::string path = tempPath("corrupt_model.arc");
    core::saveModelFile(m, path, core::ModelFormat::Archive);

    // Flip one byte in the payload region (past superblock + segment
    // header); the sector CRC must turn it into a typed error.
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(bool(f));
    f.seekg(0, std::ios::end);
    const auto size = f.tellg();
    ASSERT_GT(std::size_t(size), 1034u);
    f.seekp(1030);
    char b = 0;
    f.seekg(1030);
    f.read(&b, 1);
    b = char(b ^ 0x40);
    f.seekp(1030);
    f.write(&b, 1);
    f.close();

    EXPECT_THROW((void)core::loadModelFile(path), core::FormatError);
    std::remove(path.c_str());
}

TEST(StsPayloadPort, EncodeDecodeRoundTripsExactly)
{
    const auto stream = serve_test::eventfulStream(11);
    const std::string payload = core::encodeStsPayload(stream);
    const auto decoded =
        core::decodeStsPayload(payload.data(), payload.size());
    EXPECT_TRUE(sameSts(stream, decoded));
    // Canonical: re-encoding the decode reproduces the bytes.
    EXPECT_EQ(payload, core::encodeStsPayload(decoded));
}

TEST(SpillPort, EvictionRoundTripsThroughTheArchive)
{
    const std::string arc_path = tempPath("spill.arc");
    std::remove(arc_path.c_str());
    const auto stream = serve_test::eventfulStream(12);

    core::CaptureCacheConfig cfg;
    cfg.capacity = 1;
    cfg.spill_archive = arc_path;
    core::CaptureCache cache(cfg);
    (void)cache.getOrComputeShared("k0", [&] { return stream; });
    // Second insert evicts k0 to the archive.
    (void)cache.getOrComputeShared(
        "k1", [&] { return serve_test::eventfulStream(13); });
    EXPECT_EQ(cache.stats().spills, 1u);

    cache.clear();
    const auto hit = cache.getOrComputeShared("k0", [&] {
        ADD_FAILURE() << "archive miss recomputed the stream";
        return stream;
    });
    EXPECT_TRUE(sameSts(stream, *hit));
    EXPECT_EQ(cache.stats().disk_hits, 1u);
    std::remove(arc_path.c_str());
}

} // namespace
