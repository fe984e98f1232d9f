/**
 * @file
 * Port-level tests for the trained models kept in the EDDIEARC
 * artifact store (written atomically, loaded read-only): a corrupted
 * or torn container fails typed, never silently, and a reader never
 * changes the file. Checkpoint stores are tested in tests/serve; the
 * STS payload codec, whose round trip is pinned here, is the value
 * format of wire STS-BATCH frames.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

TEST(ModelPort, ModelFileRoundTripsExactly)
{
    const auto m = sampleModel();
    const std::string path = tempPath("model.arc");
    core::saveModelFile(m, path);
    EXPECT_EQ(core::encodeModelBinary(core::loadModelFile(path)),
              core::encodeModelBinary(m));
    std::remove(path.c_str());
}

/** A model copy still in progress (its first 700 bytes) loads as "no
 *  model" and keeps every byte: the reader neither cuts the torn tail
 *  nor opens the file for writing, so the copy can still finish. */
TEST(ModelPort, TornCopyLoadsAsNoModelAndStaysByteIdentical)
{
    const std::string src = tempPath("torn_src.arc");
    const std::string dst = tempPath("torn_copy.arc");
    core::saveModelFile(sampleModel(), src);
    const std::string whole = readFile(src);
    ASSERT_GT(whole.size(), 700u);
    {
        std::ofstream os(dst, std::ios::binary | std::ios::trunc);
        os.write(whole.data(), 700);
    }
    EXPECT_THROW((void)core::loadModelFile(dst), core::FormatError);
    EXPECT_EQ(readFile(dst), whole.substr(0, 700));

    // The writer finishes the copy; the model then loads.
    {
        std::ofstream os(dst, std::ios::binary | std::ios::app);
        os.write(whole.data() + 700,
                 std::streamsize(whole.size() - 700));
    }
    EXPECT_EQ(core::encodeModelBinary(core::loadModelFile(dst)),
              core::encodeModelBinary(sampleModel()));
    std::remove(src.c_str());
    std::remove(dst.c_str());
}

TEST(ModelPort, CorruptArchiveModelFailsTyped)
{
    const auto m = sampleModel();
    const std::string path = tempPath("corrupt_model.arc");
    core::saveModelFile(m, path);

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

} // namespace
