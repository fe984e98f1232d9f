/**
 * @file
 * Randomized corruption round-trips over every persistence format:
 * truncate or bit-flip a model archive, capture or STS stream at
 * random offsets and prove the loaders answer with a typed error —
 * never a crash, hang, or silently wrong data.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/capture_io.h"
#include "core/errors.h"
#include "core/model.h"

namespace
{

using namespace eddie;
using namespace eddie::core;

TrainedModel
sampleModel()
{
    TrainedModel m;
    m.alpha = 0.01;
    m.sentinel = 2e7;
    m.entry_region = 0;
    m.num_loops = 2;
    RegionModel r0;
    r0.name = "L0";
    r0.trained = true;
    r0.num_peaks = 2;
    r0.group_n = 16;
    r0.ref = {{1e6, 1.1e6, 1.2e6}, {2e6, 2.5e6}, {2e7, 2e7}};
    r0.succs = {1};
    RegionModel r1;
    r1.name = "L1";
    r1.trained = false;
    m.regions = {r0, r1};
    return m;
}

cpu::RunResult
sampleRun(std::mt19937_64 &rng)
{
    cpu::RunResult run;
    run.sample_rate = 2e7;
    std::uniform_real_distribution<double> amp(0.0, 1.0);
    run.power.resize(500);
    run.region.resize(500);
    run.injected.resize(500);
    for (std::size_t i = 0; i < run.power.size(); ++i) {
        run.power[i] = amp(rng);
        run.region[i] = i % 3;
        run.injected[i] = i > 400 ? 1 : 0;
    }
    return run;
}

std::vector<Sts>
sampleStream(std::mt19937_64 &rng)
{
    std::uniform_real_distribution<double> freq(1e5, 9e6);
    std::vector<Sts> stream(40);
    double t = 0.0;
    for (auto &sts : stream) {
        sts.t_start = t;
        sts.t_end = t + 1e-4;
        t += 5e-5;
        for (int p = 0; p < 6; ++p)
            sts.peak_freqs.push_back(freq(rng));
        sts.true_region = 1;
        sts.window_energy = 3.5;
        sts.peak_energy_frac = 0.4;
        sts.faulted = false;
    }
    return stream;
}

std::string
flipBit(const std::string &bytes, std::mt19937_64 &rng)
{
    std::string out = bytes;
    std::uniform_int_distribution<std::size_t> pos(0, out.size() - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    const std::size_t at = pos(rng);
    out[at] = char(out[at] ^ (1 << bit(rng)));
    return out;
}

std::string
truncate(const std::string &bytes, std::mt19937_64 &rng)
{
    std::uniform_int_distribution<std::size_t> len(0, bytes.size() - 1);
    return bytes.substr(0, len(rng));
}

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), std::streamsize(bytes.size()));
}

/** Loads @p bytes as a model file: either the identical model comes
 *  back (the damage hit bytes no checksum needs, such as sector
 *  padding after a header CRC) or a typed core::Error is thrown. */
void
expectIdenticalOrTyped(const std::string &path, const std::string &bytes,
                       const std::string &want, int trial)
{
    writeFile(path, bytes);
    try {
        const auto m = loadModelFile(path);
        EXPECT_EQ(encodeModelBinary(m), want)
            << "damaged model loaded different, trial " << trial;
    } catch (const Error &) {
        // typed: IoError or FormatError
    }
}

TEST(CorruptionTest, ModelBitFlipsAreTypedErrors)
{
    const std::string path = tempPath("eddie_corrupt_model_flip.arc");
    saveModelFile(sampleModel(), path);
    const std::string good = readFile(path);
    const std::string want = encodeModelBinary(sampleModel());

    std::mt19937_64 rng(101);
    for (int trial = 0; trial < 200; ++trial)
        expectIdenticalOrTyped(path, flipBit(good, rng), want, trial);
    std::filesystem::remove(path);
}

TEST(CorruptionTest, ModelTruncationsNeverCrash)
{
    const std::string path = tempPath("eddie_corrupt_model_cut.arc");
    saveModelFile(sampleModel(), path);
    const std::string good = readFile(path);
    const std::string want = encodeModelBinary(sampleModel());

    std::mt19937_64 rng(102);
    for (int trial = 0; trial < 200; ++trial) {
        const std::string cut = truncate(good, rng);
        expectIdenticalOrTyped(path, cut, want, trial);
        // The load only reads: the cut file keeps every byte.
        EXPECT_EQ(readFile(path), cut) << "trial " << trial;
    }
    std::filesystem::remove(path);
}

/** Version-1 capture and STS files (unframed, before the integrity
 *  framing) are refused as FormatError, like any unknown version. */
TEST(CorruptionTest, VersionOneFilesFailAsFormatError)
{
    const auto v1 = [](const char (&magic)[9], const std::string &body) {
        std::string out(magic, 8);
        const std::uint32_t version = 1;
        out.append(reinterpret_cast<const char *>(&version),
                   sizeof version);
        return out + body;
    };
    const auto u64 = [](std::uint64_t v) {
        return std::string(reinterpret_cast<const char *>(&v), sizeof v);
    };
    const auto f64 = [](double v) {
        return std::string(reinterpret_cast<const char *>(&v), sizeof v);
    };
    // v1 capture: rate, one sample, its region id and injection flag.
    std::istringstream capture(
        v1("EDDIECAP", f64(2e7) + u64(1) + f64(0.5) + u64(0) +
                           std::string(1, '\0')),
        std::ios::binary);
    EXPECT_THROW((void)loadCapture(capture), FormatError);
    // v1 STS stream: one STS without the quality fields.
    std::istringstream sts(v1("EDDIESTS", u64(1) + f64(0.0) +
                                              f64(1e-4) + u64(1) +
                                              std::string(1, '\0') +
                                              u64(1) + f64(1e6)),
                           std::ios::binary);
    EXPECT_THROW((void)loadStsStream(sts), FormatError);
}

TEST(CorruptionTest, CaptureCorruptionIsTypedError)
{
    std::mt19937_64 rng(103);
    std::ostringstream os(std::ios::binary);
    saveCapture(sampleRun(rng), os);
    const std::string good = os.str();

    // Sanity: the pristine bytes round-trip.
    {
        std::istringstream is(good, std::ios::binary);
        EXPECT_EQ(loadCapture(is).power.size(), 500u);
    }
    for (int trial = 0; trial < 200; ++trial) {
        // Framing covers every byte: magic, version, length, payload
        // and CRC — a flip anywhere must throw, as must any cut.
        std::istringstream flipped(flipBit(good, rng),
                                   std::ios::binary);
        EXPECT_THROW((void)loadCapture(flipped), Error)
            << "trial " << trial;
        std::istringstream cut(truncate(good, rng), std::ios::binary);
        EXPECT_THROW((void)loadCapture(cut), Error)
            << "trial " << trial;
    }
}

TEST(CorruptionTest, StsStreamCorruptionIsTypedError)
{
    std::mt19937_64 rng(104);
    std::ostringstream os(std::ios::binary);
    saveStsStream(sampleStream(rng), os);
    const std::string good = os.str();

    {
        std::istringstream is(good, std::ios::binary);
        const auto loaded = loadStsStream(is);
        ASSERT_EQ(loaded.size(), 40u);
        EXPECT_EQ(loaded[0].window_energy, 3.5);
        EXPECT_EQ(loaded[0].peak_energy_frac, 0.4);
    }
    for (int trial = 0; trial < 200; ++trial) {
        std::istringstream flipped(flipBit(good, rng),
                                   std::ios::binary);
        EXPECT_THROW((void)loadStsStream(flipped), Error)
            << "trial " << trial;
        std::istringstream cut(truncate(good, rng), std::ios::binary);
        EXPECT_THROW((void)loadStsStream(cut), Error)
            << "trial " << trial;
    }
}

} // namespace
