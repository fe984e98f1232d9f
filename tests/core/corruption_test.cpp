/**
 * @file
 * Randomized corruption round-trips over every persistence format:
 * truncate or bit-flip a serialized model, capture, STS stream, or
 * cache spill file at random offsets and prove the loaders answer
 * with a typed error (or, for the cache, a counted miss plus
 * recompute) — never a crash, hang, or silently wrong data.
 */

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "core/capture_cache.h"
#include "core/capture_io.h"
#include "core/errors.h"
#include "core/model.h"
#include "store/archive.h"

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

TEST(CorruptionTest, ModelBitFlipsAreTypedErrors)
{
    std::ostringstream os;
    saveModel(sampleModel(), os);
    const std::string good = os.str();

    std::mt19937_64 rng(101);
    for (int trial = 0; trial < 200; ++trial) {
        std::istringstream is(flipBit(good, rng));
        try {
            // The CRC trailer covers every body byte, so a flipped
            // model may never load silently.
            (void)loadModel(is);
            FAIL() << "bit-flipped model loaded, trial " << trial;
        } catch (const Error &) {
            // typed: IoError or FormatError
        }
    }
}

TEST(CorruptionTest, ModelTruncationsNeverCrash)
{
    std::ostringstream os;
    saveModel(sampleModel(), os);
    const std::string good = os.str();

    std::mt19937_64 rng(102);
    for (int trial = 0; trial < 200; ++trial) {
        std::istringstream is(truncate(good, rng));
        try {
            // A cut that removes the trailer may still leave a
            // complete, valid body; anything else must be typed.
            (void)loadModel(is);
        } catch (const Error &) {
        }
    }
}

TEST(CorruptionTest, ModelWithoutTrailerStillLoads)
{
    std::ostringstream os;
    saveModel(sampleModel(), os);
    std::string text = os.str();
    const auto at = text.rfind("#crc32");
    ASSERT_NE(at, std::string::npos);
    text.resize(at); // legacy file: body only

    std::istringstream is(text);
    const auto m = loadModel(is);
    EXPECT_EQ(m.regions.size(), 2u);
    EXPECT_EQ(m.regions[0].ref, sampleModel().regions[0].ref);
}

TEST(CorruptionTest, ModelErrorsNameTheLine)
{
    std::ostringstream os;
    saveModel(sampleModel(), os);
    std::string text = os.str();
    text.resize(text.rfind("#crc32"));
    // Break the trained flag on the first region line (line 3).
    const auto at = text.find("L0 1");
    ASSERT_NE(at, std::string::npos);
    text[at + 3] = '9';

    std::istringstream is(text);
    try {
        (void)loadModel(is);
        FAIL() << "bad trained flag accepted";
    } catch (const FormatError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos)
            << e.what();
    }
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

TEST(CorruptionTest, CorruptSpillIsCountedMissNotError)
{
    const std::string arc_path =
        (std::filesystem::path(::testing::TempDir()) /
         "eddie_corruption_test.arc")
            .string();
    std::filesystem::remove(arc_path);

    CaptureCacheConfig cc;
    cc.capacity = 1;
    cc.spill_archive = arc_path;

    std::mt19937_64 rng(105);
    const auto stream_a = sampleStream(rng);
    const auto stream_b = sampleStream(rng);
    {
        CaptureCache cache(cc);
        cache.getOrCompute("key-a", [&] { return stream_a; });
        cache.getOrCompute("key-b", [&] { return stream_b; });
        // key-a evicted and spilled.
    }
    // The spill's value bytes inside the archive ("spill/" + key).
    const std::string spill_key = "spill/key-a";
    store::Archive::Extent value;
    {
        store::ArchiveConfig acfg;
        acfg.path = arc_path;
        const auto extent = store::Archive(acfg).valueExtent(spill_key);
        ASSERT_TRUE(extent.has_value());
        value = *extent;
    }
    const auto readArchive = [&] {
        std::ifstream is(arc_path, std::ios::binary);
        std::ostringstream slurp;
        slurp << is.rdbuf();
        return slurp.str();
    };
    const auto writeArchive = [&](const std::string &bytes) {
        std::ofstream osf(arc_path, std::ios::binary | std::ios::trunc);
        osf.write(bytes.data(), std::streamsize(bytes.size()));
    };
    const std::string good = readArchive();

    std::mt19937_64 corrupt_rng(106);
    for (int trial = 0; trial < 30; ++trial) {
        // Damage lands in the spill itself: a flipped value bit, or the
        // file cut off somewhere inside the value.
        const std::string spill = good.substr(
            std::size_t(value.offset), std::size_t(value.length));
        std::string bad = good;
        if (trial % 2 == 0) {
            bad.replace(std::size_t(value.offset), spill.size(),
                        flipBit(spill, corrupt_rng));
        } else {
            bad.resize(std::size_t(value.offset) +
                       truncate(spill, corrupt_rng).size());
        }
        writeArchive(bad);

        CaptureCache cache(cc);
        std::size_t computes = 0;
        const auto got = cache.getOrCompute("key-a", [&] {
            ++computes;
            return stream_a;
        });
        const auto stats = cache.stats();
        // Two legitimate outcomes, neither of which is an exception:
        // the damage was caught and counted (recompute) — a flipped
        // value fails its sector CRC, a cut value is a torn tail the
        // archive drops at open (plain miss) — or nothing guarded was
        // hit and the stream decoded intact (disk hit).
        if (computes == 1) {
            EXPECT_EQ(stats.misses, 1u);
            EXPECT_LE(stats.spill_corrupt + stats.spill_short_read,
                      1u);
            EXPECT_EQ(stats.disk_hits, 0u);
        } else {
            EXPECT_EQ(computes, 0u);
            EXPECT_EQ(stats.disk_hits, 1u);
        }
        EXPECT_EQ(got.size(), stream_a.size());
        EXPECT_EQ(got.empty() ? 0.0 : got[0].window_energy,
                  stream_a[0].window_energy);
    }

    // Targeted damage with deterministic counters: the last value
    // byte is inside the embedded stream's CRC footer, so flipping it
    // is a detected corruption; a spill whose stored stream was cut
    // in half (written intact into the archive) is a short read.
    {
        std::string bad = good;
        const std::size_t last =
            std::size_t(value.offset + value.length - 1);
        bad[last] = char(bad[last] ^ 0x40);
        writeArchive(bad);
        CaptureCache cache(cc);
        (void)cache.getOrCompute("key-a", [&] { return stream_a; });
        EXPECT_EQ(cache.stats().spill_corrupt, 1u);
        EXPECT_EQ(cache.stats().misses, 1u);
    }
    {
        writeArchive(good);
        {
            store::ArchiveConfig acfg;
            acfg.path = arc_path;
            store::Archive arc(acfg);
            ASSERT_TRUE(arc.put(
                spill_key,
                good.substr(std::size_t(value.offset),
                            std::size_t(value.length / 2))));
        }
        CaptureCache cache(cc);
        (void)cache.getOrCompute("key-a", [&] { return stream_a; });
        EXPECT_EQ(cache.stats().spill_short_read, 1u);
        EXPECT_EQ(cache.stats().misses, 1u);
    }

    std::filesystem::remove(arc_path);
}

} // namespace
