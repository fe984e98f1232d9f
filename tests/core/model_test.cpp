#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/errors.h"
#include "core/model.h"

namespace
{

using namespace eddie::core;

TrainedModel
sampleModel()
{
    TrainedModel m;
    m.alpha = 0.01;
    m.sentinel = 2e7;
    m.entry_region = 1;
    m.num_loops = 2;
    RegionModel r0;
    r0.name = "L0";
    r0.trained = true;
    r0.num_peaks = 2;
    r0.group_n = 16;
    r0.ref = {{1.0, 2.0, 3.0}, {4.0, 5.0}};
    r0.succs = {1};
    RegionModel r1;
    r1.name = "L1";
    r1.trained = false;
    m.regions = {r0, r1};
    return m;
}

TrainedModel
decode(const std::string &bytes)
{
    return decodeModelBinary(bytes.data(), bytes.size());
}

TEST(ModelTest, SaveLoadRoundTrip)
{
    const auto m = sampleModel();
    const std::string bytes = encodeModelBinary(m);
    const auto loaded = decode(bytes);

    EXPECT_DOUBLE_EQ(loaded.alpha, m.alpha);
    EXPECT_DOUBLE_EQ(loaded.sentinel, m.sentinel);
    EXPECT_EQ(loaded.entry_region, m.entry_region);
    EXPECT_EQ(loaded.num_loops, m.num_loops);
    ASSERT_EQ(loaded.regions.size(), 2u);
    EXPECT_EQ(loaded.regions[0].name, "L0");
    EXPECT_TRUE(loaded.regions[0].trained);
    EXPECT_EQ(loaded.regions[0].group_n, 16u);
    EXPECT_EQ(loaded.regions[0].ref, m.regions[0].ref);
    EXPECT_EQ(loaded.regions[0].succs, m.regions[0].succs);
    EXPECT_FALSE(loaded.regions[1].trained);
    // Canonical: re-encoding the decode reproduces the bytes.
    EXPECT_EQ(encodeModelBinary(loaded), bytes);
}

TEST(ModelTest, LoadRejectsGarbage)
{
    const std::string garbage = "not-a-model 7";
    EXPECT_THROW(decode(garbage), FormatError);
    EXPECT_THROW(decode(std::string()), IoError);
}

/** Overwrites the u64 at byte @p at of an encoded model. */
void
pokeU64(std::string &bytes, std::size_t at, std::uint64_t v)
{
    ASSERT_LE(at + sizeof v, bytes.size());
    std::memcpy(bytes.data() + at, &v, sizeof v);
}

/** Every validation rule of the binary decoder, one broken field at a
 *  time: each must fail as FormatError naming the rule (IoError for a
 *  payload that ends inside a field), never load a model and never
 *  allocate what a lying count claims. */
TEST(ModelTest, DecodeRejectsEachBrokenField)
{
    // Byte offsets in sampleModel()'s encoding: u32 version, alpha,
    // sentinel, entry region, loop count, region count, then region
    // L0 (name length, "L0", trained flag, peak count, group size,
    // successor count, successor, rank count, rank 0 size, ...).
    constexpr std::size_t kRegionCount = 4 + 8 + 8 + 8 + 8;
    constexpr std::size_t kRank0Size = kRegionCount + 8 + 8 + 2 + 1 +
                                       8 + 8 + 8 + 8 + 8;
    struct Rule
    {
        const char *name;
        std::function<void(TrainedModel &)> model;
        std::function<void(std::string &)> bytes;
        const char *message;
        bool short_input = false; ///< IoError instead of FormatError
    };
    const Rule rules[] = {
        {"alpha", [](TrainedModel &m) { m.alpha = 1.5; }, nullptr,
         "alpha outside (0, 1)"},
        {"non-finite alpha",
         [](TrainedModel &m) {
             m.alpha = std::numeric_limits<double>::quiet_NaN();
         },
         nullptr, "alpha is not finite"},
        {"sentinel", [](TrainedModel &m) { m.sentinel = 0.0; }, nullptr,
         "sentinel must be positive"},
        {"entry region", [](TrainedModel &m) { m.entry_region = 2; },
         nullptr, "entry region out of range"},
        {"loop count", [](TrainedModel &m) { m.num_loops = 3; }, nullptr,
         "loop count exceeds region count"},
        {"successor id",
         [](TrainedModel &m) { m.regions[0].succs = {5}; }, nullptr,
         "successor id out of range"},
        {"unsorted reference",
         [](TrainedModel &m) { m.regions[0].ref[0] = {3.0, 2.0, 1.0}; },
         nullptr, "reference values not sorted"},
        {"empty trained rank",
         [](TrainedModel &m) { m.regions[0].ref[1].clear(); }, nullptr,
         "trained region with empty peak rank"},
        {"zero group size",
         [](TrainedModel &m) { m.regions[0].group_n = 0; }, nullptr,
         "trained region with zero group size"},
        {"empty name", [](TrainedModel &m) { m.regions[1].name.clear(); },
         nullptr, "empty region name"},
        {"trailing bytes", nullptr,
         [](std::string &b) { b.push_back('\0'); },
         "trailing payload bytes"},
        {"version", nullptr, [](std::string &b) { b[0] = 9; },
         "unsupported binary version"},
        {"region count past the payload", nullptr,
         [](std::string &b) {
             pokeU64(b, kRegionCount, std::uint64_t(1) << 20);
         },
         "region count exceeds the payload"},
        {"rank size past the payload", nullptr,
         [](std::string &b) {
             pokeU64(b, kRank0Size, std::uint64_t(1) << 24);
         },
         "rank size exceeds the payload"},
        {"truncated", nullptr,
         [](std::string &b) { b.resize(b.size() - 4); },
         "truncated rank count", true},
    };
    for (const Rule &rule : rules) {
        TrainedModel m = sampleModel();
        if (rule.model)
            rule.model(m);
        std::string bytes = encodeModelBinary(m);
        if (rule.bytes)
            rule.bytes(bytes);
        try {
            (void)decode(bytes);
            ADD_FAILURE() << rule.name << ": broken model decoded";
        } catch (const Error &e) {
            EXPECT_EQ(dynamic_cast<const IoError *>(&e) != nullptr,
                      rule.short_input)
                << rule.name << ": " << e.what();
            EXPECT_EQ(dynamic_cast<const FormatError *>(&e) != nullptr,
                      !rule.short_input)
                << rule.name << ": " << e.what();
            EXPECT_NE(std::string(e.what()).find(rule.message),
                      std::string::npos)
                << rule.name << ": " << e.what();
        }
    }
}

TEST(ModelTest, WithGroupSizeOverridesTrainedOnly)
{
    const auto m = sampleModel();
    const auto m2 = withGroupSize(m, 42);
    EXPECT_EQ(m2.regions[0].group_n, 42u);
    EXPECT_EQ(m2.regions[1].group_n, m.regions[1].group_n);
    // Original untouched.
    EXPECT_EQ(m.regions[0].group_n, 16u);
}

TEST(ModelTest, WithAlpha)
{
    const auto m2 = withAlpha(sampleModel(), 0.05);
    EXPECT_DOUBLE_EQ(m2.alpha, 0.05);
}

} // namespace
