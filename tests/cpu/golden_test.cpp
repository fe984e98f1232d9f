/**
 * @file
 * Golden simulator digests: a CRC-32 over every observable output of
 * Core::run (power sample bytes, region labels, injection labels and
 * CoreStats) for all ten workloads, both timing models, clean and
 * injected, plus a few non-default core configurations. The digests
 * were recorded before the simulator's hot loop was optimized; any
 * change to the simulated trace — a reordered floating-point
 * addition, a different RNG draw, an off-by-one bucket — changes a
 * digest. A deliberate model change must re-record the table and
 * bump the capture-cache key version.
 */

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "cpu/core.h"
#include "inject/scenarios.h"
#include "workloads/workload.h"

namespace
{

using namespace eddie;

/** Scale of every golden workload: small enough that the whole table
 *  runs in seconds, large enough that every loop region executes and
 *  several OS interrupts fire per run. */
constexpr double kScale = 0.1;
constexpr std::uint64_t kRunSeed = 7;

std::uint32_t
digest(const cpu::RunResult &rr)
{
    std::uint32_t c = common::crc32(rr.power.data(),
                                    rr.power.size() * sizeof(double));
    c = common::crc32(rr.region.data(),
                      rr.region.size() * sizeof(std::size_t), c);
    c = common::crc32(rr.injected.data(), rr.injected.size(), c);
    const cpu::CoreStats &s = rr.stats;
    const std::uint64_t stats[] = {
        s.instructions, s.injected_ops, s.cycles,   s.l1_hits,
        s.l1_misses,    s.l2_hits,      s.l2_misses, s.branches,
        s.mispredicts};
    return common::crc32(stats, sizeof stats, c);
}

cpu::CoreConfig
baseConfig(bool ooo)
{
    cpu::CoreConfig cfg;
    cfg.out_of_order = ooo;
    // 20 kHz at the 200 MHz default clock: an interrupt every ~10k
    // cycles, so even the shortest golden run takes several.
    cfg.os_irq_rate_hz = 20e3;
    return cfg;
}

enum class Plan
{
    Clean,
    Loop,
    Burst,
};

cpu::InjectionPlan
makePlan(const workloads::Workload &w, Plan kind)
{
    switch (kind) {
      case Plan::Clean: return cpu::InjectionPlan();
      case Plan::Loop:
        return inject::canonicalLoopInjection(inject::defaultTargetLoop(w),
                                              0.5, 11);
      case Plan::Burst: return inject::burstOfSize(w, 0, 20'000, 1, 13);
    }
    return cpu::InjectionPlan();
}

const char *
planName(Plan kind)
{
    switch (kind) {
      case Plan::Clean: return "clean";
      case Plan::Loop: return "loop";
      case Plan::Burst: return "burst";
    }
    return "?";
}

struct Golden
{
    const char *name;
    std::uint32_t crc;
};

// Recorded on the simulator before its hot-loop optimization.
const Golden kGolden[] = {
    {"bitcount/inorder/clean", 0x6dd928e3u},
    {"bitcount/inorder/loop", 0xd856bc7bu},
    {"bitcount/inorder/burst", 0x84d2e493u},
    {"bitcount/ooo/clean", 0x3bf782adu},
    {"bitcount/ooo/loop", 0x973e4ddeu},
    {"bitcount/ooo/burst", 0x0a77ecf5u},
    {"basicmath/inorder/clean", 0xd5441ddbu},
    {"basicmath/inorder/loop", 0xf63f9801u},
    {"basicmath/inorder/burst", 0x757a3e4eu},
    {"basicmath/ooo/clean", 0x7ddaef10u},
    {"basicmath/ooo/loop", 0x8d014714u},
    {"basicmath/ooo/burst", 0x13bda781u},
    {"susan/inorder/clean", 0x76425a75u},
    {"susan/inorder/loop", 0x2e786640u},
    {"susan/inorder/burst", 0xc7964339u},
    {"susan/ooo/clean", 0x47f0ececu},
    {"susan/ooo/loop", 0xb900c18bu},
    {"susan/ooo/burst", 0x22595811u},
    {"dijkstra/inorder/clean", 0xae8f9364u},
    {"dijkstra/inorder/loop", 0xd26b2ef3u},
    {"dijkstra/inorder/burst", 0x46e3a829u},
    {"dijkstra/ooo/clean", 0x57a093bbu},
    {"dijkstra/ooo/loop", 0x81139e33u},
    {"dijkstra/ooo/burst", 0xd745af6eu},
    {"patricia/inorder/clean", 0xa0df262fu},
    {"patricia/inorder/loop", 0x72089f4cu},
    {"patricia/inorder/burst", 0x5c4560e5u},
    {"patricia/ooo/clean", 0xba4e0ed9u},
    {"patricia/ooo/loop", 0xeccc5423u},
    {"patricia/ooo/burst", 0xc2052a95u},
    {"gsm/inorder/clean", 0xfa5a131du},
    {"gsm/inorder/loop", 0xa220b5c4u},
    {"gsm/inorder/burst", 0xe0756c3au},
    {"gsm/ooo/clean", 0x5e3c5abdu},
    {"gsm/ooo/loop", 0x0f808e56u},
    {"gsm/ooo/burst", 0x61e7fec5u},
    {"fft/inorder/clean", 0x50b6322au},
    {"fft/inorder/loop", 0xcb1155cfu},
    {"fft/inorder/burst", 0x178f35eau},
    {"fft/ooo/clean", 0xca8ba163u},
    {"fft/ooo/loop", 0x8a368a0fu},
    {"fft/ooo/burst", 0xcb04417fu},
    {"sha/inorder/clean", 0x50436177u},
    {"sha/inorder/loop", 0x5ccbd773u},
    {"sha/inorder/burst", 0xe2d920b2u},
    {"sha/ooo/clean", 0x92ba8cfeu},
    {"sha/ooo/loop", 0xd5f7cdbdu},
    {"sha/ooo/burst", 0xa3dd66c1u},
    {"rijndael/inorder/clean", 0x256e2884u},
    {"rijndael/inorder/loop", 0x474c4eb4u},
    {"rijndael/inorder/burst", 0x100c1172u},
    {"rijndael/ooo/clean", 0x297f2fa4u},
    {"rijndael/ooo/loop", 0x33d9081eu},
    {"rijndael/ooo/burst", 0x13119de1u},
    {"stringsearch/inorder/clean", 0x82c1fc0du},
    {"stringsearch/inorder/loop", 0x54ccf8d4u},
    {"stringsearch/inorder/burst", 0xae59e7a2u},
    {"stringsearch/ooo/clean", 0x05acc5f7u},
    {"stringsearch/ooo/loop", 0x39c0563fu},
    {"stringsearch/ooo/burst", 0x87cfc231u},
    {"sha/width1/loop", 0x15f9f16bu},
    {"sha/width4/loop", 0xa088770cu},
    {"sha/rob16/loop", 0x3b8ad827u},
    {"sha/rob128/loop", 0x0c00b491u},
    {"sha/cps20/loop", 0x73d4e0a5u},
    {"sha/l1line32/loop", 0x569163e7u},
    {"gsm/width1/loop", 0xf20376a7u},
    {"gsm/width4/loop", 0x61c01929u},
    {"gsm/rob16/loop", 0x252b6f79u},
    {"gsm/rob128/loop", 0x2d1c6a0bu},
    {"gsm/cps20/loop", 0xbf1a516cu},
    {"gsm/l1line32/loop", 0x9d80db06u},
};

std::uint32_t
expected(const std::string &name)
{
    for (const Golden &g : kGolden)
        if (name == g.name)
            return g.crc;
    return 0;
}

void
checkCase(const std::string &name, const workloads::Workload &w,
          const cpu::CoreConfig &cfg, Plan kind)
{
    cpu::Core core(cfg);
    const auto rr = core.run(w.program, w.regions, w.make_input(kRunSeed),
                             makePlan(w, kind), kRunSeed);
    ASSERT_FALSE(rr.power.empty()) << name;
    if (kind != Plan::Clean) {
        EXPECT_GT(rr.stats.injected_ops, 0u)
            << name << ": plan never fired";
    }
    const std::uint32_t got = digest(rr);
    char line[128];
    std::snprintf(line, sizeof line, "{\"%s\", 0x%08xu},", name.c_str(),
                  got);
    EXPECT_EQ(got, expected(name)) << "golden entry: " << line;
}

class SimulatorGolden : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SimulatorGolden, EveryTimingModelAndPlanMatches)
{
    const auto w = workloads::makeWorkload(GetParam(), kScale);
    for (const bool ooo : {false, true}) {
        for (const Plan kind : {Plan::Clean, Plan::Loop, Plan::Burst}) {
            const std::string name = GetParam() +
                (ooo ? "/ooo/" : "/inorder/") + planName(kind);
            checkCase(name, w, baseConfig(ooo), kind);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SimulatorGolden,
                         ::testing::ValuesIn(workloads::workloadNames()),
                         [](const auto &info) { return info.param; });

TEST(SimulatorGoldenConfigs, NonDefaultConfigsMatch)
{
    struct Variant
    {
        const char *name;
        bool ooo;
        void (*apply)(cpu::CoreConfig &);
    };
    const Variant variants[] = {
        {"width1", false, [](cpu::CoreConfig &c) { c.issue_width = 1; }},
        {"width4", true, [](cpu::CoreConfig &c) { c.issue_width = 4; }},
        {"rob16", true, [](cpu::CoreConfig &c) { c.rob_size = 16; }},
        {"rob128", true, [](cpu::CoreConfig &c) { c.rob_size = 128; }},
        {"cps20", false,
         [](cpu::CoreConfig &c) { c.cycles_per_sample = 20; }},
        {"l1line32", true,
         [](cpu::CoreConfig &c) { c.l1.line_bytes = 32; }},
    };
    for (const char *prog : {"sha", "gsm"}) {
        const auto w = workloads::makeWorkload(prog, kScale);
        for (const Variant &v : variants) {
            cpu::CoreConfig cfg = baseConfig(v.ooo);
            v.apply(cfg);
            checkCase(std::string(prog) + "/" + v.name + "/loop", w, cfg,
                      Plan::Loop);
        }
    }
}

} // namespace
