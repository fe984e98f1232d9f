#include <limits>

#include <gtest/gtest.h>

#include "cpu/core.h"
#include "prog/builder.h"
#include "prog/regions.h"

namespace
{

using namespace eddie::cpu;
using eddie::prog::ProgramBuilder;

CoreConfig
testConfig()
{
    CoreConfig cfg;
    cfg.snapshot_words = 64;
    cfg.schedule_jitter = 0.0; // deterministic timing in tests
    return cfg;
}

RunResult
runProgram(const eddie::prog::Program &p, const CoreConfig &cfg,
           const MemoryImage &img = {},
           const InjectionPlan &plan = InjectionPlan())
{
    const auto regions = eddie::prog::analyzeProgram(p);
    Core core(cfg);
    return core.run(p, regions, img, plan, 1);
}

TEST(CoreFunctionalTest, ArithmeticAndMemory)
{
    ProgramBuilder b;
    b.li(1, 6);
    b.li(2, 7);
    b.mul(3, 1, 2);  // 42
    b.addi(4, 3, -2); // 40
    b.sub(5, 4, 1);  // 34
    b.div(6, 4, 2);  // 5
    b.li(7, 10);
    b.st(7, 3);      // mem[10] = 42
    b.ld(8, 7);      // r8 = 42
    b.xor_(9, 8, 3); // 0
    b.halt();
    const auto rr = runProgram(b.take(), testConfig());
    EXPECT_EQ(rr.final_regs[3], 42);
    EXPECT_EQ(rr.final_regs[4], 40);
    EXPECT_EQ(rr.final_regs[5], 34);
    EXPECT_EQ(rr.final_regs[6], 5);
    EXPECT_EQ(rr.final_regs[8], 42);
    EXPECT_EQ(rr.final_regs[9], 0);
    EXPECT_EQ(rr.memory[10], 42);
}

TEST(CoreFunctionalTest, ShiftsAndLogic)
{
    ProgramBuilder b;
    b.li(1, 0b1100);
    b.li(2, 2);
    b.shl(3, 1, 2); // 48
    b.shr(4, 1, 2); // 3
    b.and_(5, 1, 3);
    b.or_(6, 1, 4);
    b.halt();
    const auto rr = runProgram(b.take(), testConfig());
    EXPECT_EQ(rr.final_regs[3], 48);
    EXPECT_EQ(rr.final_regs[4], 3);
    EXPECT_EQ(rr.final_regs[5], 0b1100 & 48);
    EXPECT_EQ(rr.final_regs[6], 0b1100 | 3);
}

TEST(CoreFunctionalTest, DivByZeroYieldsZero)
{
    ProgramBuilder b;
    b.li(1, 10);
    b.li(2, 0);
    b.div(3, 1, 2);
    b.halt();
    const auto rr = runProgram(b.take(), testConfig());
    EXPECT_EQ(rr.final_regs[3], 0);
}

TEST(CoreFunctionalTest, ArithmeticWrapsLikeTwosComplement)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    ProgramBuilder b;
    b.li(1, kMin);
    b.li(2, -1);
    b.div(3, 1, 2);   // INT64_MIN / -1 wraps to INT64_MIN
    b.li(4, kMax);
    b.addi(5, 4, 1);  // INT64_MAX + 1 wraps to INT64_MIN
    b.li(6, 3);
    b.mul(7, 4, 6);   // 3 * INT64_MAX wraps to INT64_MAX - 2
    b.sub(8, 1, 6);   // INT64_MIN - 3 wraps to INT64_MAX - 2
    b.halt();
    const auto rr = runProgram(b.take(), testConfig());
    EXPECT_EQ(rr.final_regs[3], kMin);
    EXPECT_EQ(rr.final_regs[5], kMin);
    EXPECT_EQ(rr.final_regs[7], kMax - 2);
    EXPECT_EQ(rr.final_regs[8], kMax - 2);
}

TEST(CoreFunctionalTest, LoopComputesSum)
{
    // sum 1..100 = 5050
    ProgramBuilder b;
    b.li(1, 0);  // i
    b.li(2, 0);  // sum
    b.li(3, 100);
    auto loop = b.newLabel();
    b.bind(loop);
    b.addi(1, 1, 1);
    b.add(2, 2, 1);
    b.blt(1, 3, loop);
    b.halt();
    const auto rr = runProgram(b.take(), testConfig());
    EXPECT_EQ(rr.final_regs[2], 5050);
    EXPECT_EQ(rr.stats.instructions, 3u + 3u * 100u + 1u);
}

TEST(CoreFunctionalTest, MemoryImageLoaded)
{
    ProgramBuilder b;
    b.li(1, 20);
    b.ld(2, 1);
    b.ld(3, 1, 1);
    b.halt();
    MemoryImage img;
    img.emplace_back(20, std::vector<std::int64_t>{111, 222});
    const auto rr = runProgram(b.take(), testConfig(), img);
    EXPECT_EQ(rr.final_regs[2], 111);
    EXPECT_EQ(rr.final_regs[3], 222);
}

TEST(CoreTimingTest, CyclesGrowWithWork)
{
    ProgramBuilder b1;
    b1.li(1, 0);
    b1.li(2, 1000);
    auto l1 = b1.newLabel();
    b1.bind(l1);
    b1.addi(1, 1, 1);
    b1.blt(1, 2, l1);
    b1.halt();
    const auto small = runProgram(b1.take(), testConfig());

    ProgramBuilder b2;
    b2.li(1, 0);
    b2.li(2, 10000);
    auto l2 = b2.newLabel();
    b2.bind(l2);
    b2.addi(1, 1, 1);
    b2.blt(1, 2, l2);
    b2.halt();
    const auto big = runProgram(b2.take(), testConfig());

    EXPECT_GT(big.stats.cycles, 5 * small.stats.cycles);
}

TEST(CoreTimingTest, WiderIssueIsFaster)
{
    // Independent operations benefit from issue width.
    ProgramBuilder b;
    b.li(1, 0);
    b.li(2, 20000);
    auto loop = b.newLabel();
    b.bind(loop);
    for (int k = 3; k < 11; ++k)
        b.addi(k, k, 1); // 8 independent adds
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    const auto p = b.take();

    auto narrow_cfg = testConfig();
    narrow_cfg.issue_width = 1;
    auto wide_cfg = testConfig();
    wide_cfg.issue_width = 4;
    const auto narrow = runProgram(p, narrow_cfg);
    const auto wide = runProgram(p, wide_cfg);
    EXPECT_LT(wide.stats.cycles, narrow.stats.cycles * 2 / 3);
}

TEST(CoreTimingTest, OutOfOrderHidesLoadLatency)
{
    // A pointer-chase-free loop with many independent loads: the
    // out-of-order core should overlap misses, the in-order core
    // cannot.
    ProgramBuilder b;
    b.li(1, 0);
    b.li(2, 3000);
    b.li(3, 1 << 14); // stride region base
    b.li(4, 512);     // stride in words (separate lines, big span)
    auto loop = b.newLabel();
    b.bind(loop);
    b.mul(5, 1, 4);
    b.add(5, 5, 3);
    b.ld(6, 5, 0);
    b.ld(7, 5, 8);
    b.ld(8, 5, 16);
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    const auto p = b.take();

    auto in_cfg = testConfig();
    in_cfg.out_of_order = false;
    auto ooo_cfg = testConfig();
    ooo_cfg.out_of_order = true;
    ooo_cfg.rob_size = 64;
    const auto inorder = runProgram(p, in_cfg);
    const auto ooo = runProgram(p, ooo_cfg);
    EXPECT_LT(ooo.stats.cycles, inorder.stats.cycles);
}

TEST(CoreTimingTest, MispredictPenaltyScalesWithDepth)
{
    // A data-dependent unpredictable branch pattern.
    ProgramBuilder b;
    b.li(1, 0);
    b.li(2, 20000);
    b.li(3, 0x9E37); // mixing constant
    b.li(4, 0);
    b.li(5, 1);
    auto loop = b.newLabel();
    auto skip = b.newLabel();
    b.bind(loop);
    b.mul(4, 1, 3);
    b.shr(6, 4, 5);
    b.and_(6, 6, 5);
    b.beq(6, 5, skip);
    b.addi(7, 7, 1);
    b.bind(skip);
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    const auto p = b.take();

    auto shallow = testConfig();
    shallow.pipeline_depth = 4;
    auto deep = testConfig();
    deep.pipeline_depth = 20;
    const auto s = runProgram(p, shallow);
    const auto d = runProgram(p, deep);
    EXPECT_GT(d.stats.cycles, s.stats.cycles);
}

TEST(CoreTest, PowerTraceAnnotationsAligned)
{
    ProgramBuilder b;
    b.li(1, 0);
    b.li(2, 5000);
    auto loop = b.newLabel();
    b.bind(loop);
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    const auto rr = runProgram(b.take(), testConfig());
    EXPECT_EQ(rr.power.size(), rr.region.size());
    EXPECT_EQ(rr.power.size(), rr.injected.size());
    EXPECT_GT(rr.sample_rate, 0.0);
    for (double p : rr.power)
        EXPECT_GT(p, 0.0); // baseline keeps every sample positive
}

TEST(CoreTest, RegionGroundTruthCoversLoop)
{
    ProgramBuilder b;
    b.li(1, 0);
    b.li(2, 50000);
    auto loop = b.newLabel();
    b.bind(loop);
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    const auto rr = runProgram(b.take(), testConfig());
    std::size_t in_loop = 0;
    for (std::size_t r : rr.region)
        if (r == 0)
            ++in_loop;
    EXPECT_GT(double(in_loop) / double(rr.region.size()), 0.95);
}

TEST(CoreTest, InstructionCapStopsRunawayProgram)
{
    ProgramBuilder b;
    auto loop = b.newLabel();
    b.bind(loop);
    b.jmp(loop); // infinite
    auto cfg = testConfig();
    cfg.max_instructions = 10000;
    const auto rr = runProgram(b.take(), cfg);
    EXPECT_EQ(rr.stats.instructions, 10000u);
}

TEST(CoreTest, EmptyProgramThrows)
{
    eddie::prog::Program p;
    const auto regions = eddie::prog::analyzeProgram(p);
    Core core(testConfig());
    EXPECT_THROW(core.run(p, regions, {}), std::invalid_argument);
}

TEST(CoreTest, OversizedImageThrows)
{
    ProgramBuilder b;
    b.halt();
    const auto p = b.take();
    const auto regions = eddie::prog::analyzeProgram(p);
    auto cfg = testConfig();
    Core core(cfg);
    MemoryImage img;
    img.emplace_back(cfg.memory_words - 1,
                     std::vector<std::int64_t>{1, 2, 3});
    EXPECT_THROW(core.run(p, regions, img), std::out_of_range);
}

} // namespace
