/**
 * @file
 * Golden monitor digests: a CRC-32 over every observable output of a
 * monitored run (each step record, each anomaly report, the scored
 * RunMetrics, the degraded counters and Monitor::testCalls()) for
 * bitcount at scale 0.15, three clean seeds and one loop injection,
 * under both the K-S and the MWU test. Any change to a verdict, a
 * region hand-off, a report time or the number of tests run changes
 * a digest, so a faster kernel must reproduce them unchanged. The
 * test counts are also pinned on their own, so a kernel that skips or
 * repeats a test fails with the count rather than a CRC.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "core/pipeline.h"
#include "inject/scenarios.h"

namespace
{

using namespace eddie;
using core::Pipeline;
using core::PipelineConfig;

/** Appends values field by field, so struct padding never reaches
 *  the digest. */
class Digest
{
  public:
    void add(std::uint64_t v) { crc_ = common::crc32(&v, sizeof v, crc_); }
    void add(bool v) { add(std::uint64_t(v)); }
    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    std::uint32_t value() const { return crc_; }

  private:
    std::uint32_t crc_ = 0;
};

std::uint32_t
digestRun(const core::Monitor &monitor, const core::RunMetrics &m)
{
    Digest d;
    for (const core::StepRecord &r : monitor.records()) {
        d.add(std::uint64_t(r.region));
        d.add(r.tested);
        d.add(r.rejected);
        d.add(r.reported);
        d.add(r.transitioned);
        d.add(r.degraded);
    }
    for (const core::AnomalyReport &r : monitor.reports()) {
        d.add(std::uint64_t(r.step));
        d.add(r.time);
        d.add(std::uint64_t(r.region));
    }
    for (std::size_t v : {m.groups, m.injected_groups, m.true_positives,
                          m.false_positives, m.false_negatives,
                          m.covered_steps, m.labeled_steps,
                          m.degraded_groups})
        d.add(std::uint64_t(v));
    d.add(m.detection_latency);
    for (std::size_t v : m.region_groups)
        d.add(std::uint64_t(v));
    for (std::size_t v : m.region_correct)
        d.add(std::uint64_t(v));
    const core::DegradedStats &g = monitor.degradedStats();
    for (std::size_t v : {g.quarantined, g.outages, g.resyncs,
                          g.longest_outage})
        d.add(std::uint64_t(v));
    d.add(std::uint64_t(monitor.testCalls()));
    return d.value();
}

struct Golden
{
    const char *name;
    std::uint32_t crc;
    std::size_t test_calls;
};

// Recorded before the copy-and-sort monitor route was deleted; that
// route and the presorted kernels produced these same digests and ran
// the same number of tests.
const Golden kGolden[] = {
    {"ks/clean9000", 0x268039bfu, 475},
    {"ks/clean9001", 0x5bed2888u, 457},
    {"ks/clean9002", 0x6db2a44eu, 462},
    {"ks/loop9100", 0xd11ddf17u, 1605},
    {"mwu/clean9000", 0x58305c88u, 588},
    {"mwu/clean9001", 0xb17fbaf8u, 509},
    {"mwu/clean9002", 0x883676f8u, 497},
    {"mwu/loop9100", 0x130a95dcu, 1626},
};

Golden
expected(const std::string &name)
{
    for (const Golden &g : kGolden)
        if (name == g.name)
            return g;
    return {"", 0, 0};
}

/** Monitors each case of @p test serially and hands its name, the
 *  finished monitor and the scored metrics to @p check. */
template <typename Check>
void
forEachCase(core::TestKind test, const char *prefix, Check check)
{
    PipelineConfig cfg;
    cfg.monitor.test = test;
    cfg.train_runs = 3;
    cfg.threads = 1;
    const Pipeline pipe(workloads::makeWorkload("bitcount", 0.15), cfg);
    const auto model = pipe.trainModel();

    struct Case
    {
        std::string name;
        std::uint64_t seed;
        cpu::InjectionPlan plan;
    };
    std::vector<Case> cases;
    for (std::uint64_t seed : {9000ull, 9001ull, 9002ull})
        cases.push_back({std::string(prefix) + "/clean" +
                             std::to_string(seed),
                         seed, cpu::InjectionPlan()});
    cases.push_back({std::string(prefix) + "/loop9100", 9100,
                     inject::canonicalLoopInjection(
                         inject::defaultTargetLoop(pipe.workload()), 1.0,
                         9100)});

    for (const Case &c : cases) {
        const auto stream = pipe.captureRun(c.seed, c.plan);
        core::Monitor monitor(model, cfg.monitor);
        for (const auto &sts : stream)
            monitor.step(sts);
        ASSERT_GT(monitor.testCalls(), 0u) << c.name;
        const auto metrics = core::scoreRun(stream, monitor.records(),
                                            monitor.reports(), model);
        if (!c.plan.empty()) {
            EXPECT_GT(metrics.injected_groups, 0u) << c.name;
        }
        check(c.name, monitor, metrics);
    }
}

void
checkDigests(core::TestKind test, const char *prefix)
{
    forEachCase(test, prefix,
                [](const std::string &name, const core::Monitor &monitor,
                   const core::RunMetrics &metrics) {
                    const std::uint32_t got = digestRun(monitor, metrics);
                    char line[128];
                    std::snprintf(line, sizeof line, "{\"%s\", 0x%08xu},",
                                  name.c_str(), got);
                    EXPECT_EQ(got, expected(name).crc)
                        << "golden entry: " << line;
                });
}

TEST(MonitorGolden, KolmogorovSmirnovVerdictsMatch)
{
    checkDigests(core::TestKind::KolmogorovSmirnov, "ks");
}

TEST(MonitorGolden, MannWhitneyVerdictsMatch)
{
    checkDigests(core::TestKind::MannWhitney, "mwu");
}

TEST(MonitorGolden, TestCallCountsMatch)
{
    const auto check = [](const std::string &name,
                          const core::Monitor &monitor,
                          const core::RunMetrics &) {
        EXPECT_EQ(monitor.testCalls(), expected(name).test_calls) << name;
    };
    forEachCase(core::TestKind::KolmogorovSmirnov, "ks", check);
    forEachCase(core::TestKind::MannWhitney, "mwu", check);
}

} // namespace
