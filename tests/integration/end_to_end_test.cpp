/**
 * @file
 * End-to-end integration: simulate, train, and monitor real
 * workloads through the full pipeline, on both signal paths.
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "inject/scenarios.h"

namespace
{

using namespace eddie;
using core::Pipeline;
using core::PipelineConfig;

PipelineConfig
smallConfig(core::SignalPath path = core::SignalPath::Power)
{
    PipelineConfig cfg;
    cfg.train_runs = 5;
    cfg.path = path;
    return cfg;
}

TEST(EndToEndTest, BitcountCleanRunLowFalsePositives)
{
    Pipeline pipe(workloads::makeWorkload("bitcount", 0.3),
                  smallConfig());
    const auto model = pipe.trainModel();
    const auto ev = pipe.monitorRun(model, 500);
    EXPECT_GT(ev.metrics.groups, 50u);
    const double fp = double(ev.metrics.false_positives) /
        double(ev.metrics.groups);
    EXPECT_LT(fp, 0.05);
}

TEST(EndToEndTest, BitcountLoopInjectionDetected)
{
    auto w = workloads::makeWorkload("bitcount", 0.3);
    const auto target = inject::defaultTargetLoop(w);
    Pipeline pipe(std::move(w), smallConfig());
    const auto model = pipe.trainModel();
    const auto ev = pipe.monitorRun(
        model, 501,
        inject::canonicalLoopInjection(target, 1.0, 501));
    ASSERT_GT(ev.metrics.injected_groups, 0u);
    EXPECT_FALSE(ev.reports.empty());
    EXPECT_GE(ev.metrics.detection_latency, 0.0);
    EXPECT_LT(ev.metrics.detection_latency, 0.02); // < 20 ms
    const double tpr = double(ev.metrics.true_positives) /
        double(ev.metrics.injected_groups);
    EXPECT_GT(tpr, 0.5);
}

TEST(EndToEndTest, BurstInjectionDetected)
{
    auto w = workloads::makeWorkload("bitcount", 0.3);
    Pipeline pipe(std::move(w), smallConfig());
    const auto model = pipe.trainModel();
    const auto ev = pipe.monitorRun(
        model, 502, inject::shellBurst(pipe.workload(), 0, 1, 502));
    ASSERT_GT(ev.metrics.injected_groups, 0u);
    EXPECT_FALSE(ev.reports.empty());
    EXPECT_GE(ev.metrics.detection_latency, 0.0);
}

TEST(EndToEndTest, EmBasebandPathWorks)
{
    auto cfg = smallConfig(core::SignalPath::EmBaseband);
    cfg.channel.snr_db = 25.0;
    cfg.channel.interferers.push_back({3.7e6, 0.05});
    // Large enough that every loop region collects training STSs;
    // untrained regions are blind spots by design.
    auto w = workloads::makeWorkload("sha", 0.6);
    const auto target = inject::defaultTargetLoop(w);
    Pipeline pipe(std::move(w), cfg);
    const auto model = pipe.trainModel();

    const auto clean = pipe.monitorRun(model, 503);
    const double fp = double(clean.metrics.false_positives) /
        double(std::max<std::size_t>(clean.metrics.groups, 1));
    EXPECT_LT(fp, 0.08);

    const auto injected = pipe.monitorRun(
        model, 504,
        inject::canonicalLoopInjection(target, 1.0, 504));
    EXPECT_FALSE(injected.reports.empty());
}

TEST(EndToEndTest, LowContaminationStillDetectedEventually)
{
    auto w = workloads::makeWorkload("bitcount", 0.3);
    const auto target = inject::defaultTargetLoop(w);
    Pipeline pipe(std::move(w), smallConfig());
    const auto model = pipe.trainModel();
    const auto ev = pipe.monitorRun(
        model, 505,
        inject::canonicalLoopInjection(target, 0.5, 505));
    ASSERT_GT(ev.metrics.injected_groups, 0u);
    EXPECT_FALSE(ev.reports.empty());
}

TEST(EndToEndTest, CalibrationRegressionGuard)
{
    // Pins the tuned end-to-end quality levels (see DESIGN.md §6 for
    // the mechanisms behind them); if one of these regresses, a
    // monitor/trainer change broke the calibration, not this test.
    auto cfg = smallConfig();
    cfg.train_runs = 6;
    Pipeline pipe(workloads::makeWorkload("bitcount", 0.5), cfg);
    const auto model = pipe.trainModel();

    // Clean: high coverage, low FP.
    std::size_t groups = 0, fp = 0, covered = 0, labeled = 0;
    for (std::uint64_t seed : {900u, 901u}) {
        const auto ev = pipe.monitorRun(model, seed);
        groups += ev.metrics.groups;
        fp += ev.metrics.false_positives;
        covered += ev.metrics.covered_steps;
        labeled += ev.metrics.labeled_steps;
    }
    EXPECT_LT(double(fp) / double(groups), 0.02);
    EXPECT_GT(double(covered) / double(labeled), 0.85);

    // Injected: high TPR, sub-5-ms latency.
    const auto target = inject::defaultTargetLoop(pipe.workload());
    const auto ev = pipe.monitorRun(
        model, 902, inject::canonicalLoopInjection(target, 1.0, 902));
    ASSERT_GT(ev.metrics.injected_groups, 0u);
    EXPECT_GT(double(ev.metrics.true_positives) /
                  double(ev.metrics.injected_groups),
              0.9);
    ASSERT_GE(ev.metrics.detection_latency, 0.0);
    EXPECT_LT(ev.metrics.detection_latency, 0.005);
}

TEST(EndToEndTest, ModelRoundTripPreservesBehaviour)
{
    Pipeline pipe(workloads::makeWorkload("bitcount", 0.25),
                  smallConfig());
    const auto model = pipe.trainModel();
    const std::string path = testing::TempDir() + "eddie_e2e_model.arc";
    core::saveModelFile(model, path);
    const auto loaded = core::loadModelFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(core::encodeModelBinary(loaded),
              core::encodeModelBinary(model));

    const auto a = pipe.monitorRun(model, 506);
    const auto b = pipe.monitorRun(loaded, 506);
    EXPECT_EQ(a.metrics.false_positives, b.metrics.false_positives);
    EXPECT_EQ(a.reports.size(), b.reports.size());
}

} // namespace
