/**
 * @file
 * Determinism contract of the parallel execution layer: training and
 * batch monitoring must produce byte-identical results at any thread
 * count (the seed-ordered reduction described in docs/ALGORITHM.md).
 */

#include <sstream>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "inject/scenarios.h"

namespace
{

using namespace eddie;
using core::Pipeline;
using core::PipelineConfig;

std::string
serializedModel(const PipelineConfig &base, std::size_t threads)
{
    PipelineConfig cfg = base;
    cfg.threads = threads;
    Pipeline pipe(workloads::makeWorkload("bitcount", 0.15), cfg);
    return core::encodeModelBinary(pipe.trainModel());
}

TEST(ParallelDeterminismTest, TrainedModelIsByteIdenticalAcrossThreadCounts)
{
    PipelineConfig cfg;
    cfg.train_runs = 4;
    const auto at1 = serializedModel(cfg, 1);
    ASSERT_FALSE(at1.empty());
    EXPECT_EQ(serializedModel(cfg, 2), at1);
    EXPECT_EQ(serializedModel(cfg, 8), at1);
}

TEST(ParallelDeterminismTest, TrainingDiagnosticsMatchAcrossThreadCounts)
{
    PipelineConfig cfg;
    cfg.train_runs = 3;

    core::TrainingDiagnostics serial, parallel;
    {
        PipelineConfig c = cfg;
        c.threads = 1;
        Pipeline pipe(workloads::makeWorkload("sha", 0.15), c);
        pipe.trainModel(&serial);
    }
    {
        PipelineConfig c = cfg;
        c.threads = 8;
        Pipeline pipe(workloads::makeWorkload("sha", 0.15), c);
        pipe.trainModel(&parallel);
    }
    ASSERT_EQ(serial.sweeps.size(), parallel.sweeps.size());
    EXPECT_EQ(serial.sts_count, parallel.sts_count);
    for (std::size_t r = 0; r < serial.sweeps.size(); ++r) {
        ASSERT_EQ(serial.sweeps[r].size(), parallel.sweeps[r].size())
            << "region " << r;
        for (std::size_t i = 0; i < serial.sweeps[r].size(); ++i) {
            EXPECT_EQ(serial.sweeps[r][i].n,
                      parallel.sweeps[r][i].n);
            EXPECT_EQ(serial.sweeps[r][i].false_rejection_rate,
                      parallel.sweeps[r][i].false_rejection_rate);
        }
    }
}

TEST(ParallelDeterminismTest, MonitorBatchMatchesSerialMonitorRuns)
{
    PipelineConfig cfg;
    cfg.train_runs = 3;
    cfg.threads = 4;
    Pipeline pipe(workloads::makeWorkload("bitcount", 0.15), cfg);
    const auto model = pipe.trainModel();

    const std::vector<std::uint64_t> seeds = {9000, 9001, 9002, 9003,
                                              9004};
    const auto batch = pipe.monitorBatch(model, seeds);
    ASSERT_EQ(batch.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        const auto one = pipe.monitorRun(model, seeds[i]);
        EXPECT_EQ(batch[i].reports.size(), one.reports.size())
            << "seed " << seeds[i];
        EXPECT_EQ(batch[i].metrics.groups, one.metrics.groups);
        EXPECT_EQ(batch[i].metrics.false_positives,
                  one.metrics.false_positives);
        EXPECT_EQ(batch[i].metrics.covered_steps,
                  one.metrics.covered_steps);
    }
}

/** Flattens every observable field of a batch of evaluations so the
 *  cross-thread comparison is byte-for-byte, not field-by-field. */
std::string
serializedBatch(const std::vector<core::RunEvaluation> &batch)
{
    std::ostringstream os;
    os.precision(17);
    for (const auto &ev : batch) {
        for (const auto &r : ev.reports)
            os << r.step << ',' << r.time << ',' << r.region << ';';
        for (const auto &r : ev.records) {
            os << r.region << r.tested << r.rejected << r.reported
               << r.transitioned << r.degraded;
        }
        const auto &m = ev.metrics;
        os << '|' << m.groups << ' ' << m.injected_groups << ' '
           << m.true_positives << ' ' << m.false_positives << ' '
           << m.false_negatives << ' ' << m.detection_latency << ' '
           << m.covered_steps << ' ' << m.labeled_steps << ' '
           << m.degraded_groups << '|';
        for (std::size_t v : m.region_groups)
            os << v << ' ';
        for (std::size_t v : m.region_correct)
            os << v << ' ';
        os << ev.degraded.quarantined << ' ' << ev.degraded.outages
           << ' ' << ev.degraded.resyncs << ' '
           << ev.degraded.longest_outage << '\n';
    }
    return os.str();
}

TEST(ParallelDeterminismTest,
     MonitorVerdictsAreByteIdenticalAcrossThreadCounts)
{
    PipelineConfig base;
    base.train_runs = 3;
    base.threads = 1;
    Pipeline trainer_pipe(workloads::makeWorkload("bitcount", 0.15),
                          base);
    const auto model = trainer_pipe.trainModel();

    const std::vector<std::uint64_t> seeds = {9000, 9001, 9002, 9003,
                                              9004, 9005};
    // Clean and injected runs interleaved: runs of different lengths
    // finish out of order, and a scratch monitor that stepped an
    // injected run is reset and reused for a clean one.
    std::vector<cpu::InjectionPlan> plans(seeds.size());
    const std::size_t target =
        inject::defaultTargetLoop(trainer_pipe.workload());
    for (std::size_t i = 1; i < seeds.size(); i += 2)
        plans[i] = inject::canonicalLoopInjection(target, 1.0, seeds[i]);
    std::string at1;
    for (std::size_t threads : {1u, 2u, 8u}) {
        PipelineConfig cfg = base;
        cfg.threads = threads;
        Pipeline pipe(workloads::makeWorkload("bitcount", 0.15), cfg);
        const auto s =
            serializedBatch(pipe.monitorBatch(model, seeds, plans));
        ASSERT_FALSE(s.empty());
        if (threads == 1)
            at1 = s;
        else
            EXPECT_EQ(s, at1) << "threads " << threads;
    }
}

TEST(ParallelDeterminismTest, MonitorBatchRejectsMismatchedPlans)
{
    PipelineConfig cfg;
    Pipeline pipe(workloads::makeWorkload("bitcount", 0.15), cfg);
    core::TrainedModel model; // contents irrelevant
    EXPECT_THROW(pipe.monitorBatch(model, {1, 2, 3},
                                   std::vector<cpu::InjectionPlan>(2)),
                 std::invalid_argument);
}

} // namespace
