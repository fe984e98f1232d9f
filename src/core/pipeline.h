/**
 * @file
 * End-to-end experiment pipeline: simulate a workload run, turn the
 * power trace into a captured signal (direct power, as in the paper's
 * Table 2 setup, or through the EM channel, as in Table 1), extract
 * the STS stream, and train/monitor on it.
 */

#ifndef EDDIE_CORE_PIPELINE_H
#define EDDIE_CORE_PIPELINE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "em/emanation.h"
#include "metrics.h"
#include "model.h"
#include "monitor.h"
#include "sts.h"
#include "trainer.h"
#include "workloads/workload.h"

namespace eddie::core
{

class CaptureCache;

/** Which signal the STSs are computed on. */
enum class SignalPath
{
    /** Simulator power trace directly (paper Sec. 5.3, Table 2). */
    Power,
    /** Complex-baseband EM capture with channel noise (paper
     *  Sec. 5.2, Table 1). */
    EmBaseband,
};

/** Everything that parameterizes an experiment. */
struct PipelineConfig
{
    cpu::CoreConfig core;
    power::EnergyParams energy;

    /** STFT window (0.1 ms at the default 20 MS/s power sampling,
     *  matching the paper's window length) and 50 % overlap. */
    std::size_t stft_window = 2048;
    std::size_t stft_hop = 1024;
    sig::WindowType stft_window_fn = sig::WindowType::Hann;

    FeatureConfig features;
    TrainerConfig trainer;
    MonitorConfig monitor;

    SignalPath path = SignalPath::Power;
    em::ChannelConfig channel;

    /** Training runs (paper: 25 on hardware, 10 in simulation). */
    std::size_t train_runs = 10;
    std::uint64_t train_seed_base = 1000;
    std::uint64_t monitor_seed_base = 9000;

    /**
     * Worker threads for training captures, the trainer's group-size
     * sweep, and batch monitoring; 0 = hardware concurrency. Results
     * are bit-identical for any value (see common/thread_pool.h).
     */
    std::size_t threads = 0;

    /**
     * Optional capture memoization cache (see capture_cache.h);
     * null disables memoization. May be shared across Pipeline
     * instances and threads. Because captures are deterministic in
     * their cache key, results are bit-identical with the cache on
     * or off.
     */
    std::shared_ptr<CaptureCache> capture_cache;
};

/** Outcome of monitoring one run. */
struct RunEvaluation
{
    RunMetrics metrics;
    std::vector<AnomalyReport> reports;
    std::vector<StepRecord> records;
    /** Quality-gate counters from the monitor (quality.h). */
    DegradedStats degraded;
};

/**
 * Per-stage wall-clock breakdown of one monitorBatch() call, summed
 * across shard workers. Each stage answers one question about a flat
 * scaling curve: was the time spent obtaining streams (capture),
 * preparing per-run state (setup), stepping the monitor (kernel), or
 * scoring verdicts (score) — and did the pool actually run the
 * requested thread count, or did the hardware clamp it
 * (resolved_threads < requested when hardware concurrency is the
 * binding constraint)?
 */
struct BatchStageTimings
{
    std::size_t requested_threads = 0;
    std::size_t resolved_threads = 0;
    double capture_ms = 0.0;
    double setup_ms = 0.0;
    double kernel_ms = 0.0;
    double score_ms = 0.0;
};

/** Binds a workload to a configuration and runs the experiment
 *  stages. */
class Pipeline
{
  public:
    Pipeline(workloads::Workload workload, PipelineConfig config);

    /** Simulates one run and returns the raw result. */
    cpu::RunResult simulate(std::uint64_t seed,
                            const cpu::InjectionPlan &plan =
                                cpu::InjectionPlan()) const;

    /** Simulates one run and extracts its labeled STS stream. */
    std::vector<Sts> captureRun(std::uint64_t seed,
                                const cpu::InjectionPlan &plan =
                                    cpu::InjectionPlan()) const;

    /**
     * Like captureRun() but returns a shared immutable stream (never
     * null): on a warm cache the monitor hot path reads the cached
     * entry directly instead of copying hundreds of STSs per run.
     * Without a cache this wraps a fresh capture.
     */
    std::shared_ptr<const std::vector<Sts>>
    captureRunShared(std::uint64_t seed,
                     const cpu::InjectionPlan &plan =
                         cpu::InjectionPlan()) const;

    /** STS stream from an already-simulated run. */
    std::vector<Sts> toSts(const cpu::RunResult &rr) const;

    /** Runs train_runs training captures and trains the model. */
    TrainedModel trainModel(TrainingDiagnostics *diag = nullptr) const;

    /** Monitors one (clean or injected) run against a model. */
    RunEvaluation monitorRun(const TrainedModel &model,
                             std::uint64_t seed,
                             const cpu::InjectionPlan &plan =
                                 cpu::InjectionPlan()) const;

    /**
     * Monitors many independent runs, distributing the
     * simulate→capture→monitor chains over config().threads workers.
     * Element i of the result corresponds to seeds[i] (and plans[i]
     * when @p plans is non-empty; plans.size() must then equal
     * seeds.size()), so the output order — and every value in it —
     * is independent of the thread count. This is the Monte-Carlo
     * engine behind the bench/ figures.
     *
     * Runs are handed to the resolved workers one at a time, so a
     * long (e.g. injected) run delays only itself; each run borrows
     * one of at most one-per-worker scratch Monitors (reset between
     * runs), so the steady-state hot path allocates no monitor
     * state per run. Stepping a reset monitor is bit-identical to a
     * fresh one, so results are still independent of the thread
     * count. @p timings, when non-null, receives the per-stage
     * breakdown.
     */
    std::vector<RunEvaluation>
    monitorBatch(const TrainedModel &model,
                 const std::vector<std::uint64_t> &seeds,
                 const std::vector<cpu::InjectionPlan> &plans = {},
                 BatchStageTimings *timings = nullptr) const;

    const workloads::Workload &workload() const { return workload_; }
    const PipelineConfig &config() const { return config_; }

  private:
    workloads::Workload workload_;
    PipelineConfig config_;
    /** Seed- and plan-independent prefix of the capture cache key
     *  (program, regions, core, energy, signal chain), serialized
     *  once at construction instead of once per lookup. */
    std::string key_prefix_;
};

/**
 * Stable serialized identity of one captureRun invocation: program
 * code and region graph, initial memory image (folded to a hash),
 * core/energy/STFT/feature/channel configuration, signal path,
 * injection plan, and seed. Two invocations with equal keys produce
 * bit-identical STS streams; anything that can change the stream is
 * part of the key. This is the CaptureCache key used by Pipeline.
 */
std::string captureCacheKey(const workloads::Workload &workload,
                            const PipelineConfig &config,
                            std::uint64_t seed,
                            const cpu::InjectionPlan &plan);

} // namespace eddie::core

#endif // EDDIE_CORE_PIPELINE_H
