/**
 * @file
 * perf_pipeline — stage-level performance benchmark of the EDDIE
 * pipeline, tracking the perf trajectory across PRs.
 *
 * Times the four pipeline stages (capture = simulate+emanate, STFT,
 * train, monitor), breaks passband synthesis down per stage
 * (envelope/tones/AWGN/filter) against a reference implementation
 * using per-sample libm trig, std::normal_distribution, and separate
 * filter+decimate passes, measures capture-cache cold/warm
 * throughput, sweeps trainModel and monitorBatch over a thread grid,
 * isolates the Monitor::step hot loop on pre-captured streams
 * (one thread vs sharded monitorBatch, with STS/sec, runs/sec, and
 * K-S calls/sec),
 * benchmarks the supervised serving runtime (steady-state STS/s
 * through a Supervisor, delta-checkpoint group-commit overhead, the
 * isolated cost of a full snapshot vs one delta commit, and recovery
 * latency after an injected worker crash — all required to
 * reproduce the bare monitor's verdicts bit-for-bit), prices the
 * EDDIEWIRE ingestion front end (loopback-TCP STS/s through
 * WireListener/WireClient vs the same session in-process, plus a
 * byte-level chaos run whose reconnect replay and typed malformed
 * rejections must still converge verdict-identical), measures the
 * EDDIEARC artifact store (recovery after a delta chain, plus the
 * tail-only sector-verification proof), and
 * atomically writes a machine-readable BENCH_pipeline.json (tmp +
 * rename) with stage wall-times, before/after kernel speedups,
 * cache hit rates, requested vs resolved thread counts with
 * per-stage shard timings, and a final "asserts" block recording
 * whether the perf targets held on this machine.
 *
 *   perf_pipeline [--workload sha] [--scale S] [--runs N]
 *                 [--monitor-runs M] [--out BENCH_pipeline.json]
 *
 * Environment knobs from bench_util (EDDIE_SCALE, ...) are NOT used
 * here: perf numbers must be comparable across invocations, so all
 * knobs are explicit flags with fixed defaults.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numbers>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/capture_cache.h"
#include "core/model.h"
#include "em/emanation.h"
#include "inject/scenarios.h"
#include "serve/checkpoint.h"
#include "serve/sample_source.h"
#include "serve/supervisor.h"
#include "serve/wire_client.h"
#include "serve/wire_listener.h"
#include "sig/filter.h"
#include "sig/modulation.h"
#include "sig/stft.h"
#include "store/archive.h"
#include "tools/tool_util.h"

using namespace eddie;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

/** Best-of-k wall time of @p fn in milliseconds. */
template <typename Fn>
double
bestOf(std::size_t k, Fn &&fn)
{
    double best = -1.0;
    for (std::size_t i = 0; i < k; ++i) {
        const auto t0 = Clock::now();
        fn();
        const double ms = msSince(t0);
        if (best < 0.0 || ms < best)
            best = ms;
    }
    return best;
}

void
printJsonMap(std::FILE *f, const char *key,
             const std::vector<std::size_t> &threads,
             const std::vector<double> &ms)
{
    std::fprintf(f, "  \"%s\": {", key);
    for (std::size_t i = 0; i < threads.size(); ++i)
        std::fprintf(f, "%s\"%zu\": %.3f", i == 0 ? "" : ", ",
                     threads[i], ms[i]);
    std::fprintf(f, "},\n");
}

void
printJsonTimings(std::FILE *f, const char *key,
                 const em::SynthesisTimings &t)
{
    std::fprintf(f,
                 "  \"%s\": {\"envelope_ms\": %.3f, \"tones_ms\": "
                 "%.3f, \"awgn_ms\": %.3f, \"filter_ms\": %.3f, "
                 "\"total_ms\": %.3f},\n",
                 key, t.envelope_ms, t.tones_ms, t.awgn_ms,
                 t.filter_ms,
                 t.envelope_ms + t.tones_ms + t.awgn_ms +
                     t.filter_ms);
}

// ---------------------------------------------------------------
// Reference synthesis chain: the pre-kernel formulation with a libm
// trig call per sample, std::normal_distribution AWGN, and separate
// firFilter + decimate passes. Kept here so every bench run reports
// the before/after kernel speedup on the same machine and input.
// ---------------------------------------------------------------

std::vector<double>
referenceAmModulate(const std::vector<double> &envelope,
                    double envelope_rate, const sig::AmConfig &am)
{
    const auto env = sig::normalizeEnvelope(envelope);
    const std::size_t n = std::size_t(double(env.size()) /
                                      envelope_rate * am.sample_rate);
    const double w = 2.0 * std::numbers::pi * am.carrier_hz;
    std::vector<double> rf(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = double(i) / am.sample_rate;
        const std::size_t j = std::min(
            env.size() - 1, std::size_t(t * envelope_rate));
        rf[i] = am.amplitude * (1.0 + am.depth * env[j]) *
                std::cos(w * t);
    }
    return rf;
}

void
referenceAddTone(std::mt19937_64 &rng, std::vector<double> &signal,
                 double freq_hz, double sample_rate, double amplitude)
{
    std::uniform_real_distribution<double> dist(
        0.0, 2.0 * std::numbers::pi);
    const double phase = dist(rng);
    const double w = 2.0 * std::numbers::pi * freq_hz;
    for (std::size_t i = 0; i < signal.size(); ++i)
        signal[i] += amplitude *
                     std::cos(w * double(i) / sample_rate + phase);
}

void
referenceAddAwgn(std::mt19937_64 &rng, std::vector<double> &signal,
                 double snr_db)
{
    double power = 0.0;
    for (double v : signal)
        power += v * v;
    power /= double(signal.size());
    const double sigma =
        std::sqrt(power / std::pow(10.0, snr_db / 10.0));
    std::normal_distribution<double> gauss;
    for (auto &v : signal)
        v += sigma * gauss(rng);
}

std::vector<sig::Complex>
referenceIqDownconvert(const std::vector<double> &rf,
                       const sig::ReceiverConfig &rx)
{
    const double w = 2.0 * std::numbers::pi * rx.center_hz;
    std::vector<sig::Complex> mixed(rf.size());
    for (std::size_t i = 0; i < rf.size(); ++i) {
        const double t = double(i) / rx.sample_rate;
        mixed[i] = 2.0 * rf[i] *
                   sig::Complex(std::cos(w * t), -std::sin(w * t));
    }
    const auto h = sig::designLowPass(rx.bandwidth_hz, rx.sample_rate,
                                      rx.fir_taps);
    return sig::decimate(sig::firFilter(mixed, h), rx.decimation);
}

/** Full reference chain with the same per-stage accounting as
 *  passbandCapture. */
std::vector<sig::Complex>
referencePassbandCapture(const std::vector<double> &power,
                         double power_rate,
                         const em::PassbandConfig &cfg,
                         std::uint64_t seed,
                         em::SynthesisTimings &t)
{
    std::mt19937_64 rng(seed);
    auto t0 = Clock::now();
    auto rf = referenceAmModulate(power, power_rate, cfg.am);
    t.envelope_ms += msSince(t0);

    t0 = Clock::now();
    for (const auto &tone : cfg.channel.interferers)
        referenceAddTone(rng, rf, cfg.am.carrier_hz + tone.offset_hz,
                         cfg.am.sample_rate, tone.amplitude);
    t.tones_ms += msSince(t0);

    t0 = Clock::now();
    if (cfg.channel.snr_db < 200.0)
        referenceAddAwgn(rng, rf, cfg.channel.snr_db);
    t.awgn_ms += msSince(t0);

    t0 = Clock::now();
    auto iq = referenceIqDownconvert(rf, cfg.rx);
    t.filter_ms += msSince(t0);
    return iq;
}

/** The whole bench; main() maps a UsageError to exit 2 and any other
 *  escaped exception to exit 1 (tools::runTool). */
int
runBench(int argc, char **argv)
{
    tools::Args args(argc, argv,
                     {"workload", "scale", "runs", "monitor-runs", "out"});
    const std::string workload_name = args.get("workload", "sha");
    const double scale = args.getDouble("scale", 0.5);
    const std::size_t train_runs = args.getCount("runs", 8);
    const std::size_t monitor_runs = args.getCount("monitor-runs", 8);
    const std::string out_path =
        args.get("out", "BENCH_pipeline.json");

    core::PipelineConfig cfg;
    cfg.train_runs = train_runs;
    auto workload = workloads::makeWorkload(workload_name, scale);

    bench::printHeader(
        "perf_pipeline — stage wall-times and thread scaling",
        "workload " + workload_name + ", hardware threads " +
            std::to_string(common::ThreadPool::hardwareThreads()));

    // Stage 1: capture (one full simulate + STS extraction).
    core::Pipeline pipe(std::move(workload), cfg);
    const auto rr = pipe.simulate(cfg.train_seed_base);
    const double capture_ms =
        bestOf(3, [&] { (void)pipe.captureRun(cfg.train_seed_base); });
    std::printf("capture (simulate+STFT+STS): %8.1f ms  (%zu samples)\n",
                capture_ms, rr.power.size());

    // Stage 2: STFT alone on the captured power trace, single
    // thread. samples/sec is the figure future PRs compare.
    sig::StftConfig sc;
    sc.window_size = cfg.stft_window;
    sc.hop = cfg.stft_hop;
    sc.window = cfg.stft_window_fn;
    sc.sample_rate = rr.sample_rate;
    const sig::Stft stft(sc);
    const double stft_ms = bestOf(5, [&] { (void)stft.analyze(rr.power); });
    const double stft_samples_per_sec =
        double(rr.power.size()) / (stft_ms * 1e-3);
    std::printf("stft: %8.1f ms  (%.3g samples/s)\n", stft_ms,
                stft_samples_per_sec);

    // Passband synthesis, per stage: the vectorized kernels (phasor
    // oscillators, ziggurat AWGN, fused decimating FIR)
    // against the per-sample trig reference, on the same power trace.
    auto pb = em::defaultPassbandConfig();
    pb.channel.snr_db = 25.0;
    pb.channel.interferers = {{250e3, 0.1}, {-400e3, 0.05}};

    em::SynthesisTimings synth_after;
    em::SynthesisTimings synth_before;
    const std::size_t synth_reps = 3;
    for (std::size_t i = 0; i < synth_reps; ++i) {
        (void)em::passbandCapture(rr.power, rr.sample_rate, pb, 11,
                                  &synth_after);
        (void)referencePassbandCapture(rr.power, rr.sample_rate, pb,
                                       11, synth_before);
    }
    const auto scaleTimings = [&](em::SynthesisTimings &t) {
        t.envelope_ms /= double(synth_reps);
        t.tones_ms /= double(synth_reps);
        t.awgn_ms /= double(synth_reps);
        t.filter_ms /= double(synth_reps);
    };
    scaleTimings(synth_after);
    scaleTimings(synth_before);
    const auto totalMs = [](const em::SynthesisTimings &t) {
        return t.envelope_ms + t.tones_ms + t.awgn_ms + t.filter_ms;
    };
    const double synth_speedup =
        totalMs(synth_before) / totalMs(synth_after);
    std::printf("synthesis (envelope/tones/awgn/filter), ms:\n");
    std::printf("  reference: %8.1f / %8.1f / %8.1f / %8.1f  "
                "(total %8.1f)\n",
                synth_before.envelope_ms, synth_before.tones_ms,
                synth_before.awgn_ms, synth_before.filter_ms,
                totalMs(synth_before));
    std::printf("  kernels:   %8.1f / %8.1f / %8.1f / %8.1f  "
                "(total %8.1f, %.2fx)\n",
                synth_after.envelope_ms, synth_after.tones_ms,
                synth_after.awgn_ms, synth_after.filter_ms,
                totalMs(synth_after), synth_speedup);

    // Capture cache: cold miss vs. warm hit on the same key.
    auto cache = std::make_shared<core::CaptureCache>();
    core::PipelineConfig cached_cfg = cfg;
    cached_cfg.capture_cache = cache;
    core::Pipeline cached_pipe(
        workloads::makeWorkload(workload_name, scale), cached_cfg);
    const auto cold_t0 = Clock::now();
    (void)cached_pipe.captureRun(cfg.train_seed_base);
    const double cache_cold_ms = msSince(cold_t0);
    const double cache_warm_ms = bestOf(
        5, [&] { (void)cached_pipe.captureRun(cfg.train_seed_base); });
    const auto cache_stats = cache->stats();
    const double cache_warm_speedup = cache_cold_ms / cache_warm_ms;
    std::printf("capture cache: cold %8.1f ms, warm %8.3f ms "
                "(%.0fx), %s\n",
                cache_cold_ms, cache_warm_ms, cache_warm_speedup,
                core::describe(cache_stats).c_str());

    // Stage 3: trainModel over the thread grid, best-of-2 per point.
    // resolveThreads clamps to hardware concurrency, so requesting
    // more threads than cores must never be slower than one thread;
    // when scheduler noise still leaves the 8-thread point behind the
    // 1-thread one, re-measure both endpoints (their distributions
    // are identical once clamped, so the minima converge).
    const std::vector<std::size_t> grid = {1, 2, 4, 8};
    const auto timeTrain = [&](std::size_t t) {
        core::PipelineConfig c = cfg;
        c.threads = t;
        core::Pipeline p(workloads::makeWorkload(workload_name, scale),
                         c);
        return bestOf(2, [&] { (void)p.trainModel(); });
    };
    std::vector<double> train_ms;
    for (std::size_t t : grid) {
        train_ms.push_back(timeTrain(t));
        std::printf("train x%-2zu threads: %8.1f ms\n", t,
                    train_ms.back());
    }
    for (int attempt = 0;
         attempt < 5 && train_ms.back() > train_ms.front();
         ++attempt) {
        train_ms.front() = std::min(train_ms.front(), timeTrain(1));
        train_ms.back() =
            std::min(train_ms.back(), timeTrain(grid.back()));
    }

    // Stage 4: batch monitoring over the thread grid — same
    // measurement discipline as the train grid above (best-of-2 per
    // point, then endpoint re-measure): monitorBatch clamps its pool
    // to the hardware, so the oversubscribed point can only look
    // slower than one thread through scheduler noise, and a
    // single-shot sample happily reports that noise as a regression.
    const auto model = pipe.trainModel();
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < monitor_runs; ++i)
        seeds.push_back(cfg.monitor_seed_base + i);
    const auto timeMonitor = [&](std::size_t t) {
        core::PipelineConfig c = cfg;
        c.threads = t;
        core::Pipeline p(workloads::makeWorkload(workload_name, scale),
                         c);
        return bestOf(2, [&] { (void)p.monitorBatch(model, seeds); });
    };
    std::vector<double> monitor_ms;
    for (std::size_t t : grid) {
        monitor_ms.push_back(timeMonitor(t));
        std::printf("monitor %zu runs x%-2zu threads: %8.1f ms\n",
                    monitor_runs, t, monitor_ms.back());
    }
    for (int attempt = 0;
         attempt < 5 && monitor_ms.back() > monitor_ms.front();
         ++attempt) {
        monitor_ms.front() = std::min(monitor_ms.front(), timeMonitor(1));
        monitor_ms.back() =
            std::min(monitor_ms.back(), timeMonitor(grid.back()));
    }

    // Stage 5: the Monitor::step hot loop in isolation. Streams are
    // captured once up front (the warm shared cache serves every
    // later lookup from memory), so both variants time pure
    // monitoring of the *same* STS streams:
    //   serial  — one thread stepping one Monitor per stream;
    //   sharded — monitorBatch over the thread grid against the
    //             warm cache (read-only shared model, per-worker
    //             monitors).
    std::vector<std::shared_ptr<const std::vector<core::Sts>>> streams;
    std::size_t monitor_total_sts = 0;
    for (std::uint64_t seed : seeds) {
        streams.push_back(cached_pipe.captureRunShared(seed));
        monitor_total_sts += streams.back()->size();
    }

    const auto runMonitorLoop = [&] {
        std::size_t test_calls = 0;
        for (const auto &stream : streams) {
            core::Monitor m(model, cfg.monitor);
            for (const auto &sts : *stream)
                m.step(sts);
            test_calls += m.testCalls();
        }
        return test_calls;
    };
    const std::size_t loop_test_calls = runMonitorLoop();
    const double presorted_ms =
        bestOf(3, [&] { (void)runMonitorLoop(); });
    const auto perSec = [](std::size_t count, double ms) {
        return double(count) / (ms * 1e-3);
    };
    std::printf("monitor loop (%zu runs, %zu STSs, %zu tests):\n",
                monitor_runs, monitor_total_sts, loop_test_calls);
    std::printf("  serial:    %8.1f ms  (%.3g STS/s, %.3g tests/s)\n",
                presorted_ms, perSec(monitor_total_sts, presorted_ms),
                perSec(loop_test_calls, presorted_ms));

    // Sharded: full monitorRun chains (capture lookup + step loop +
    // scoring) distributed over the pool, timed against the same
    // warm cache. Each grid point records the thread count the pool
    // actually resolved to (the hardware clamp) plus the per-stage
    // breakdown, so a flat curve is attributable from the artifact
    // alone: clamped resolution means the host lacks cores; a fat
    // setup_ms means per-run state construction dominates; a fat
    // capture_ms means the cache is not serving lookups.
    std::vector<double> sharded_ms;
    std::vector<std::size_t> resolved_grid;
    std::vector<core::BatchStageTimings> sharded_stages;
    for (std::size_t t : grid) {
        core::PipelineConfig c = cached_cfg;
        c.threads = t;
        core::Pipeline p(workloads::makeWorkload(workload_name, scale),
                         c);
        core::BatchStageTimings bt;
        sharded_ms.push_back(bestOf(
            2, [&] { (void)p.monitorBatch(model, seeds, {}, &bt); }));
        resolved_grid.push_back(bt.resolved_threads);
        sharded_stages.push_back(bt);
        std::printf("  sharded x%-2zu threads (resolved %zu): %8.1f ms"
                    "  (%.3g runs/s; capture %.1f / setup %.1f / "
                    "kernel %.1f / score %.1f)\n",
                    t, bt.resolved_threads, sharded_ms.back(),
                    perSec(monitor_runs, sharded_ms.back()),
                    bt.capture_ms, bt.setup_ms, bt.kernel_ms,
                    bt.score_ms);
    }
    const double sharded_self_speedup =
        sharded_ms.front() / sharded_ms.back();
    // The scaling target only binds when >= 4 workers actually ran;
    // otherwise the artifact itself (requested vs resolved + stage
    // timings above) is the proof of the clamp. The resolved count is
    // the one monitorBatch reports: it is bounded by the run count as
    // well as by the cores.
    const bool host_clamped = resolved_grid.back() < 4;
    const bool sharded_scaling_ok =
        sharded_self_speedup >= 2.0 || host_clamped;

    // Stage 6: the supervised serving runtime (src/serve/) over the
    // same pre-captured streams, one session per stream, each pulled
    // by the worker that steps it. Three measurements: steady-state
    // throughput with checkpointing off, the same run with periodic
    // disk checkpoints (write overhead), and a single-shard run with
    // one injected worker crash (restart latency). Every variant must
    // reproduce the bare monitor loop's verdicts bit-for-bit.
    const auto recordsEqual =
        [](const std::vector<core::StepRecord> &a,
           const std::vector<core::StepRecord> &b) {
            if (a.size() != b.size())
                return false;
            for (std::size_t i = 0; i < a.size(); ++i)
                if (a[i].region != b[i].region ||
                    a[i].tested != b[i].tested ||
                    a[i].rejected != b[i].rejected ||
                    a[i].reported != b[i].reported ||
                    a[i].transitioned != b[i].transitioned ||
                    a[i].degraded != b[i].degraded)
                    return false;
            return true;
        };
    const auto reportsEqual =
        [](const std::vector<core::AnomalyReport> &a,
           const std::vector<core::AnomalyReport> &b) {
            if (a.size() != b.size())
                return false;
            for (std::size_t i = 0; i < a.size(); ++i)
                if (a[i].step != b[i].step || a[i].time != b[i].time ||
                    a[i].region != b[i].region)
                    return false;
            return true;
        };
    // The steady-vs-checkpointed ratio needs a run long enough that
    // the one-time initial group snapshot and thread-scheduling noise
    // (17 threads on however many cores the host grants) do not
    // dominate a couple of milliseconds of wall time: tile each
    // captured stream, so the serving run measures steady-state
    // per-cut cost. Verdict baselines are computed over the tiled
    // streams, so bit-identical still means bit-identical.
    constexpr std::size_t kServeTile = 16;
    std::vector<std::shared_ptr<const std::vector<core::Sts>>>
        serve_streams;
    std::size_t serve_total_sts = 0;
    for (const auto &stream : streams) {
        auto tiled = std::make_shared<std::vector<core::Sts>>();
        tiled->reserve(stream->size() * kServeTile);
        for (std::size_t r = 0; r < kServeTile; ++r)
            tiled->insert(tiled->end(), stream->begin(),
                          stream->end());
        serve_total_sts += tiled->size();
        serve_streams.push_back(std::move(tiled));
    }
    std::vector<std::vector<core::StepRecord>> serve_base_records;
    std::vector<std::vector<core::AnomalyReport>> serve_base_reports;
    for (const auto &stream : serve_streams) {
        core::Monitor m(model, cfg.monitor);
        for (const auto &sts : *stream)
            m.step(sts);
        serve_base_records.push_back(m.records());
        serve_base_reports.push_back(m.reports());
    }

    const auto shared_model =
        std::make_shared<const core::TrainedModel>(model);
    const auto runServe = [&](const serve::ServeConfig &sc,
                              std::size_t num_shards,
                              serve::Supervisor::FleetStepHook hook,
                              double &out_ms,
                              core::ServeStats &out_stats) {
        // One tenant, kRunTenant, with no rate quota and no breaker.
        serve::TenantSpec spec;
        spec.id = serve::kRunTenant;
        spec.model = shared_model;
        spec.breaker.fault_threshold = 0;
        spec.breaker.storm_outage_windows = 0;
        spec.breaker.decode_failure_threshold = 0;
        serve::TenantRegistry reg;
        reg.addTenant(std::move(spec));
        std::vector<std::unique_ptr<serve::VectorSource>> owned;
        for (std::size_t i = 0; i < num_shards; ++i) {
            owned.push_back(std::make_unique<serve::VectorSource>(
                serve_streams[i]));
            reg.openSession(serve::kRunTenant, owned.back().get());
        }
        serve::Supervisor sup(sc);
        if (hook)
            sup.setFleetStepHook(std::move(hook));
        const auto t0 = Clock::now();
        auto results = sup.runFleet(reg).sessions;
        out_ms = msSince(t0);
        out_stats = sup.stats();
        return results;
    };
    const auto verdictsMatch =
        [&](const std::vector<serve::ShardResult> &results) {
            for (std::size_t i = 0; i < results.size(); ++i)
                if (!recordsEqual(results[i].records,
                                  serve_base_records[i]) ||
                    !reportsEqual(results[i].reports,
                                  serve_base_reports[i]))
                    return false;
            return true;
        };

    // Steady and checkpointed runs are best-of-5, with the two
    // configurations interleaved within each repetition: the overhead
    // ratio is a few percent, while run-to-run drift on a loaded
    // 1-core host is tens of percent, so back-to-back pairs (plus
    // best-of) are what make the ratio trustworthy. The verdict check
    // runs on every repetition, the stats come from the last.
    serve::ServeConfig steady_cfg;
    steady_cfg.monitor = cfg.monitor;
    steady_cfg.checkpoint_interval = 0;
    serve::ServeConfig ckpt_cfg = steady_cfg;
    ckpt_cfg.checkpoint_interval = 32;
    ckpt_cfg.checkpoint_path = out_path + ".serve-ckpt";
    bool serving_verdicts_ok = true;
    const std::size_t serve_reps = 7;
    double serve_steady_ms = -1.0;
    double serve_ckpt_ms = -1.0;
    core::ServeStats serve_steady_stats;
    core::ServeStats serve_ckpt_stats;
    for (std::size_t rep = 0; rep < serve_reps; ++rep) {
        double ms = 0.0;
        serving_verdicts_ok &= verdictsMatch(
            runServe(steady_cfg, streams.size(), nullptr, ms,
                     serve_steady_stats));
        if (serve_steady_ms < 0.0 || ms < serve_steady_ms)
            serve_steady_ms = ms;
        serving_verdicts_ok &= verdictsMatch(
            runServe(ckpt_cfg, streams.size(), nullptr, ms,
                     serve_ckpt_stats));
        if (serve_ckpt_ms < 0.0 || ms < serve_ckpt_ms)
            serve_ckpt_ms = ms;
        // A fresh archive each repetition — otherwise rep N+1 appends
        // to rep N's container.
        std::remove(serve::checkpointArchivePath(ckpt_cfg.checkpoint_path)
                        .c_str());
    }
    const double serve_sts_per_sec =
        perSec(serve_total_sts, serve_steady_ms);
    const double ckpt_overhead_pct =
        (serve_ckpt_ms / serve_steady_ms - 1.0) * 100.0;

    // Isolated cost of one checkpoint write into the archive: a full
    // end-of-stream snapshot commit, and the incremental alternative —
    // cutting a steady-state delta and group-committing it as one
    // keyed segment.
    core::Monitor full_monitor(model, cfg.monitor);
    for (const auto &sts : *streams.front())
        full_monitor.step(sts);
    serve::CheckpointData snap;
    snap.monitor = full_monitor.exportState();
    snap.source_pos = snap.monitor.step_index;
    const std::string snap_arc_path = out_path + ".serve-snap.arc";
    serve::CheckpointStoreConfig snap_store_cfg;
    snap_store_cfg.full_every = 1u << 20; // never rewrite in the loop
    double checkpoint_write_ms = 0.0;
    double delta_commit_ms = 0.0;
    {
        std::remove(snap_arc_path.c_str());
        store::Archive arc(snap_arc_path);
        serve::CheckpointStoreConfig store_cfg = snap_store_cfg;
        store_cfg.archive = &arc;
        serve::CheckpointStore store(store_cfg);
        checkpoint_write_ms = bestOf(5, [&] {
            store.submitFull(0, snap);
            store.flush();
        });
        full_monitor.resetDeltaBaseline(); // deltas chain off snap
        delta_commit_ms = bestOf(5, [&] {
            store.submitDelta(0, full_monitor.exportDelta());
            store.flush();
        });
    }
    std::remove(snap_arc_path.c_str());

    serve::ServeConfig rec_cfg = steady_cfg;
    rec_cfg.checkpoint_interval = 16;
    const std::size_t crash_step = serve_streams.front()->size() / 2;
    auto crash_fired = std::make_shared<std::atomic<bool>>(false);
    double serve_rec_ms = 0.0;
    core::ServeStats serve_rec_stats;
    const auto rec_results = runServe(
        rec_cfg, 1,
        [crash_step, crash_fired](std::size_t, const std::string &,
                                  std::size_t step,
                                  const std::atomic<bool> &) {
            if (step == crash_step && !crash_fired->exchange(true))
                throw std::runtime_error("injected worker crash");
        },
        serve_rec_ms, serve_rec_stats);
    serving_verdicts_ok &=
        rec_results.size() == 1 &&
        recordsEqual(rec_results[0].records, serve_base_records[0]) &&
        reportsEqual(rec_results[0].reports, serve_base_reports[0]);

    std::printf("serving runtime (%zu shards):\n", streams.size());
    std::printf("  steady:       %8.1f ms  (%.3g STS/s)%s\n",
                serve_steady_ms, serve_sts_per_sec,
                serving_verdicts_ok ? "" : "  VERDICT MISMATCH");
    std::printf("  checkpointed: %8.1f ms  (%llu cuts, %llu group "
                "commits, %llu full snapshots, %llu delta bytes, "
                "%+.1f%% vs steady)\n",
                serve_ckpt_ms,
                (unsigned long long)
                    serve_ckpt_stats.checkpoints_written,
                (unsigned long long)serve_ckpt_stats.group_commits,
                (unsigned long long)serve_ckpt_stats.full_snapshots,
                (unsigned long long)serve_ckpt_stats.delta_bytes,
                ckpt_overhead_pct);
    std::printf("  worker stages: source pull %8.1f ms, step %8.1f "
                "ms, delta cut %8.1f ms (summed across shards)\n",
                serve_ckpt_stats.queue_wait_ms,
                serve_ckpt_stats.step_ms,
                serve_ckpt_stats.checkpoint_ms);
    std::printf("  full write:   %8.3f ms;  delta commit: %8.3f ms\n",
                checkpoint_write_ms, delta_commit_ms);
    std::printf("  recovery:     %8.1f ms  (%llu restart(s), "
                "%.2f ms restart latency)\n",
                serve_rec_ms,
                (unsigned long long)serve_rec_stats.worker_restarts,
                serve_rec_stats.restart_latency_ms);

    // Stage 6b: fleet isolation (the multi-tenant runtime). Three
    // tenants, one tiled stream each. The clean run is the baseline;
    // the faulted run crash-loops tenant "t0" three times (restart
    // budget raised, breaker disabled, so the victim recovers and
    // finishes) while the neighbors run clean. The figure of merit is
    // the worst HEALTHY tenant's completion latency, faulted vs
    // clean: per-tenant fault domains mean a misbehaving neighbor
    // must cost its peers at most a few percent. An over-subscribed
    // open attempt exercises admission accounting in the same run.
    const std::size_t fleet_tenants =
        std::min<std::size_t>(3, serve_streams.size());
    std::vector<std::size_t> fleet_lens;
    for (std::size_t t = 0; t < fleet_tenants; ++t)
        fleet_lens.push_back(serve_streams[t]->size());
    struct FleetBenchOut
    {
        double healthy_ms = 0.0;
        serve::FleetResult fr;
        core::ServeStats stats;
        bool verdicts_ok = true;
    };
    const auto runFleetBench = [&](bool faulted) {
        serve::TenantRegistry reg;
        std::vector<std::unique_ptr<serve::VectorSource>> owned;
        for (std::size_t t = 0; t < fleet_tenants; ++t) {
            serve::TenantSpec spec;
            // Two-step append: GCC 12's -Wrestrict misfires on
            // operator+(const char*, std::string&&).
            spec.id = "t";
            spec.id += std::to_string(t);
            spec.model = shared_model;
            if (t == 0) {
                spec.quota.max_sessions = 1;
                if (faulted) {
                    spec.quota.restart_budget = 16;
                    spec.breaker.fault_threshold = 0;
                }
            }
            reg.addTenant(spec);
        }
        for (std::size_t t = 0; t < fleet_tenants; ++t) {
            owned.push_back(std::make_unique<serve::VectorSource>(
                serve_streams[t]));
            std::string id = "t";
            id += std::to_string(t);
            if (!reg.openSession(id, owned.back().get()).admitted)
                throw std::runtime_error("fleet bench: not admitted");
        }
        serve::VectorSource extra(serve_streams[0]);
        if (reg.openSession("t0", &extra).admitted)
            throw std::runtime_error("fleet bench: over-admitted");

        serve::ServeConfig fcfg;
        fcfg.monitor = cfg.monitor;
        fcfg.checkpoint_interval = 32; // in-memory mirrors only
        serve::Supervisor sup(fcfg);
        const std::size_t crash_steps[] = {fleet_lens[0] / 4,
                                           fleet_lens[0] / 2,
                                           fleet_lens[0] * 3 / 4};
        auto fired =
            std::make_shared<std::array<std::atomic<bool>, 3>>();
        for (auto &b : *fired)
            b.store(false);
        auto finish =
            std::make_shared<std::array<std::atomic<double>, 3>>();
        for (auto &fm : *finish)
            fm.store(0.0);
        const auto bench_t0 = Clock::now();
        sup.setFleetStepHook(
            [&, fired, finish](std::size_t session,
                               const std::string &tenant,
                               std::size_t step,
                               const std::atomic<bool> &) {
                if (faulted && tenant == "t0")
                    for (std::size_t k = 0; k < 3; ++k)
                        if (step == crash_steps[k] &&
                            !(*fired)[k].exchange(true))
                            throw std::runtime_error(
                                "fleet bench: injected crash");
                // Sessions open tenant-major, so session == tenant
                // index here; stamp each healthy tenant's last step.
                if (session > 0 && step + 1 == fleet_lens[session])
                    (*finish)[session].store(msSince(bench_t0));
            });
        FleetBenchOut out;
        out.fr = sup.runFleet(reg);
        out.stats = sup.stats();
        for (std::size_t s = 1; s < fleet_tenants; ++s)
            out.healthy_ms =
                std::max(out.healthy_ms, (*finish)[s].load());
        for (std::size_t s = 0; s < fleet_tenants; ++s)
            out.verdicts_ok &=
                recordsEqual(out.fr.sessions[s].records,
                             serve_base_records[s]) &&
                reportsEqual(out.fr.sessions[s].reports,
                             serve_base_reports[s]);
        return out;
    };
    // Interleaved best-of-3 pairs, same discipline (and reason) as
    // the steady/checkpointed serving comparison above.
    double fleet_clean_ms = -1.0;
    double fleet_faulted_ms = -1.0;
    FleetBenchOut fleet_clean;
    FleetBenchOut fleet_faulted;
    bool fleet_verdicts_ok = true;
    for (int rep = 0; rep < 3; ++rep) {
        FleetBenchOut c = runFleetBench(false);
        fleet_verdicts_ok &= c.verdicts_ok;
        if (fleet_clean_ms < 0.0 || c.healthy_ms < fleet_clean_ms) {
            fleet_clean_ms = c.healthy_ms;
            fleet_clean = std::move(c);
        }
        FleetBenchOut x = runFleetBench(true);
        fleet_verdicts_ok &= x.verdicts_ok;
        if (fleet_faulted_ms < 0.0 ||
            x.healthy_ms < fleet_faulted_ms) {
            fleet_faulted_ms = x.healthy_ms;
            fleet_faulted = std::move(x);
        }
    }
    // Guard the single-stream case (one tenant = no healthy
    // neighbors): 0/0 here would put a NaN in the JSON artifact.
    const double fleet_degradation_pct =
        fleet_clean_ms > 0.0
            ? (fleet_faulted_ms / fleet_clean_ms - 1.0) * 100.0
            : 0.0;
    const bool fleet_isolation_ok = fleet_degradation_pct < 5.0;
    std::printf("fleet isolation (%zu tenants, crash-looping t0):\n",
                fleet_tenants);
    std::printf("  healthy latency: clean %8.1f ms, faulted %8.1f ms "
                "(%+.2f%% neighbor degradation)%s\n",
                fleet_clean_ms, fleet_faulted_ms,
                fleet_degradation_pct,
                fleet_verdicts_ok ? "" : "  VERDICT MISMATCH");
    std::printf("  victim: %llu restart(s), budget used %zu, breaker "
                "%s; admission: %llu admitted, %llu refused\n",
                (unsigned long long)
                    fleet_faulted.stats.worker_restarts,
                fleet_faulted.fr.tenants[0].restarts_used,
                fleet_faulted.fr.tenants[0].breaker_tripped
                    ? "tripped"
                    : "closed",
                (unsigned long long)
                    fleet_faulted.fr.admission.sessions_admitted,
                (unsigned long long)
                    fleet_faulted.fr.admission.rejected_tenant_limit);

    // Stage 6c: the fair-share fleet scheduler. A session sweep over 4
    // equal tenants, everyone consuming one shared short stream, so
    // the only variable is how the engine multiplexes sessions onto
    // its fixed worker pool. Per-tenant step latency comes from
    // inter-hook gaps inside each session: the gap a window waits
    // because 255 neighbors share its worker is the multiplexing
    // cost, and the worst/best healthy-tenant p99 ratio is the
    // fairness figure of merit.
    constexpr std::size_t kSchedTenants = 4;
    const std::size_t sched_workers = 4;
    const std::size_t sched_len =
        std::min<std::size_t>(64, streams.front()->size());
    auto sched_stream =
        std::make_shared<const std::vector<core::Sts>>(
            std::vector<core::Sts>(streams.front()->begin(),
                                   streams.front()->begin() +
                                       (std::ptrdiff_t)sched_len));
    std::vector<core::StepRecord> sched_oracle_records;
    std::vector<core::AnomalyReport> sched_oracle_reports;
    {
        core::Monitor m(model, cfg.monitor);
        for (const auto &sts : *sched_stream)
            m.step(sts);
        sched_oracle_records = m.records();
        sched_oracle_reports = m.reports();
    }
    const auto percentile = [](std::vector<double> v, double q) {
        if (v.empty())
            return 0.0;
        std::sort(v.begin(), v.end());
        const double idx = q * double(v.size() - 1);
        const std::size_t lo = std::size_t(idx);
        const std::size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (v[hi] - v[lo]) * (idx - double(lo));
    };
    struct SchedRun
    {
        double wall_ms = 0.0;
        bool verdicts_ok = true;
        core::ServeStats stats;
        serve::SchedulerStats sched;
        /** Inter-hook step gaps, merged per tenant (ms). */
        std::array<std::vector<double>, kSchedTenants> gaps;
    };
    const auto runSchedFleet = [&](std::size_t sessions,
                                   std::size_t workers) {
        const std::size_t per_tenant = sessions / kSchedTenants;
        serve::TenantRegistry reg;
        std::vector<std::unique_ptr<serve::VectorSource>> owned;
        for (std::size_t t = 0; t < kSchedTenants; ++t) {
            serve::TenantSpec spec;
            spec.id = "s"; // two-step += (GCC 12 -Wrestrict)
            spec.id += std::to_string(t);
            spec.model = shared_model;
            reg.addTenant(spec);
        }
        for (std::size_t t = 0; t < kSchedTenants; ++t) {
            std::string id = "s";
            id += std::to_string(t);
            for (std::size_t k = 0; k < per_tenant; ++k) {
                owned.push_back(
                    std::make_unique<serve::VectorSource>(
                        sched_stream));
                if (!reg.openSession(id, owned.back().get())
                         .admitted)
                    throw std::runtime_error(
                        "scheduler bench: not admitted");
            }
        }
        serve::ServeConfig scfg;
        scfg.monitor = cfg.monitor;
        scfg.checkpoint_interval = 0; // mirrors only: pure multiplex
        scfg.scheduler.workers = workers;
        serve::Supervisor sup(scfg);
        // One gap vector per session, appended only by the worker
        // currently running that session (handoffs are ordered
        // through the run queue), merged per tenant after the run.
        auto last = std::make_shared<std::vector<double>>(sessions,
                                                          -1.0);
        auto gaps =
            std::make_shared<std::vector<std::vector<double>>>(
                sessions);
        const auto bench_t0 = Clock::now();
        for (auto &g : *gaps)
            g.reserve(sched_len);
        sup.setFleetStepHook(
            [last, gaps, bench_t0](std::size_t session,
                                   const std::string &, std::size_t,
                                   const std::atomic<bool> &) {
                const double now = msSince(bench_t0);
                double &prev = (*last)[session];
                if (prev >= 0.0)
                    (*gaps)[session].push_back(now - prev);
                prev = now;
            });
        SchedRun out;
        const serve::FleetResult fr = sup.runFleet(reg);
        out.wall_ms = msSince(bench_t0);
        out.stats = sup.stats();
        if (const serve::FleetScheduler *fs = sup.fleetScheduler())
            out.sched = fs->schedulerStats();
        for (std::size_t s = 0; s < fr.sessions.size(); ++s) {
            out.verdicts_ok &=
                !fr.sessions[s].escalated &&
                recordsEqual(fr.sessions[s].records,
                             sched_oracle_records) &&
                reportsEqual(fr.sessions[s].reports,
                             sched_oracle_reports);
            auto &tg = out.gaps[s / per_tenant];
            tg.insert(tg.end(), (*gaps)[s].begin(),
                      (*gaps)[s].end());
        }
        return out;
    };
    struct SchedPoint
    {
        std::size_t sessions = 0;
        double wall_ms = 0.0;
        double sts_per_s = 0.0;
        double utilization = 0.0;
        std::uint64_t dispatches = 0;
        std::uint64_t preemptions = 0;
        std::uint64_t requeues = 0;
        std::uint64_t parks = 0;
        std::array<double, kSchedTenants> p50_ms{};
        std::array<double, kSchedTenants> p99_ms{};
        double fairness_p99_ratio = 0.0;
    };
    const std::size_t sched_sweep[] = {8, 64, 256, 1024};
    std::vector<SchedPoint> sched_points;
    bool sched_verdicts_ok = true;
    double sched_min_deficit = 0.0;
    for (const std::size_t sessions : sched_sweep) {
        SchedPoint pt;
        pt.sessions = sessions;
        const double total_sts = double(sessions * sched_len);
        // Best-of-2 at the small points, where one-time start-up
        // costs are a visible share of the wall time.
        const int reps = sessions <= 64 ? 2 : 1;
        SchedRun best;
        best.wall_ms = -1.0;
        for (int rep = 0; rep < reps; ++rep) {
            SchedRun r = runSchedFleet(sessions, sched_workers);
            sched_verdicts_ok &= r.verdicts_ok;
            if (best.wall_ms < 0.0 || r.wall_ms < best.wall_ms)
                best = std::move(r);
        }
        pt.wall_ms = best.wall_ms;
        pt.sts_per_s = perSec(std::size_t(total_sts), pt.wall_ms);
        pt.utilization =
            best.sched.wall_ms > 0.0
                ? best.sched.busy_ms /
                      (double(sched_workers) * best.sched.wall_ms)
                : 0.0;
        pt.dispatches = best.sched.dispatches;
        pt.preemptions = best.sched.preemptions;
        pt.requeues = best.sched.requeues;
        pt.parks = best.sched.parks;
        sched_min_deficit =
            std::min(sched_min_deficit, best.sched.min_deficit_steps);
        double worst_p99 = 0.0, best_p99 = -1.0;
        for (std::size_t t = 0; t < kSchedTenants; ++t) {
            pt.p50_ms[t] = percentile(best.gaps[t], 0.50);
            pt.p99_ms[t] = percentile(best.gaps[t], 0.99);
            worst_p99 = std::max(worst_p99, pt.p99_ms[t]);
            if (best_p99 < 0.0 || pt.p99_ms[t] < best_p99)
                best_p99 = pt.p99_ms[t];
        }
        pt.fairness_p99_ratio =
            best_p99 > 0.0 ? worst_p99 / best_p99 : 1.0;
        sched_points.push_back(pt);
    }
    // Machine-independent claims: the debt bound is the DRR fairness
    // invariant; the per-thread figure divides the aggregate STS/s at
    // 64 sessions by the threads the engine spent (its workers). Its
    // floor is the thread-pair runtime this engine
    // replaced (two threads per session): the best of three runs at
    // CI smoke scale (sha, --scale 0.15, --runs 3, --monitor-runs 2)
    // on a 4-core host before that runtime was deleted measured
    // 1948-2231 STS/s per thread; the engine must keep beating it.
    constexpr double kPairPerThreadStsFloor = 2231.5;
    const serve::SchedulerConfig sched_defaults;
    const bool sched_debt_ok =
        sched_min_deficit >= -double(sched_defaults.batch_steps);
    const SchedPoint &pt64 = sched_points[1];
    const double sched_threads_64 = double(sched_workers);
    const double sched_per_thread_64 =
        pt64.sts_per_s / sched_threads_64;
    const bool sched_per_thread_ok =
        sched_per_thread_64 > kPairPerThreadStsFloor;
    const bool sched_fairness_ok = pt64.fairness_p99_ratio < 3.0;
    std::printf("fleet scheduler (%zu workers, %zu "
                "tenants, %zu-window stream)%s:\n",
                sched_workers, kSchedTenants,
                sched_len,
                sched_verdicts_ok ? "" : "  VERDICT MISMATCH");
    for (const SchedPoint &pt : sched_points) {
        std::printf("  %4zu sessions: %8.1f ms (%.3g STS/s, util "
                    "%4.1f%%, %llu dispatches, %llu preempts)\n",
                    pt.sessions, pt.wall_ms, pt.sts_per_s,
                    pt.utilization * 100.0,
                    (unsigned long long)pt.dispatches,
                    (unsigned long long)pt.preemptions);
        std::printf("       step p99 per tenant: [%.2f, %.2f, %.2f, "
                    "%.2f] ms (worst/best %.2fx)\n",
                    pt.p99_ms[0], pt.p99_ms[1], pt.p99_ms[2],
                    pt.p99_ms[3], pt.fairness_p99_ratio);
    }
    std::printf("  per-thread STS/s at 64 sessions: %.3g (%g "
                "threads; floor %.3g); min deficit %.1f steps (bound "
                "%g)\n",
                sched_per_thread_64, sched_threads_64,
                kPairPerThreadStsFloor, sched_min_deficit,
                -double(sched_defaults.batch_steps));

    // Stage 6d: wire ingestion (EDDIEWIRE, src/wire/ + the listener
    // front end). One tenant, one stream, consumed two ways: an
    // in-process VectorSource session, and a loopback TCP session fed
    // by a WireClient thread through WireListener -> WireSource
    // (frame encode, CRC, syscalls, and the receive window all on the
    // clock). Both time the supervised fleet drain, so the ratio
    // prices steady-state ingest, not the one-time connect and
    // handshake. The ratio is the median, over kWirePairs interleaved
    // pairs (the first run of each pair alternates), of each pair's
    // in-process/loopback wall-time ratio, on a stream of at least
    // kWireRatioWindows windows: with runs of a few milliseconds one
    // late wakeup moved a best-of ratio by 40 % or more, so each run
    // here lasts at least ~50 ms even at CI's smoke scale, and
    // one slow pair moves the median by one rank at most. A single
    // run streams a shorter stream (the serving tile re-tiled 8x)
    // under byte-level chaos (torn frames, disconnects, duplicates,
    // reorders, corruption, hostile lengths): its wall time prices
    // reconnect replay, and its listener counters prove every
    // injected fault landed in a typed bucket. Every run must
    // reproduce the bare monitor's verdicts bit-for-bit.
    constexpr std::size_t kWirePairs = 9;
    constexpr std::size_t kWireRatioWindows = 73728;
    struct WireStream
    {
        std::shared_ptr<std::vector<core::Sts>> sts;
        std::vector<core::StepRecord> records;
        std::vector<core::AnomalyReport> reports;
    };
    const auto tileWireStream = [&](std::size_t min_windows) {
        WireStream w;
        w.sts = std::make_shared<std::vector<core::Sts>>();
        while (w.sts->size() < min_windows)
            w.sts->insert(w.sts->end(), serve_streams[0]->begin(),
                          serve_streams[0]->end());
        core::Monitor m(model, cfg.monitor);
        for (const auto &sts : *w.sts)
            m.step(sts);
        w.records = m.records();
        w.reports = m.reports();
        return w;
    };
    const WireStream wire_ratio_stream =
        tileWireStream(kWireRatioWindows);
    const WireStream wire_chaos_stream =
        tileWireStream(serve_streams[0]->size() * 8);
    struct WireBenchOut
    {
        double wall_ms = 0.0;
        bool verdicts_ok = true;
        serve::WireListenerStats st;
        serve::WireClientReport rep;
    };
    // Clean and chaotic runs size their batches differently: the
    // clean run uses the deployment batch (fewer frames, fewer
    // syscalls — this is the configuration whose throughput the
    // ratio gate prices), while the chaos run shrinks batches so the
    // per-frame fate stream draws enough samples to fire every fault
    // class even at CI's smoke scale.
    constexpr std::size_t kWireCleanBatch = 256;
    constexpr std::size_t kWireChaosBatch = 32;
    const auto runWireBench = [&](const WireStream &stream,
                                  const serve::WireChaosConfig
                                      *chaos) {
        serve::TenantRegistry reg;
        serve::TenantSpec spec;
        spec.id = "wire";
        spec.model = shared_model;
        reg.addTenant(spec);
        serve::WireListenerConfig lcfg;
        lcfg.tcp = "127.0.0.1:0";
        serve::WireListener lst(reg, lcfg);
        lst.start();
        serve::WireClientConfig ccfg;
        ccfg.tcp = lst.tcpAddress();
        ccfg.tenant = "wire";
        ccfg.batch_windows = chaos ? kWireChaosBatch
                                   : kWireCleanBatch;
        if (chaos) {
            ccfg.chaos = *chaos;
            ccfg.backoff.initial_ms = 2.0;
            ccfg.backoff.max_ms = 20.0;
        }
        WireBenchOut out;
        std::thread client([&] {
            serve::VectorSource src(stream.sts);
            serve::WireClient c(ccfg);
            out.rep = c.stream(src);
        });
        if (lst.awaitSessions(1, 30000.0) != 1) {
            client.join();
            lst.drainAndClose();
            throw std::runtime_error(
                "wire bench: session not admitted");
        }
        lst.freezeAdmission();
        serve::ServeConfig wcfg;
        wcfg.monitor = cfg.monitor;
        wcfg.checkpoint_interval = 0;
        serve::Supervisor sup(wcfg);
        const auto t0 = Clock::now();
        const serve::FleetResult fr = sup.runFleet(reg);
        out.wall_ms = msSince(t0);
        client.join();
        lst.drainAndClose();
        out.st = lst.stats();
        out.verdicts_ok =
            out.rep.delivered_all && fr.sessions.size() == 1 &&
            recordsEqual(fr.sessions[0].records, stream.records) &&
            reportsEqual(fr.sessions[0].reports, stream.reports);
        return out;
    };
    const auto runWireInproc = [&](const WireStream &stream) {
        serve::TenantRegistry reg;
        serve::TenantSpec spec;
        spec.id = "wire";
        spec.model = shared_model;
        reg.addTenant(spec);
        serve::VectorSource src(stream.sts);
        if (!reg.openSession("wire", &src).admitted)
            throw std::runtime_error(
                "wire bench: in-process session not admitted");
        serve::ServeConfig wcfg;
        wcfg.monitor = cfg.monitor;
        wcfg.checkpoint_interval = 0;
        serve::Supervisor sup(wcfg);
        const auto t0 = Clock::now();
        const serve::FleetResult fr = sup.runFleet(reg);
        const double ms = msSince(t0);
        if (fr.sessions.size() != 1 ||
            !recordsEqual(fr.sessions[0].records, stream.records) ||
            !reportsEqual(fr.sessions[0].reports, stream.reports))
            return -ms; // sign smuggles the verdict check
        return ms;
    };
    const auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    const std::size_t wire_sts = wire_ratio_stream.sts->size();
    bool wire_verdicts_ok = true;
    std::vector<double> wire_inproc_runs, wire_loop_runs, wire_ratios;
    WireBenchOut wire_clean;
    for (std::size_t pair = 0; pair < kWirePairs; ++pair) {
        double inproc_ms = 0.0;
        WireBenchOut w;
        if (pair % 2 == 0) {
            inproc_ms = runWireInproc(wire_ratio_stream);
            w = runWireBench(wire_ratio_stream, nullptr);
        } else {
            w = runWireBench(wire_ratio_stream, nullptr);
            inproc_ms = runWireInproc(wire_ratio_stream);
        }
        wire_verdicts_ok &= inproc_ms > 0.0 && w.verdicts_ok;
        inproc_ms = std::abs(inproc_ms);
        wire_inproc_runs.push_back(inproc_ms);
        wire_loop_runs.push_back(w.wall_ms);
        wire_ratios.push_back(w.wall_ms > 0.0 ? inproc_ms / w.wall_ms
                                              : 0.0);
        wire_clean = std::move(w);
    }
    const double wire_inproc_ms = median(wire_inproc_runs);
    const double wire_loop_ms = median(wire_loop_runs);
    const double wire_throughput_ratio = median(wire_ratios);
    const double wire_ratio_min =
        *std::min_element(wire_ratios.begin(), wire_ratios.end());
    const double wire_ratio_max =
        *std::max_element(wire_ratios.begin(), wire_ratios.end());
    serve::WireChaosConfig wire_chaos;
    wire_chaos.seed = 0xEDD1E;
    wire_chaos.tear_prob = 0.10;
    wire_chaos.disconnect_prob = 0.10;
    wire_chaos.duplicate_prob = 0.08;
    wire_chaos.reorder_prob = 0.08;
    wire_chaos.corrupt_prob = 0.08;
    wire_chaos.hostile_len_prob = 0.05;
    const WireBenchOut wire_chaotic =
        runWireBench(wire_chaos_stream, &wire_chaos);
    wire_verdicts_ok &= wire_chaotic.verdicts_ok;
    const std::uint64_t wire_chaos_faults =
        wire_chaotic.rep.torn_frames +
        wire_chaotic.rep.forced_disconnects +
        wire_chaotic.rep.duplicate_batches +
        wire_chaotic.rep.reordered_batches +
        wire_chaotic.rep.corrupted_frames +
        wire_chaotic.rep.hostile_lengths;
    const std::uint64_t wire_malformed =
        wire_chaotic.st.wire.totalErrors();
    const double wire_sts_per_sec = perSec(wire_sts, wire_loop_ms);
    // Replay under chaos is priced per reconnect: the wall-clock the
    // chaotic run lost versus a clean loopback run of the same length
    // (scaled from the median clean run), amortized over the
    // reconnects that caused it (0 reconnects would mean chaos never
    // cut the link — the probabilities above make that effectively
    // impossible over this many batches).
    const std::size_t wire_chaos_sts = wire_chaos_stream.sts->size();
    const double wire_reconnect_ms =
        wire_chaotic.rep.reconnects > 0
            ? std::max(0.0, wire_chaotic.wall_ms -
                                wire_loop_ms * double(wire_chaos_sts) /
                                    double(wire_sts)) /
                  double(wire_chaotic.rep.reconnects)
            : 0.0;
    const bool wire_throughput_ok = wire_throughput_ratio >= 0.75;
    std::printf("wire ingestion (loopback TCP, %zu windows clean / "
                "%zu chaos, batch %zu clean / %zu chaos)%s:\n",
                wire_sts, wire_chaos_sts, kWireCleanBatch,
                kWireChaosBatch,
                wire_verdicts_ok ? "" : "  VERDICT MISMATCH");
    std::printf("  in-process:   %8.1f ms;  loopback: %8.1f ms "
                "(medians of %zu pairs; %.3g STS/s); median pair "
                "ratio %.2fx of in-process (range %.2f-%.2f)\n",
                wire_inproc_ms, wire_loop_ms, kWirePairs,
                wire_sts_per_sec, wire_throughput_ratio,
                wire_ratio_min, wire_ratio_max);
    std::printf("  clean run:    %llu batches, %llu bytes, "
                "%llu acks, %llu nacks\n",
                (unsigned long long)wire_clean.rep.batches_sent,
                (unsigned long long)wire_clean.rep.bytes_sent,
                (unsigned long long)wire_clean.st.acks_sent,
                (unsigned long long)wire_clean.st.nacks_sent);
    std::printf("  chaos run:    %8.1f ms; %llu faults injected, "
                "%llu reconnects (%.2f ms each), %llu replayed, "
                "%llu malformed rejected, %llu gaps, %llu dup "
                "windows dropped, %llu nacks\n",
                wire_chaotic.wall_ms,
                (unsigned long long)wire_chaos_faults,
                (unsigned long long)wire_chaotic.rep.reconnects,
                wire_reconnect_ms,
                (unsigned long long)
                    wire_chaotic.rep.windows_replayed,
                (unsigned long long)wire_malformed,
                (unsigned long long)wire_chaotic.st.sequence_gaps,
                (unsigned long long)
                    wire_chaotic.st.duplicates_dropped,
                (unsigned long long)wire_chaotic.st.nacks_sent);

    // Stage 7: the EDDIEARC artifact store (src/store/).
    //
    // (a) Recovery latency after a long delta chain, measured over
    // archive open + CheckpointStore::recover() (scan, then one
    // verified copy-out read per key + replay).
    constexpr std::size_t kRecoveryDeltas = 32;
    {
        std::remove(snap_arc_path.c_str());
        store::Archive arc(snap_arc_path);
        serve::CheckpointStoreConfig store_cfg = snap_store_cfg;
        store_cfg.archive = &arc;
        serve::CheckpointStore store(store_cfg);
        store.submitFull(0, snap);
        full_monitor.resetDeltaBaseline();
        store.flush();
        for (std::size_t i = 0; i < kRecoveryDeltas; ++i) {
            store.submitDelta(0, full_monitor.exportDelta());
            store.flush();
        }
    }
    const double recovery_arc_ms = bestOf(3, [&] {
        store::Archive arc(snap_arc_path);
        serve::CheckpointStoreConfig store_cfg = snap_store_cfg;
        store_cfg.archive = &arc;
        serve::CheckpointStore fresh(store_cfg);
        if (fresh.recover() != std::vector<bool>{true})
            throw std::runtime_error("recovery bench failed");
    });
    std::remove(snap_arc_path.c_str());

    // (b) Tail-only verification proof: populate an archive with many
    // multi-sector artifacts, reopen (header scan only), read ONE key
    // — the stats must show only that key's payload sectors were
    // CRC-verified, machine-independently.
    std::uint64_t arc_sectors_total = 0;
    std::uint64_t arc_sectors_verified = 0;
    {
        const std::string proof_path = out_path + ".proof.arc";
        std::remove(proof_path.c_str());
        const std::string value(8192, 'x');
        {
            store::Archive a(proof_path);
            for (int i = 0; i < 32; ++i) {
                a.stagePut("proof/" + std::to_string(i), value);
            }
            a.commit();
        }
        store::Archive a(proof_path);
        std::string got;
        if (a.get("proof/31", got) != store::GetStatus::Ok ||
            got != value)
            throw std::runtime_error("proof archive read failed");
        const auto astats = a.stats();
        arc_sectors_total = astats.payload_sectors_total;
        arc_sectors_verified = astats.payload_sectors_verified;
        std::remove(proof_path.c_str());
    }
    const bool recovery_tail_only =
        arc_sectors_verified > 0 &&
        arc_sectors_verified < arc_sectors_total;

    std::printf("artifact store (EDDIEARC):\n");
    std::printf("  recovery (%zu deltas): %8.3f ms\n", kRecoveryDeltas,
                recovery_arc_ms);
    std::printf("  verified %llu of %llu payload sectors after "
                "one-key read%s\n",
                (unsigned long long)arc_sectors_verified,
                (unsigned long long)arc_sectors_total,
                recovery_tail_only ? "" : "  (TAIL-ONLY VIOLATED)");

    // Degradation sweep: channel fault intensity vs detection
    // quality, with the signal-quality gate on and off. Both monitors
    // share one capture cache per point, so they score bit-identical
    // STS streams and the only difference is the gate.
    struct SweepRow
    {
        double intensity;
        double gated_fp, ungated_fp; // clean-run FP %
        double gated_tp, ungated_tp; // injected-run TP %
        double gated_degraded_pct;   // % of groups quarantined
    };
    const double intensities[] = {0.0, 0.5, 1.0, 2.0};
    const std::size_t target_loop =
        inject::defaultTargetLoop(pipe.workload());
    std::vector<SweepRow> sweep;
    std::printf("degradation sweep (fault intensity; FP%% on clean "
                "runs, TP%% on injected):\n");
    std::printf("  %-9s %10s %10s %10s %10s %10s\n", "intensity",
                "gated FP", "ungated FP", "gated TP", "ungated TP",
                "degraded");
    for (double k : intensities) {
        core::PipelineConfig c = cfg;
        auto &fc = c.channel.faults;
        fc.enabled = k > 0.0;
        fc.dropout.rate_hz = 120.0 * k;
        fc.dropout.mean_duration_s = 6e-4;
        fc.snr_collapse.rate_hz = 60.0 * k;
        fc.interference.rate_hz = 60.0 * k;
        c.capture_cache = std::make_shared<core::CaptureCache>();
        core::PipelineConfig cu = c;
        cu.monitor.quality.enabled = false;
        core::Pipeline gated(
            workloads::makeWorkload(workload_name, scale), c);
        core::Pipeline ungated(
            workloads::makeWorkload(workload_name, scale), cu);

        std::vector<std::uint64_t> clean_seeds;
        std::vector<std::uint64_t> inj_seeds;
        std::vector<cpu::InjectionPlan> plans;
        for (std::size_t i = 0; i < monitor_runs; ++i) {
            clean_seeds.push_back(cfg.monitor_seed_base + i);
            inj_seeds.push_back(cfg.monitor_seed_base + 100 + i);
            plans.push_back(inject::canonicalLoopInjection(
                target_loop, 1.0, inj_seeds.back()));
        }
        const auto scoreBatch =
            [&](const core::Pipeline &p,
                const std::vector<std::uint64_t> &seeds,
                const std::vector<cpu::InjectionPlan> &pl) {
                std::vector<core::RunMetrics> ms;
                for (const auto &ev : p.monitorBatch(model, seeds, pl))
                    ms.push_back(ev.metrics);
                return core::aggregate(ms);
            };
        const auto g_clean = scoreBatch(gated, clean_seeds, {});
        const auto u_clean = scoreBatch(ungated, clean_seeds, {});
        const auto g_inj = scoreBatch(gated, inj_seeds, plans);
        const auto u_inj = scoreBatch(ungated, inj_seeds, plans);
        sweep.push_back({k, g_clean.false_positive_pct,
                         u_clean.false_positive_pct,
                         g_inj.true_positive_pct,
                         u_inj.true_positive_pct,
                         g_clean.degraded_pct});
        std::printf("  %-9.2f %9.2f%% %9.2f%% %9.2f%% %9.2f%% "
                    "%9.2f%%\n",
                    k, g_clean.false_positive_pct,
                    u_clean.false_positive_pct,
                    g_inj.true_positive_pct, u_inj.true_positive_pct,
                    g_clean.degraded_pct);
        std::fflush(stdout);
    }

    // Written atomically: readers (CI's python asserts, concurrent
    // plotting scripts) either see the previous complete artifact or
    // this one, never a torn half-written file.
    const std::string tmp_path = out_path + ".tmp";
    std::FILE *f = std::fopen(tmp_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", tmp_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"perf_pipeline\",\n");
    std::fprintf(f, "  \"workload\": \"%s\",\n",
                 workload_name.c_str());
    std::fprintf(f, "  \"scale\": %g,\n", scale);
    std::fprintf(f, "  \"train_runs\": %zu,\n", train_runs);
    std::fprintf(f, "  \"monitor_runs\": %zu,\n", monitor_runs);
    std::fprintf(f, "  \"hardware_threads\": %zu,\n",
                 common::ThreadPool::hardwareThreads());
    std::fprintf(f, "  \"thread_grid\": {\"requested\": [");
    for (std::size_t i = 0; i < grid.size(); ++i)
        std::fprintf(f, "%s%zu", i == 0 ? "" : ", ", grid[i]);
    std::fprintf(f, "], \"resolved\": [");
    for (std::size_t i = 0; i < resolved_grid.size(); ++i)
        std::fprintf(f, "%s%zu", i == 0 ? "" : ", ",
                     resolved_grid[i]);
    std::fprintf(f, "]},\n");
    std::fprintf(f, "  \"capture_ms\": %.3f,\n", capture_ms);
    std::fprintf(f, "  \"stft_ms\": %.3f,\n", stft_ms);
    std::fprintf(f, "  \"stft_samples_per_sec\": %.1f,\n",
                 stft_samples_per_sec);
    printJsonTimings(f, "synthesis_before", synth_before);
    printJsonTimings(f, "synthesis_after", synth_after);
    std::fprintf(f, "  \"synthesis_speedup\": %.3f,\n", synth_speedup);
    std::fprintf(f,
                 "  \"capture_cache\": {\"cold_ms\": %.3f, "
                 "\"warm_ms\": %.3f, \"warm_speedup\": %.1f, "
                 "\"hits\": %llu, \"misses\": %llu, \"hit_rate\": "
                 "%.3f},\n",
                 cache_cold_ms, cache_warm_ms, cache_warm_speedup,
                 (unsigned long long)cache_stats.hits,
                 (unsigned long long)cache_stats.misses,
                 cache_stats.hitRate());
    printJsonMap(f, "train_ms", grid, train_ms);
    printJsonMap(f, "monitor_ms", grid, monitor_ms);
    std::fprintf(f, "  \"train_speedup_vs_1\": {");
    for (std::size_t i = 0; i < grid.size(); ++i)
        std::fprintf(f, "%s\"%zu\": %.3f", i == 0 ? "" : ", ",
                     grid[i], train_ms[0] / train_ms[i]);
    std::fprintf(f, "},\n");
    std::fprintf(f, "  \"monitor_speedup_vs_1\": {");
    for (std::size_t i = 0; i < grid.size(); ++i)
        std::fprintf(f, "%s\"%zu\": %.3f", i == 0 ? "" : ", ",
                     grid[i], monitor_ms[0] / monitor_ms[i]);
    std::fprintf(f, "},\n");
    std::fprintf(f, "  \"monitor_loop\": {\n");
    std::fprintf(f, "    \"runs\": %zu,\n", monitor_runs);
    std::fprintf(f, "    \"total_sts\": %zu,\n", monitor_total_sts);
    std::fprintf(f, "    \"test_calls\": %zu,\n", loop_test_calls);
    std::fprintf(f, "    \"presorted_ms\": %.3f,\n", presorted_ms);
    std::fprintf(f, "    \"presorted_sts_per_sec\": %.1f,\n",
                 perSec(monitor_total_sts, presorted_ms));
    std::fprintf(f, "    \"presorted_test_calls_per_sec\": %.1f,\n",
                 perSec(loop_test_calls, presorted_ms));
    std::fprintf(f, "    \"sharded_ms\": {");
    for (std::size_t i = 0; i < grid.size(); ++i)
        std::fprintf(f, "%s\"%zu\": %.3f", i == 0 ? "" : ", ",
                     grid[i], sharded_ms[i]);
    std::fprintf(f, "},\n");
    std::fprintf(f, "    \"sharded_runs_per_sec\": {");
    for (std::size_t i = 0; i < grid.size(); ++i)
        std::fprintf(f, "%s\"%zu\": %.1f", i == 0 ? "" : ", ",
                     grid[i], perSec(monitor_runs, sharded_ms[i]));
    std::fprintf(f, "},\n");
    std::fprintf(f, "    \"sharded_stages\": {\n");
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto &t = sharded_stages[i];
        std::fprintf(f,
                     "      \"%zu\": {\"requested_threads\": %zu, "
                     "\"resolved_threads\": %zu, \"capture_ms\": "
                     "%.3f, \"setup_ms\": %.3f, \"kernel_ms\": %.3f, "
                     "\"score_ms\": %.3f}%s\n",
                     grid[i], t.requested_threads, t.resolved_threads,
                     t.capture_ms, t.setup_ms, t.kernel_ms,
                     t.score_ms, i + 1 == grid.size() ? "" : ",");
    }
    std::fprintf(f, "    }\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"serving\": {\n");
    std::fprintf(f, "    \"shards\": %zu,\n", streams.size());
    std::fprintf(f, "    \"steady_ms\": %.3f,\n", serve_steady_ms);
    std::fprintf(f, "    \"steady_sts_per_sec\": %.1f,\n",
                 serve_sts_per_sec);
    std::fprintf(f, "    \"delivered\": %llu,\n",
                 (unsigned long long)serve_steady_stats.delivered);
    std::fprintf(f, "    \"blocked_pushes\": %llu,\n",
                 (unsigned long long)
                     serve_steady_stats.blocked_pushes);
    std::fprintf(f, "    \"checkpointed_ms\": %.3f,\n",
                 serve_ckpt_ms);
    std::fprintf(f, "    \"checkpoints_written\": %llu,\n",
                 (unsigned long long)
                     serve_ckpt_stats.checkpoints_written);
    std::fprintf(f, "    \"checkpoint_overhead_pct\": %.2f,\n",
                 ckpt_overhead_pct);
    std::fprintf(f, "    \"checkpoint_write_ms\": %.3f,\n",
                 checkpoint_write_ms);
    std::fprintf(f, "    \"delta_commit_ms\": %.3f,\n",
                 delta_commit_ms);
    std::fprintf(f, "    \"group_commits\": %llu,\n",
                 (unsigned long long)serve_ckpt_stats.group_commits);
    std::fprintf(f, "    \"full_snapshots\": %llu,\n",
                 (unsigned long long)serve_ckpt_stats.full_snapshots);
    std::fprintf(f, "    \"delta_bytes\": %llu,\n",
                 (unsigned long long)serve_ckpt_stats.delta_bytes);
    std::fprintf(f, "    \"delta_fallbacks\": %llu,\n",
                 (unsigned long long)
                     serve_ckpt_stats.delta_fallbacks);
    std::fprintf(f,
                 "    \"worker_stage_ms\": {\"queue_wait\": %.3f, "
                 "\"step\": %.3f, \"checkpoint\": %.3f},\n",
                 serve_ckpt_stats.queue_wait_ms,
                 serve_ckpt_stats.step_ms,
                 serve_ckpt_stats.checkpoint_ms);
    std::fprintf(f, "    \"recovery_ms\": %.3f,\n", serve_rec_ms);
    std::fprintf(f, "    \"worker_crashes\": %llu,\n",
                 (unsigned long long)serve_rec_stats.worker_crashes);
    std::fprintf(f, "    \"worker_restarts\": %llu,\n",
                 (unsigned long long)serve_rec_stats.worker_restarts);
    std::fprintf(f, "    \"restart_latency_ms\": %.3f,\n",
                 serve_rec_stats.restart_latency_ms);
    std::fprintf(f, "    \"verdicts_identical\": %s\n",
                 serving_verdicts_ok ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"fleet_isolation\": {\n");
    std::fprintf(f, "    \"tenants\": %zu,\n", fleet_tenants);
    std::fprintf(f, "    \"clean_healthy_ms\": %.3f,\n",
                 fleet_clean_ms);
    std::fprintf(f, "    \"faulted_healthy_ms\": %.3f,\n",
                 fleet_faulted_ms);
    std::fprintf(f, "    \"neighbor_degradation_pct\": %.2f,\n",
                 fleet_degradation_pct);
    std::fprintf(f, "    \"victim_restarts\": %llu,\n",
                 (unsigned long long)
                     fleet_faulted.stats.worker_restarts);
    std::fprintf(f, "    \"victim_budget_used\": %zu,\n",
                 fleet_faulted.fr.tenants[0].restarts_used);
    std::fprintf(f, "    \"victim_breaker_tripped\": %s,\n",
                 fleet_faulted.fr.tenants[0].breaker_tripped
                     ? "true"
                     : "false");
    std::fprintf(f, "    \"sessions_admitted\": %llu,\n",
                 (unsigned long long)
                     fleet_faulted.fr.admission.sessions_admitted);
    std::fprintf(f, "    \"sessions_rejected_tenant_limit\": %llu,\n",
                 (unsigned long long)
                     fleet_faulted.fr.admission.rejected_tenant_limit);
    std::fprintf(f, "    \"verdicts_identical\": %s\n",
                 fleet_verdicts_ok ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"fleet_scheduler\": {\n");
    std::fprintf(f, "    \"workers\": %zu,\n", sched_workers);
    std::fprintf(f, "    \"tenants\": %zu,\n", kSchedTenants);
    std::fprintf(f, "    \"stream_len\": %zu,\n", sched_len);
    std::fprintf(f, "    \"batch_steps\": %zu,\n",
                 sched_defaults.batch_steps);
    std::fprintf(f, "    \"min_deficit_steps\": %.3f,\n",
                 sched_min_deficit);
    std::fprintf(f, "    \"per_thread_sts_scheduler_64\": %.3f,\n",
                 sched_per_thread_64);
    std::fprintf(f, "    \"per_thread_sts_floor\": %.3f,\n",
                 kPairPerThreadStsFloor);
    std::fprintf(f, "    \"verdicts_identical\": %s,\n",
                 sched_verdicts_ok ? "true" : "false");
    std::fprintf(f, "    \"points\": [\n");
    for (std::size_t i = 0; i < sched_points.size(); ++i) {
        const SchedPoint &pt = sched_points[i];
        std::fprintf(f,
                     "      {\"sessions\": %zu, \"wall_ms\": %.3f, "
                     "\"sts_per_s\": %.1f, \"utilization\": %.4f, "
                     "\"dispatches\": %llu, \"preemptions\": %llu, "
                     "\"requeues\": %llu, \"parks\": %llu,\n",
                     pt.sessions, pt.wall_ms, pt.sts_per_s,
                     pt.utilization,
                     (unsigned long long)pt.dispatches,
                     (unsigned long long)pt.preemptions,
                     (unsigned long long)pt.requeues,
                     (unsigned long long)pt.parks);
        std::fprintf(f,
                     "       \"tenant_step_p50_ms\": [%.4f, %.4f, "
                     "%.4f, %.4f], \"tenant_step_p99_ms\": [%.4f, "
                     "%.4f, %.4f, %.4f], \"fairness_p99_ratio\": "
                     "%.3f}%s\n",
                     pt.p50_ms[0], pt.p50_ms[1], pt.p50_ms[2],
                     pt.p50_ms[3], pt.p99_ms[0], pt.p99_ms[1],
                     pt.p99_ms[2], pt.p99_ms[3],
                     pt.fairness_p99_ratio,
                     i + 1 == sched_points.size() ? "" : ",");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"wire_ingestion\": {\n");
    std::fprintf(f, "    \"windows\": %zu,\n", wire_sts);
    std::fprintf(f, "    \"chaos_windows\": %zu,\n", wire_chaos_sts);
    std::fprintf(f, "    \"ratio_pairs\": %zu,\n", kWirePairs);
    std::fprintf(f, "    \"batch_windows\": %zu,\n",
                 kWireCleanBatch);
    std::fprintf(f, "    \"chaos_batch_windows\": %zu,\n",
                 kWireChaosBatch);
    std::fprintf(f, "    \"inprocess_ms\": %.3f,\n", wire_inproc_ms);
    std::fprintf(f, "    \"loopback_ms\": %.3f,\n", wire_loop_ms);
    std::fprintf(f, "    \"wire_sts_per_sec\": %.1f,\n",
                 wire_sts_per_sec);
    std::fprintf(f, "    \"throughput_ratio\": %.4f,\n",
                 wire_throughput_ratio);
    std::fprintf(f, "    \"throughput_ratio_min\": %.4f,\n",
                 wire_ratio_min);
    std::fprintf(f, "    \"throughput_ratio_max\": %.4f,\n",
                 wire_ratio_max);
    std::fprintf(f, "    \"clean_batches\": %llu,\n",
                 (unsigned long long)wire_clean.rep.batches_sent);
    std::fprintf(f, "    \"clean_bytes\": %llu,\n",
                 (unsigned long long)wire_clean.rep.bytes_sent);
    std::fprintf(f, "    \"chaos_ms\": %.3f,\n",
                 wire_chaotic.wall_ms);
    std::fprintf(f, "    \"chaos_faults_injected\": %llu,\n",
                 (unsigned long long)wire_chaos_faults);
    std::fprintf(f, "    \"chaos_reconnects\": %llu,\n",
                 (unsigned long long)wire_chaotic.rep.reconnects);
    std::fprintf(f, "    \"reconnect_recovery_ms\": %.3f,\n",
                 wire_reconnect_ms);
    std::fprintf(f, "    \"chaos_windows_replayed\": %llu,\n",
                 (unsigned long long)
                     wire_chaotic.rep.windows_replayed);
    std::fprintf(f, "    \"malformed_rejected\": %llu,\n",
                 (unsigned long long)wire_malformed);
    std::fprintf(f, "    \"sequence_gaps\": %llu,\n",
                 (unsigned long long)wire_chaotic.st.sequence_gaps);
    std::fprintf(f, "    \"duplicates_dropped\": %llu,\n",
                 (unsigned long long)
                     wire_chaotic.st.duplicates_dropped);
    std::fprintf(f, "    \"nacks_sent\": %llu,\n",
                 (unsigned long long)wire_chaotic.st.nacks_sent);
    std::fprintf(f, "    \"verdicts_identical\": %s\n",
                 wire_verdicts_ok ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"artifact_store\": {\n");
    std::fprintf(f,
                 "    \"recovery\": {\"delta_segments\": %zu, "
                 "\"archive_ms\": %.3f},\n",
                 kRecoveryDeltas, recovery_arc_ms);
    std::fprintf(f,
                 "    \"sector_verify\": {\"payload_sectors_total\": "
                 "%llu, \"payload_sectors_verified\": %llu}\n",
                 (unsigned long long)arc_sectors_total,
                 (unsigned long long)arc_sectors_verified);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"asserts\": {\n");
    std::fprintf(f, "    \"sharded_scaling_ok\": %s,\n",
                 sharded_scaling_ok ? "true" : "false");
    std::fprintf(f, "    \"host_thread_clamped\": %s,\n",
                 host_clamped ? "true" : "false");
    std::fprintf(f, "    \"checkpoint_overhead_lt_10\": %s,\n",
                 ckpt_overhead_pct < 10.0 ? "true" : "false");
    std::fprintf(f, "    \"train_8_no_slowdown\": %s,\n",
                 train_ms[0] / train_ms.back() >= 1.0 ? "true"
                                                      : "false");
    std::fprintf(f, "    \"monitor_8_no_slowdown\": %s,\n",
                 monitor_ms[0] / monitor_ms.back() >= 1.0 ? "true"
                                                          : "false");
    std::fprintf(f, "    \"awgn_kernel_no_regression\": %s,\n",
                 synth_after.awgn_ms <= synth_before.awgn_ms
                     ? "true"
                     : "false");
    std::fprintf(f, "    \"archive_recovery_tail_only\": %s,\n",
                 recovery_tail_only ? "true" : "false");
    std::fprintf(f, "    \"serving_verdicts_identical\": %s,\n",
                 serving_verdicts_ok ? "true" : "false");
    std::fprintf(f, "    \"fleet_neighbor_degradation_lt_5\": %s,\n",
                 fleet_isolation_ok ? "true" : "false");
    std::fprintf(f, "    \"fleet_verdicts_identical\": %s,\n",
                 fleet_verdicts_ok ? "true" : "false");
    std::fprintf(f, "    \"scheduler_debt_bound_ok\": %s,\n",
                 sched_debt_ok ? "true" : "false");
    std::fprintf(f, "    \"scheduler_per_thread_sts_ge_floor\": %s,\n",
                 sched_per_thread_ok ? "true" : "false");
    std::fprintf(f, "    \"scheduler_fairness_p99_lt_3\": %s,\n",
                 sched_fairness_ok ? "true" : "false");
    std::fprintf(f, "    \"scheduler_verdicts_identical\": %s,\n",
                 sched_verdicts_ok ? "true" : "false");
    std::fprintf(f, "    \"wire_throughput_ratio_ge_075\": %s,\n",
                 wire_throughput_ok ? "true" : "false");
    std::fprintf(f, "    \"wire_verdicts_identical\": %s\n",
                 wire_verdicts_ok ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"degradation_sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto &r = sweep[i];
        std::fprintf(f,
                     "    {\"intensity\": %.2f, \"gated_fp_pct\": "
                     "%.3f, \"ungated_fp_pct\": %.3f, "
                     "\"gated_tp_pct\": %.3f, \"ungated_tp_pct\": "
                     "%.3f, \"gated_degraded_pct\": %.3f}%s\n",
                     r.intensity, r.gated_fp, r.ungated_fp, r.gated_tp,
                     r.ungated_tp, r.gated_degraded_pct,
                     i + 1 == sweep.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    if (std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
        std::fprintf(stderr, "cannot publish %s\n", out_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("perf_pipeline",
                          [&] { return runBench(argc, argv); });
}
