#include "pipeline.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "capture_cache.h"
#include "common/bytes.h"
#include "common/thread_pool.h"
#include "faults/fault_injector.h"
#include "sig/stft.h"

namespace eddie::core
{

namespace
{

using common::ByteWriter;

/** Appends a length-prefixed string to a cache key. Every key field
 *  goes through the one byte codec (common/bytes.h), appended one by
 *  one, so struct padding never reaches the key and the same capture
 *  always produces the same bytes. */
void
keyString(ByteWriter &kb, const std::string &s)
{
    kb.put<std::uint64_t>(s.size());
    kb.bytes(s);
}

std::uint64_t
fnv1aWords(const std::vector<std::int64_t> &words, std::uint64_t h)
{
    for (std::int64_t w : words) {
        std::uint64_t v = std::uint64_t(w);
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

void
keyProgram(ByteWriter &kb, const prog::Program &program)
{
    keyString(kb, program.name);
    kb.put<std::uint64_t>(program.code.size());
    for (const auto &instr : program.code) {
        kb.put<std::uint8_t>(std::uint8_t(instr.op));
        kb.put<std::uint8_t>(instr.rd);
        kb.put<std::uint8_t>(instr.rs1);
        kb.put<std::uint8_t>(instr.rs2);
        kb.put<std::int64_t>(instr.imm);
    }
}

void
keyRegions(ByteWriter &kb, const prog::RegionGraph &regions)
{
    kb.put<std::uint64_t>(regions.num_loops);
    kb.put<std::uint64_t>(regions.regions.size());
    for (const auto &r : regions.regions) {
        kb.put<std::uint8_t>(std::uint8_t(r.kind));
        kb.put<std::uint64_t>(r.loop);
        kb.put<std::uint64_t>(r.from_loop);
        kb.put<std::uint64_t>(r.to_loop);
        kb.put<std::uint64_t>(r.header_instr);
        kb.put<std::uint64_t>(r.hot_header_instr);
        kb.put<std::uint64_t>(r.succs.size());
        for (std::size_t s : r.succs)
            kb.put<std::uint64_t>(s);
    }
}

void
keyInput(ByteWriter &kb, const cpu::MemoryImage &image)
{
    // The image can be megabytes; fold it to a hash instead of
    // embedding it. Everything else in the key is exact bytes.
    std::uint64_t h = 1469598103934665603ULL;
    std::uint64_t words = 0;
    kb.put<std::uint64_t>(image.size());
    for (const auto &[addr, data] : image) {
        kb.put<std::uint64_t>(addr);
        h = fnv1aWords(data, h);
        words += data.size();
    }
    kb.put<std::uint64_t>(words);
    kb.put<std::uint64_t>(h);
}

void
keyCoreConfig(ByteWriter &kb, const cpu::CoreConfig &c)
{
    kb.put<std::uint8_t>(c.out_of_order ? 1 : 0);
    kb.put<std::uint64_t>(c.issue_width);
    kb.put<std::uint64_t>(c.pipeline_depth);
    kb.put<std::uint64_t>(c.rob_size);
    kb.put<double>(c.clock_hz);
    for (const auto *cache : {&c.l1, &c.l2}) {
        kb.put<std::uint64_t>(cache->size_bytes);
        kb.put<std::uint64_t>(cache->assoc);
        kb.put<std::uint64_t>(cache->line_bytes);
    }
    kb.put<std::uint64_t>(c.l1_latency);
    kb.put<std::uint64_t>(c.l2_latency);
    kb.put<std::uint64_t>(c.dram_latency);
    kb.put<std::uint64_t>(c.mul_latency);
    kb.put<std::uint64_t>(c.div_latency);
    kb.put<std::uint64_t>(c.memory_words);
    kb.put<std::uint64_t>(c.cycles_per_sample);
    kb.put<double>(c.schedule_jitter);
    kb.put<std::uint64_t>(c.jitter_epoch_instrs);
    kb.put<double>(c.os_irq_rate_hz);
    kb.put<std::uint64_t>(c.os_irq_ops);
    kb.put<std::uint64_t>(c.max_instructions);
    kb.put<std::uint64_t>(c.snapshot_words);
}

void
keyEnergy(ByteWriter &kb, const power::EnergyParams &e)
{
    kb.put<double>(e.issue_base);
    kb.put<double>(e.alu);
    kb.put<double>(e.mul);
    kb.put<double>(e.div);
    kb.put<double>(e.branch);
    kb.put<double>(e.l1_ref);
    kb.put<double>(e.l2_ref);
    kb.put<double>(e.dram);
    kb.put<double>(e.flush_per_stage);
    kb.put<double>(e.baseline_per_cycle);
}

void
keySignalChain(ByteWriter &kb, const PipelineConfig &config)
{
    kb.put<std::uint64_t>(config.stft_window);
    kb.put<std::uint64_t>(config.stft_hop);
    kb.put<std::uint8_t>(std::uint8_t(config.stft_window_fn));

    const auto &p = config.features.peaks;
    kb.put<double>(p.min_energy_frac);
    kb.put<std::uint64_t>(p.max_peaks);
    kb.put<std::uint8_t>(p.skip_dc ? 1 : 0);
    kb.put<std::uint64_t>(p.dc_guard_bins);
    kb.put<std::uint64_t>(p.neighborhood);
    kb.put<std::uint64_t>(config.features.max_peaks);
    kb.put<std::uint8_t>(config.features.positive_only ? 1 : 0);

    kb.put<std::uint8_t>(std::uint8_t(config.path));
    kb.put<double>(config.channel.depth);
    kb.put<double>(config.channel.snr_db);
    kb.put<std::uint64_t>(config.channel.interferers.size());
    for (const auto &tone : config.channel.interferers) {
        kb.put<double>(tone.offset_hz);
        kb.put<double>(tone.amplitude);
    }

    // Fault injection changes the captured stream, so every knob is
    // part of the capture identity.
    const auto &f = config.channel.faults;
    kb.put<std::uint8_t>(f.enabled ? 1 : 0);
    kb.put<std::uint64_t>(f.seed);
    for (const auto *ep :
         {&f.dropout, &f.snr_collapse, &f.interference}) {
        kb.put<double>(ep->rate_hz);
        kb.put<double>(ep->mean_duration_s);
    }
    kb.put<double>(f.snr_collapse_db);
    kb.put<double>(f.interference_amplitude);
    kb.put<double>(f.interference_density);
    kb.put<double>(f.drift_max_hz);
    kb.put<double>(f.drift_period_s);
    kb.put<double>(f.frame_truncate_prob);
    kb.put<double>(f.frame_corrupt_prob);
}

void
keyPlan(ByteWriter &kb, const cpu::InjectionPlan &plan)
{
    kb.put<std::uint64_t>(plan.seed);
    kb.put<std::uint64_t>(plan.loops.size());
    for (const auto &loop : plan.loops) {
        kb.put<std::uint64_t>(loop.loop_region);
        kb.put<double>(loop.contamination);
        kb.put<std::uint64_t>(loop.ops.size());
        for (auto op : loop.ops)
            kb.put<std::uint8_t>(std::uint8_t(op));
    }
    kb.put<std::uint64_t>(plan.bursts.size());
    for (const auto &burst : plan.bursts) {
        kb.put<std::uint64_t>(burst.trigger_region);
        kb.put<std::uint64_t>(burst.occurrence);
        kb.put<std::uint64_t>(burst.total_ops);
        kb.put<std::uint64_t>(burst.body.size());
        for (auto op : burst.body)
            kb.put<std::uint8_t>(std::uint8_t(op));
    }
}

/**
 * Seed/plan-independent half of the cache key: program, regions, and
 * the full capture configuration. The v3 layout puts these first so a
 * Pipeline can serialize them once and prepend the cached bytes on
 * every lookup instead of re-walking the program per capture.
 */
std::string
captureKeyPrefix(const workloads::Workload &workload,
                 const PipelineConfig &config)
{
    std::string key;
    ByteWriter kb(key);
    keyString(kb, "EDDIE-CKEY-v3");
    keyProgram(kb, workload.program);
    keyRegions(kb, workload.regions);
    keyCoreConfig(kb, config.core);
    keyEnergy(kb, config.energy);
    keySignalChain(kb, config);
    return key;
}

/** Per-invocation half: input image, seed, and injection plan. */
std::string
captureKeySuffix(const workloads::Workload &workload,
                 std::uint64_t seed, const cpu::InjectionPlan &plan)
{
    std::string key;
    ByteWriter kb(key);
    keyInput(kb, workload.make_input(seed));
    kb.put<std::uint64_t>(seed);
    keyPlan(kb, plan);
    return key;
}

} // namespace

std::string
captureCacheKey(const workloads::Workload &workload,
                const PipelineConfig &config, std::uint64_t seed,
                const cpu::InjectionPlan &plan)
{
    return captureKeyPrefix(workload, config) +
           captureKeySuffix(workload, seed, plan);
}

Pipeline::Pipeline(workloads::Workload workload, PipelineConfig config)
    : workload_(std::move(workload)), config_(std::move(config)),
      key_prefix_(captureKeyPrefix(workload_, config_))
{
}

cpu::RunResult
Pipeline::simulate(std::uint64_t seed, const cpu::InjectionPlan &plan) const
{
    cpu::Core core(config_.core, config_.energy);
    return core.run(workload_.program, workload_.regions,
                    workload_.make_input(seed), plan, seed);
}

std::vector<Sts>
Pipeline::toSts(const cpu::RunResult &rr) const
{
    sig::StftConfig sc;
    sc.window_size = config_.stft_window;
    sc.hop = config_.stft_hop;
    sc.window = config_.stft_window_fn;
    sc.sample_rate = rr.sample_rate;
    const sig::Stft stft(sc);

    // Seed the channel (noise and fault episodes) from the trace so
    // repeated captures of the same run see different realizations.
    const std::uint64_t chan_seed =
        0x9e3779b97f4a7c15ULL ^ rr.stats.cycles;
    std::vector<faults::FaultEpisode> episodes;

    sig::Spectrogram sg;
    if (config_.path == SignalPath::Power) {
        if (config_.channel.faults.enabled) {
            auto power = rr.power;
            episodes = faults::applySignalFaults(
                power, rr.sample_rate, config_.channel.faults,
                chan_seed);
            sg = stft.analyze(power);
        } else {
            sg = stft.analyze(rr.power);
        }
    } else {
        const auto iq =
            em::emanateBaseband(rr.power, rr.sample_rate,
                                config_.channel, chan_seed, nullptr,
                                &episodes);
        sg = stft.analyze(iq);
    }
    auto stream = extractStsStream(sg, &rr,
                                   workload_.regions.regions.size(),
                                   config_.features);

    if (config_.channel.faults.enabled) {
        // Frame-level faults (truncation/corruption) model losses in
        // the capture frontend after spectral analysis.
        std::vector<std::vector<double> *> frames;
        frames.reserve(stream.size());
        for (auto &sts : stream)
            frames.push_back(&sts.peak_freqs);
        const auto mangled = faults::applyFrameFaults(
            frames, missingPeakSentinel(sg.sample_rate),
            config_.channel.faults, chan_seed);
        // Ground-truth fault labels: a window is degraded when an
        // episode overlaps it in time or its frame was mangled.
        for (std::size_t i = 0; i < stream.size(); ++i) {
            auto &sts = stream[i];
            sts.faulted = i < mangled.size() && mangled[i] != 0;
            for (const auto &ep : episodes) {
                if (ep.t_start < sts.t_end && ep.t_end > sts.t_start) {
                    sts.faulted = true;
                    break;
                }
            }
        }
    }
    return stream;
}

std::vector<Sts>
Pipeline::captureRun(std::uint64_t seed,
                     const cpu::InjectionPlan &plan) const
{
    return *captureRunShared(seed, plan);
}

std::shared_ptr<const std::vector<Sts>>
Pipeline::captureRunShared(std::uint64_t seed,
                           const cpu::InjectionPlan &plan) const
{
    if (config_.capture_cache == nullptr) {
        return std::make_shared<const std::vector<Sts>>(
            toSts(simulate(seed, plan)));
    }
    return config_.capture_cache->getOrComputeShared(
        key_prefix_ + captureKeySuffix(workload_, seed, plan),
        [&] { return toSts(simulate(seed, plan)); });
}

TrainedModel
Pipeline::trainModel(TrainingDiagnostics *diag) const
{
    common::ThreadPool pool(
        common::ThreadPool::resolveThreads(config_.threads));
    // Each seed's simulate→emanate→STFT→STS chain is an independent
    // task; parallelMap orders the streams by seed index, so the
    // trained model is bit-identical regardless of thread count.
    const auto runs = pool.parallelMap(
        config_.train_runs, [&](std::size_t i) {
            return captureRun(config_.train_seed_base + i);
        });
    const double sentinel =
        missingPeakSentinel(config_.core.clock_hz /
                            double(config_.core.cycles_per_sample));
    return train(runs, workload_.regions, sentinel, config_.trainer,
                 diag, &pool);
}

RunEvaluation
Pipeline::monitorRun(const TrainedModel &model, std::uint64_t seed,
                     const cpu::InjectionPlan &plan) const
{
    const auto stream = captureRunShared(seed, plan);
    Monitor monitor(model, config_.monitor);
    for (const auto &sts : *stream)
        monitor.step(sts);

    RunEvaluation ev;
    ev.reports = monitor.reports();
    ev.records = monitor.records();
    ev.metrics = scoreRun(*stream, ev.records, ev.reports, model);
    ev.degraded = monitor.degradedStats();
    return ev;
}

std::vector<RunEvaluation>
Pipeline::monitorBatch(const TrainedModel &model,
                       const std::vector<std::uint64_t> &seeds,
                       const std::vector<cpu::InjectionPlan> &plans,
                       BatchStageTimings *timings) const
{
    if (!plans.empty() && plans.size() != seeds.size())
        throw std::invalid_argument(
            "monitorBatch: plans must be empty or match seeds");
    const std::size_t total = seeds.size();
    const std::size_t resolved =
        common::ThreadPool::resolveThreads(config_.threads);
    const std::size_t workers =
        std::max<std::size_t>(std::min(resolved, total), 1);
    if (timings != nullptr) {
        *timings = BatchStageTimings{};
        timings->requested_threads =
            config_.threads == 0 ? resolved : config_.threads;
        timings->resolved_threads = workers;
    }
    if (total == 0)
        return {};

    // One run per pool task: the pool hands out run indices one at a
    // time, so a long injected run delays only itself, never a chunk
    // of runs queued behind it on the same worker. Each task borrows
    // a scratch Monitor from an idle list (at most one per worker is
    // ever built) and resets it, so the steady-state loop does no
    // per-run history/gate reallocation. A reset monitor steps
    // bit-identically to a fresh one and result[i] is written only by
    // run i, so the output is independent of the worker count and of
    // which worker ran which run.
    std::vector<RunEvaluation> result(total);
    std::vector<BatchStageTimings> run_t(total);
    std::mutex idle_mu;
    std::vector<std::unique_ptr<Monitor>> idle; // guarded by idle_mu
    common::ThreadPool pool(workers);
    pool.parallelFor(total, [&](std::size_t i) {
        using clock = std::chrono::steady_clock;
        const auto ms = [](clock::time_point a, clock::time_point b) {
            return std::chrono::duration<double, std::milli>(b - a)
                .count();
        };
        BatchStageTimings &t = run_t[i];

        auto t0 = clock::now();
        const auto stream = captureRunShared(
            seeds[i], plans.empty() ? cpu::InjectionPlan() : plans[i]);
        auto t1 = clock::now();
        t.capture_ms = ms(t0, t1);

        std::unique_ptr<Monitor> monitor;
        {
            const std::lock_guard<std::mutex> lock(idle_mu);
            if (!idle.empty()) {
                monitor = std::move(idle.back());
                idle.pop_back();
            }
        }
        if (monitor != nullptr)
            monitor->reset();
        else
            monitor = std::make_unique<Monitor>(model, config_.monitor);
        t0 = clock::now();
        t.setup_ms = ms(t1, t0);
        for (const auto &sts : *stream)
            monitor->step(sts);
        t1 = clock::now();
        t.kernel_ms = ms(t0, t1);

        RunEvaluation &ev = result[i];
        ev.reports = monitor->reports();
        ev.records = monitor->records();
        ev.metrics = scoreRun(*stream, ev.records, ev.reports, model);
        ev.degraded = monitor->degradedStats();
        t.score_ms = ms(t1, clock::now());

        const std::lock_guard<std::mutex> lock(idle_mu);
        idle.push_back(std::move(monitor));
    });

    if (timings != nullptr) {
        for (const BatchStageTimings &t : run_t) {
            timings->capture_ms += t.capture_ms;
            timings->setup_ms += t.setup_ms;
            timings->kernel_ms += t.kernel_ms;
            timings->score_ms += t.score_ms;
        }
    }
    return result;
}

} // namespace eddie::core
