#include "pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "capture_cache.h"
#include "common/thread_pool.h"
#include "faults/fault_injector.h"
#include "sig/stft.h"

namespace eddie::core
{

namespace
{

/**
 * Endianness-stable byte serializer for cache keys. Every field is
 * appended explicitly — struct padding never reaches the key, so the
 * same capture always produces the same bytes.
 */
class KeyBuilder
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(char(v)); }

    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(char((v >> (8 * i)) & 0xff));
    }

    void i64(std::int64_t v) { u64(std::uint64_t(v)); }

    void f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void str(const std::string &s)
    {
        u64(s.size());
        buf_.append(s);
    }

    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

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
keyProgram(KeyBuilder &kb, const prog::Program &program)
{
    kb.str(program.name);
    kb.u64(program.code.size());
    for (const auto &instr : program.code) {
        kb.u8(std::uint8_t(instr.op));
        kb.u8(instr.rd);
        kb.u8(instr.rs1);
        kb.u8(instr.rs2);
        kb.i64(instr.imm);
    }
}

void
keyRegions(KeyBuilder &kb, const prog::RegionGraph &regions)
{
    kb.u64(regions.num_loops);
    kb.u64(regions.regions.size());
    for (const auto &r : regions.regions) {
        kb.u8(std::uint8_t(r.kind));
        kb.u64(r.loop);
        kb.u64(r.from_loop);
        kb.u64(r.to_loop);
        kb.u64(r.header_instr);
        kb.u64(r.hot_header_instr);
        kb.u64(r.succs.size());
        for (std::size_t s : r.succs)
            kb.u64(s);
    }
}

void
keyInput(KeyBuilder &kb, const cpu::MemoryImage &image)
{
    // The image can be megabytes; fold it to a hash instead of
    // embedding it. Everything else in the key is exact bytes.
    std::uint64_t h = 1469598103934665603ULL;
    std::uint64_t words = 0;
    kb.u64(image.size());
    for (const auto &[addr, data] : image) {
        kb.u64(addr);
        h = fnv1aWords(data, h);
        words += data.size();
    }
    kb.u64(words);
    kb.u64(h);
}

void
keyCoreConfig(KeyBuilder &kb, const cpu::CoreConfig &c)
{
    kb.u8(c.out_of_order ? 1 : 0);
    kb.u64(c.issue_width);
    kb.u64(c.pipeline_depth);
    kb.u64(c.rob_size);
    kb.f64(c.clock_hz);
    for (const auto *cache : {&c.l1, &c.l2}) {
        kb.u64(cache->size_bytes);
        kb.u64(cache->assoc);
        kb.u64(cache->line_bytes);
    }
    kb.u64(c.l1_latency);
    kb.u64(c.l2_latency);
    kb.u64(c.dram_latency);
    kb.u64(c.mul_latency);
    kb.u64(c.div_latency);
    kb.u64(c.memory_words);
    kb.u64(c.cycles_per_sample);
    kb.f64(c.schedule_jitter);
    kb.u64(c.jitter_epoch_instrs);
    kb.f64(c.os_irq_rate_hz);
    kb.u64(c.os_irq_ops);
    kb.u64(c.max_instructions);
    kb.u64(c.snapshot_words);
}

void
keyEnergy(KeyBuilder &kb, const power::EnergyParams &e)
{
    kb.f64(e.issue_base);
    kb.f64(e.alu);
    kb.f64(e.mul);
    kb.f64(e.div);
    kb.f64(e.branch);
    kb.f64(e.l1_ref);
    kb.f64(e.l2_ref);
    kb.f64(e.dram);
    kb.f64(e.flush_per_stage);
    kb.f64(e.baseline_per_cycle);
}

void
keySignalChain(KeyBuilder &kb, const PipelineConfig &config)
{
    kb.u64(config.stft_window);
    kb.u64(config.stft_hop);
    kb.u8(std::uint8_t(config.stft_window_fn));

    const auto &p = config.features.peaks;
    kb.f64(p.min_energy_frac);
    kb.u64(p.max_peaks);
    kb.u8(p.skip_dc ? 1 : 0);
    kb.u64(p.dc_guard_bins);
    kb.u64(p.neighborhood);
    kb.u64(config.features.max_peaks);
    kb.u8(config.features.positive_only ? 1 : 0);

    kb.u8(std::uint8_t(config.path));
    kb.f64(config.channel.depth);
    kb.f64(config.channel.snr_db);
    kb.u64(config.channel.interferers.size());
    for (const auto &tone : config.channel.interferers) {
        kb.f64(tone.offset_hz);
        kb.f64(tone.amplitude);
    }

    // Fault injection changes the captured stream, so every knob is
    // part of the capture identity.
    const auto &f = config.channel.faults;
    kb.u8(f.enabled ? 1 : 0);
    kb.u64(f.seed);
    for (const auto *ep :
         {&f.dropout, &f.snr_collapse, &f.interference}) {
        kb.f64(ep->rate_hz);
        kb.f64(ep->mean_duration_s);
    }
    kb.f64(f.snr_collapse_db);
    kb.f64(f.interference_amplitude);
    kb.f64(f.interference_density);
    kb.f64(f.drift_max_hz);
    kb.f64(f.drift_period_s);
    kb.f64(f.frame_truncate_prob);
    kb.f64(f.frame_corrupt_prob);
}

void
keyPlan(KeyBuilder &kb, const cpu::InjectionPlan &plan)
{
    kb.u64(plan.seed);
    kb.u64(plan.loops.size());
    for (const auto &loop : plan.loops) {
        kb.u64(loop.loop_region);
        kb.f64(loop.contamination);
        kb.u64(loop.ops.size());
        for (auto op : loop.ops)
            kb.u8(std::uint8_t(op));
    }
    kb.u64(plan.bursts.size());
    for (const auto &burst : plan.bursts) {
        kb.u64(burst.trigger_region);
        kb.u64(burst.occurrence);
        kb.u64(burst.total_ops);
        kb.u64(burst.body.size());
        for (auto op : burst.body)
            kb.u8(std::uint8_t(op));
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
    KeyBuilder kb;
    kb.str("EDDIE-CKEY-v3");
    keyProgram(kb, workload.program);
    keyRegions(kb, workload.regions);
    keyCoreConfig(kb, config.core);
    keyEnergy(kb, config.energy);
    keySignalChain(kb, config);
    return kb.take();
}

/** Per-invocation half: input image, seed, and injection plan. */
std::string
captureKeySuffix(const workloads::Workload &workload,
                 std::uint64_t seed, const cpu::InjectionPlan &plan)
{
    KeyBuilder kb;
    keyInput(kb, workload.make_input(seed));
    kb.u64(seed);
    keyPlan(kb, plan);
    return kb.take();
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
