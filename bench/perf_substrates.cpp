/**
 * @file
 * google-benchmark microbenchmarks of the substrates on EDDIE's hot
 * paths: FFT, STFT, peak extraction, the two-sample K-S test, and
 * the cycle-level simulator.
 */

#include <algorithm>
#include <random>

#include <benchmark/benchmark.h>

#include "cpu/core.h"
#include "sig/fft.h"
#include "sig/peaks.h"
#include "sig/stft.h"
#include "stats/ks.h"
#include "workloads/workload.h"

namespace
{

using namespace eddie;

void
BM_FftPowerOfTwo(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    std::vector<sig::Complex> x(n);
    std::mt19937_64 rng(1);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    for (auto &v : x)
        v = sig::Complex(d(rng), d(rng));
    for (auto _ : state) {
        auto copy = x;
        sig::fft(copy);
        benchmark::DoNotOptimize(copy.data());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(n));
}
BENCHMARK(BM_FftPowerOfTwo)->Arg(1024)->Arg(2048)->Arg(8192);

void
BM_FftBluestein(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    std::vector<sig::Complex> x(n, sig::Complex(0.5, -0.25));
    for (auto _ : state) {
        auto copy = x;
        sig::fft(copy);
        benchmark::DoNotOptimize(copy.data());
    }
}
BENCHMARK(BM_FftBluestein)->Arg(1000)->Arg(2000);

void
BM_Stft(benchmark::State &state)
{
    sig::StftConfig cfg;
    cfg.window_size = 2048;
    cfg.hop = 1024;
    cfg.sample_rate = 20e6;
    const sig::Stft stft(cfg);
    std::vector<double> signal(200'000);
    std::mt19937_64 rng(2);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    for (auto &v : signal)
        v = d(rng);
    for (auto _ : state) {
        auto sg = stft.analyze(signal);
        benchmark::DoNotOptimize(sg.power.data());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(signal.size()));
}
BENCHMARK(BM_Stft);

void
BM_FindPeaks(benchmark::State &state)
{
    std::vector<double> power(2048, 0.001);
    for (std::size_t b = 16; b < 2048; b += 128)
        power[b] = 5.0;
    for (auto _ : state) {
        auto peaks = sig::findPeaks(power, 20e6);
        benchmark::DoNotOptimize(peaks.data());
    }
}
BENCHMARK(BM_FindPeaks);

void
BM_KsTestReference(benchmark::State &state)
{
    std::mt19937_64 rng(3);
    std::normal_distribution<double> d(0.0, 1.0);
    std::vector<double> ref(2000), mon(std::size_t(state.range(0)));
    for (auto &v : ref)
        v = d(rng);
    for (auto &v : mon)
        v = d(rng);
    for (auto _ : state) {
        auto r = stats::ksTest(ref, mon, 0.01);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_KsTestReference)->Arg(16)->Arg(64);

void
BM_KsTestSortedRef(benchmark::State &state)
{
    std::mt19937_64 rng(4);
    std::normal_distribution<double> d(0.0, 1.0);
    std::vector<double> ref(2000), mon(std::size_t(state.range(0)));
    for (auto &v : ref)
        v = d(rng);
    std::sort(ref.begin(), ref.end());
    for (auto &v : mon)
        v = d(rng);
    for (auto _ : state) {
        std::vector<double> sorted(mon);
        std::sort(sorted.begin(), sorted.end());
        const bool r = stats::ksTestSorted(ref, sorted, 0.01).reject;
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_KsTestSortedRef)->Arg(16)->Arg(64);

void
BM_SimulatorThroughput(benchmark::State &state)
{
    auto w = workloads::makeWorkload("bitcount", 0.1);
    cpu::CoreConfig cfg;
    const auto image = w.make_input(1);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        cpu::Core core(cfg);
        const auto rr = core.run(w.program, w.regions, image, {}, 1);
        instructions += rr.stats.instructions;
        benchmark::DoNotOptimize(rr.power.data());
    }
    state.SetItemsProcessed(std::int64_t(instructions));
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

void
BM_SimulatorOutOfOrder(benchmark::State &state)
{
    auto w = workloads::makeWorkload("bitcount", 0.1);
    cpu::CoreConfig cfg;
    cfg.out_of_order = true;
    const auto image = w.make_input(1);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        cpu::Core core(cfg);
        const auto rr = core.run(w.program, w.regions, image, {}, 1);
        instructions += rr.stats.instructions;
        benchmark::DoNotOptimize(rr.power.data());
    }
    state.SetItemsProcessed(std::int64_t(instructions));
}
BENCHMARK(BM_SimulatorOutOfOrder)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
