/**
 * @file
 * Capture-cache contract: memoized captures are bit-identical to
 * uncached ones (so trained models match byte for byte with the
 * cache on or off, at any thread count), keys separate every input
 * that can change a capture, and the LRU accounts for its traffic in
 * the stats counters.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "core/capture_cache.h"
#include "core/capture_io.h"
#include "core/pipeline.h"
#include "cpu/injection.h"
#include "inject/scenarios.h"

namespace
{

using namespace eddie;
using core::CaptureCache;
using core::Pipeline;
using core::PipelineConfig;

std::string
serializeStream(const std::vector<core::Sts> &stream)
{
    std::ostringstream os;
    core::saveStsStream(stream, os);
    return os.str();
}

std::string
serializedModel(const PipelineConfig &base, std::size_t threads,
                std::shared_ptr<CaptureCache> cache)
{
    PipelineConfig cfg = base;
    cfg.threads = threads;
    cfg.capture_cache = std::move(cache);
    Pipeline pipe(workloads::makeWorkload("bitcount", 0.15), cfg);
    return core::encodeModelBinary(pipe.trainModel());
}

TEST(CaptureCacheTest, HitReturnsIdenticalStreamAndCounts)
{
    PipelineConfig cfg;
    cfg.capture_cache = std::make_shared<CaptureCache>();
    Pipeline pipe(workloads::makeWorkload("bitcount", 0.15), cfg);

    const auto first = pipe.captureRun(1000);
    const auto second = pipe.captureRun(1000);
    EXPECT_EQ(serializeStream(first), serializeStream(second));

    const auto stats = cfg.capture_cache->stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_NEAR(stats.hitRate(), 0.5, 1e-12);

    // Different seed and different plan are distinct keys.
    (void)pipe.captureRun(1001);
    const auto plan = inject::canonicalLoopInjection(
        inject::defaultTargetLoop(pipe.workload()), 1.0, 7);
    (void)pipe.captureRun(1000, plan);
    const auto after = cfg.capture_cache->stats();
    EXPECT_EQ(after.misses, 3u);
    EXPECT_EQ(after.entries, 3u);
}

TEST(CaptureCacheTest, TrainedModelByteIdenticalCacheOnOffAnyThreads)
{
    PipelineConfig cfg;
    cfg.train_runs = 4;

    const auto uncached = serializedModel(cfg, 1, nullptr);
    ASSERT_FALSE(uncached.empty());

    // Cold cache, serial and contended parallel.
    auto cache = std::make_shared<CaptureCache>();
    EXPECT_EQ(serializedModel(cfg, 1, cache), uncached);
    // Warm cache: every capture is a hit now.
    EXPECT_EQ(serializedModel(cfg, 8, cache), uncached);
    const auto stats = cache->stats();
    EXPECT_EQ(stats.misses, cfg.train_runs);
    EXPECT_EQ(stats.hits, cfg.train_runs);

    // A fresh cache racing 8 threads on 4 cold captures.
    EXPECT_EQ(serializedModel(cfg, 8, std::make_shared<CaptureCache>()),
              uncached);
}

TEST(CaptureCacheTest, MonitorBatchRaceOnOneKeyStaysConsistent)
{
    PipelineConfig cfg;
    cfg.train_runs = 3;
    cfg.threads = 8;
    cfg.capture_cache = std::make_shared<CaptureCache>();
    Pipeline pipe(workloads::makeWorkload("bitcount", 0.15), cfg);
    const auto model = pipe.trainModel();

    // Every batch entry shares one capture key, so all 8 workers
    // race on the same cache slot.
    const std::vector<std::uint64_t> seeds(8, 9000);
    const auto batch = pipe.monitorBatch(model, seeds);
    const auto lone = pipe.monitorRun(model, 9000);
    for (const auto &ev : batch) {
        EXPECT_EQ(ev.reports.size(), lone.reports.size());
        EXPECT_EQ(ev.metrics.groups, lone.metrics.groups);
        EXPECT_EQ(ev.metrics.false_positives,
                  lone.metrics.false_positives);
    }
}

TEST(CaptureCacheTest, KeySeparatesEveryCaptureInput)
{
    const auto workload = workloads::makeWorkload("bitcount", 0.15);
    PipelineConfig cfg;
    const cpu::InjectionPlan empty;
    const auto base = core::captureCacheKey(workload, cfg, 1, empty);

    EXPECT_NE(core::captureCacheKey(workload, cfg, 2, empty), base);

    PipelineConfig snr = cfg;
    snr.channel.snr_db = 15.0;
    EXPECT_NE(core::captureCacheKey(workload, snr, 1, empty), base);

    PipelineConfig stft = cfg;
    stft.stft_window = 1024;
    EXPECT_NE(core::captureCacheKey(workload, stft, 1, empty), base);

    PipelineConfig path = cfg;
    path.path = core::SignalPath::EmBaseband;
    EXPECT_NE(core::captureCacheKey(workload, path, 1, empty), base);

    PipelineConfig clock = cfg;
    clock.core.clock_hz = 100e6;
    EXPECT_NE(core::captureCacheKey(workload, clock, 1, empty), base);

    PipelineConfig energy = cfg;
    energy.energy.dram = 7.0;
    EXPECT_NE(core::captureCacheKey(workload, energy, 1, empty), base);

    cpu::InjectionPlan plan;
    plan.bursts.push_back(cpu::BurstInjection{});
    EXPECT_NE(core::captureCacheKey(workload, cfg, 1, plan), base);

    // Same workload at a different scale has different code and
    // input, even though the name matches.
    const auto scaled = workloads::makeWorkload("bitcount", 0.3);
    EXPECT_NE(core::captureCacheKey(scaled, cfg, 1, empty), base);

    // Trainer/monitor options do not affect the captured stream and
    // must not fragment the cache.
    PipelineConfig trainer = cfg;
    trainer.trainer.alpha = 0.05;
    trainer.threads = 8;
    EXPECT_EQ(core::captureCacheKey(workload, trainer, 1, empty),
              base);
}

/** CRC-32 and length of captureCacheKey() for three workloads, each
 *  with an empty plan and with a loop + burst injection plan. The
 *  digests were recorded before the key writer moved onto
 *  common::ByteWriter: every key byte must stay the same. */
TEST(CaptureCacheTest, KeyBytesMatchTheirGolden)
{
    struct Golden
    {
        const char *workload;
        bool injected;
        std::uint32_t crc;
        std::size_t size;
    };
    const Golden goldens[] = {
        {"sha", false, 0x29d282f5u, 2649},
        {"sha", true, 0xa221b093u, 2721},
        {"bitcount", false, 0xdba038fdu, 3910},
        {"bitcount", true, 0x85c2cf65u, 3982},
        {"susan", false, 0xe164dc3du, 2307},
        {"susan", true, 0xc3745a6du, 2379},
    };
    cpu::InjectionPlan plan;
    plan.seed = 77;
    plan.loops.push_back({1, cpu::canonicalLoopPayload(), 0.5});
    cpu::BurstInjection burst;
    burst.trigger_region = 2;
    burst.occurrence = 3;
    burst.total_ops = 1000;
    plan.bursts.push_back(burst);
    const PipelineConfig cfg;
    for (const Golden &g : goldens) {
        const auto workload = workloads::makeWorkload(g.workload, 0.15);
        const std::string key = core::captureCacheKey(
            workload, cfg, 5, g.injected ? plan : cpu::InjectionPlan{});
        EXPECT_EQ(common::crc32(key), g.crc) << g.workload;
        EXPECT_EQ(key.size(), g.size) << g.workload;
    }
}

/** The cache holds kCapacity entries: one more insert evicts the
 *  least recently used entry (counted), which its next lookup then
 *  recomputes, while a recently touched one stays a hit. */
TEST(CaptureCacheTest, LruEvictsTheLeastRecentlyUsedEntry)
{
    CaptureCache cache;
    std::size_t computes = 0;
    const auto lookup = [&](std::size_t key) {
        return cache.getOrComputeShared(std::to_string(key), [&] {
            ++computes;
            std::vector<core::Sts> stream(1);
            stream[0].t_start = double(key);
            return stream;
        });
    };
    for (std::size_t k = 0; k < CaptureCache::kCapacity; ++k)
        (void)lookup(k);
    (void)lookup(0); // key 0 is now the most recently used
    EXPECT_EQ(cache.stats().evictions, 0u);

    (void)lookup(CaptureCache::kCapacity); // evicts key 1
    auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, CaptureCache::kCapacity);
    EXPECT_EQ(computes, CaptureCache::kCapacity + 1);

    EXPECT_EQ((*lookup(0))[0].t_start, 0.0); // still held
    EXPECT_EQ(computes, CaptureCache::kCapacity + 1);
    EXPECT_EQ((*lookup(1))[0].t_start, 1.0); // recomputed
    EXPECT_EQ(computes, CaptureCache::kCapacity + 2);
    stats = cache.stats();
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, CaptureCache::kCapacity + 2);
    EXPECT_FALSE(core::describe(stats).empty());
}

TEST(CaptureCacheTest, StsStreamRoundTripsThroughCaptureIo)
{
    std::vector<core::Sts> stream(3);
    stream[0].t_start = 0.0;
    stream[0].t_end = 1e-4;
    stream[0].peak_freqs = {1e6, 2.5e6, 3e6};
    stream[0].true_region = 2;
    stream[0].injected = true;
    stream[1].t_start = 1e-4;
    stream[1].t_end = 2e-4;
    stream[1].true_region = std::size_t(-1);
    stream[2].peak_freqs = {42.0};

    std::stringstream ss;
    core::saveStsStream(stream, ss);
    const auto loaded = core::loadStsStream(ss);
    ASSERT_EQ(loaded.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(loaded[i].t_start, stream[i].t_start);
        EXPECT_EQ(loaded[i].t_end, stream[i].t_end);
        EXPECT_EQ(loaded[i].peak_freqs, stream[i].peak_freqs);
        EXPECT_EQ(loaded[i].true_region, stream[i].true_region);
        EXPECT_EQ(loaded[i].injected, stream[i].injected);
    }

    std::stringstream bad("not a capture");
    EXPECT_THROW(core::loadStsStream(bad), std::runtime_error);
}

} // namespace
