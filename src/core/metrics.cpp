#include "metrics.h"

#include <algorithm>
#include <cstdio>

#include "prog/regions.h"

namespace eddie::core
{

RunMetrics
scoreRun(const std::vector<Sts> &stream,
         const std::vector<StepRecord> &records,
         const std::vector<AnomalyReport> &reports,
         const TrainedModel &model)
{
    RunMetrics m;
    m.region_groups.assign(model.numRegions(), 0);
    m.region_correct.assign(model.numRegions(), 0);

    const std::size_t steps = std::min(stream.size(), records.size());

    // Injection start time (if any).
    double inj_start = -1.0;
    for (const auto &sts : stream) {
        if (sts.injected) {
            inj_start = sts.t_start;
            break;
        }
    }

    for (std::size_t t = 0; t < steps; ++t) {
        const StepRecord &rec = records[t];
        // Quarantined windows carry no usable signal; charging them
        // as false negatives would punish the monitor for refusing
        // to guess. They are tallied separately.
        if (rec.degraded) {
            ++m.degraded_groups;
            continue;
        }
        // Warmup steps of a *trained* region make no test decision;
        // counting them as groups would charge the latency/accuracy
        // trade-off twice. Steps in untrained (blind) regions do
        // count — missing an injection there is a real miss.
        const bool trained = rec.region < model.regions.size() &&
            model.regions[rec.region].trained;
        if (trained && !rec.tested)
            continue;
        // A group is charged to its newest STS: windows trailing a
        // finished injection would otherwise stay "injected" for n
        // more steps after the monitor correctly moved on.
        const bool injected = stream[t].injected;

        ++m.groups;
        if (injected)
            ++m.injected_groups;
        const bool correct = rec.reported == injected;
        if (injected && rec.reported)
            ++m.true_positives;
        if (injected && !rec.reported)
            ++m.false_negatives;
        if (!injected && rec.reported)
            ++m.false_positives;

        const std::size_t truth = stream[t].true_region;
        if (truth < model.numRegions()) {
            ++m.region_groups[truth];
            if (correct)
                ++m.region_correct[truth];
            ++m.labeled_steps;
            if (rec.region == truth)
                ++m.covered_steps;
        }
    }

    if (inj_start >= 0.0) {
        for (const auto &rep : reports) {
            if (rep.time >= inj_start) {
                m.detection_latency = rep.time - inj_start;
                break;
            }
        }
    }
    return m;
}

AggregateMetrics
aggregate(const std::vector<RunMetrics> &runs)
{
    AggregateMetrics agg;
    std::size_t groups = 0, fp = 0, inj = 0, tp = 0, fn = 0;
    std::size_t degraded = 0;
    double latency_sum = 0.0;
    std::size_t latency_count = 0;
    std::size_t covered = 0, labeled = 0;

    std::vector<std::size_t> region_groups;
    std::vector<std::size_t> region_correct;

    for (const auto &r : runs) {
        groups += r.groups;
        degraded += r.degraded_groups;
        fp += r.false_positives;
        inj += r.injected_groups;
        tp += r.true_positives;
        fn += r.false_negatives;
        // Coverage measures attribution quality of *valid*
        // executions; while an injection is active there is no
        // correct region to attribute to.
        if (r.injected_groups == 0) {
            covered += r.covered_steps;
            labeled += r.labeled_steps;
        }
        if (r.injected_groups > 0) {
            ++agg.runs_with_injection;
            if (r.detection_latency >= 0.0) {
                ++agg.runs_detected;
                latency_sum += r.detection_latency;
                ++latency_count;
            }
        }
        if (region_groups.size() < r.region_groups.size()) {
            region_groups.resize(r.region_groups.size(), 0);
            region_correct.resize(r.region_groups.size(), 0);
        }
        for (std::size_t i = 0; i < r.region_groups.size(); ++i) {
            region_groups[i] += r.region_groups[i];
            region_correct[i] += r.region_correct[i];
        }
    }

    if (groups > 0)
        agg.false_positive_pct = 100.0 * double(fp) / double(groups);
    if (groups + degraded > 0) {
        agg.degraded_pct =
            100.0 * double(degraded) / double(groups + degraded);
    }
    if (inj > 0) {
        agg.false_negative_pct = 100.0 * double(fn) / double(inj);
        agg.true_positive_pct = 100.0 * double(tp) / double(inj);
    }
    if (latency_count > 0) {
        agg.detection_latency_ms =
            1000.0 * latency_sum / double(latency_count);
    }
    if (labeled > 0)
        agg.coverage_pct = 100.0 * double(covered) / double(labeled);

    // Per-region accuracy averaged over regions that saw groups.
    double acc_sum = 0.0;
    std::size_t acc_regions = 0;
    for (std::size_t i = 0; i < region_groups.size(); ++i) {
        if (region_groups[i] == 0)
            continue;
        acc_sum += double(region_correct[i]) / double(region_groups[i]);
        ++acc_regions;
    }
    if (acc_regions > 0)
        agg.accuracy_pct = 100.0 * acc_sum / double(acc_regions);
    return agg;
}

std::string
describe(const CaptureCacheStats &stats)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "capture cache: %llu hits, %llu misses "
                  "(%.1f%% hit rate), %zu entries, %llu evictions",
                  static_cast<unsigned long long>(stats.hits),
                  static_cast<unsigned long long>(stats.misses),
                  100.0 * stats.hitRate(), stats.entries,
                  static_cast<unsigned long long>(stats.evictions));
    return buf;
}

std::string
describe(const ServeStats &stats)
{
    char buf[640];
    std::snprintf(
        buf, sizeof buf,
        "serve: %llu delivered, %llu processed, "
        "%llu retries (%llu stalls, %llu errors, "
        "%llu give-ups), %llu restarts (%llu crashes, %llu hangs, "
        "%llu escalations), %llu checkpoints, %llu restores, "
        "%llu model reloads, %llu group commits (%llu full, "
        "%llu delta bytes, %llu fallbacks), fleet: %llu tenants, "
        "%llu sessions (%llu rejected), %llu breaker trips, "
        "%llu shed, %llu throttled, %llu snapshot decode failures",
        static_cast<unsigned long long>(stats.delivered),
        static_cast<unsigned long long>(stats.processed),
        static_cast<unsigned long long>(stats.source_retries),
        static_cast<unsigned long long>(stats.source_stalls),
        static_cast<unsigned long long>(stats.source_errors),
        static_cast<unsigned long long>(stats.source_give_ups),
        static_cast<unsigned long long>(stats.worker_restarts),
        static_cast<unsigned long long>(stats.worker_crashes),
        static_cast<unsigned long long>(stats.worker_hangs),
        static_cast<unsigned long long>(stats.escalations),
        static_cast<unsigned long long>(stats.checkpoints_written),
        static_cast<unsigned long long>(stats.checkpoint_restores),
        static_cast<unsigned long long>(stats.model_reloads),
        static_cast<unsigned long long>(stats.group_commits),
        static_cast<unsigned long long>(stats.full_snapshots),
        static_cast<unsigned long long>(stats.delta_bytes),
        static_cast<unsigned long long>(stats.delta_fallbacks),
        static_cast<unsigned long long>(stats.tenants),
        static_cast<unsigned long long>(stats.sessions),
        static_cast<unsigned long long>(stats.sessions_rejected),
        static_cast<unsigned long long>(stats.breaker_trips),
        static_cast<unsigned long long>(stats.windows_shed),
        static_cast<unsigned long long>(stats.windows_throttled),
        static_cast<unsigned long long>(
            stats.snapshot_decode_failures));
    return std::string(buf);
}

std::string
describe(const DegradedStats &stats)
{
    char buf[224];
    std::snprintf(
        buf, sizeof buf,
        "degraded mode: %zu quarantined (%zu dropout, %zu saturated, "
        "%zu noise-floor, %zu malformed), %zu outages, %zu resyncs, "
        "longest outage %zu",
        stats.quarantined,
        stats.by_kind[std::size_t(WindowQuality::Dropout)],
        stats.by_kind[std::size_t(WindowQuality::Saturated)],
        stats.by_kind[std::size_t(WindowQuality::NoiseFloor)],
        stats.by_kind[std::size_t(WindowQuality::Malformed)],
        stats.outages, stats.resyncs, stats.longest_outage);
    return std::string(buf);
}

} // namespace eddie::core
