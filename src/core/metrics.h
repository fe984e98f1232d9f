/**
 * @file
 * Evaluation metrics matching the paper's definitions (Sec. 5.2):
 * detection latency, false positives, accuracy, and coverage.
 */

#ifndef EDDIE_CORE_METRICS_H
#define EDDIE_CORE_METRICS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model.h"
#include "monitor.h"
#include "sts.h"

namespace eddie::core
{

/** Metrics of one monitored run. */
struct RunMetrics
{
    std::size_t groups = 0;
    std::size_t injected_groups = 0;
    std::size_t true_positives = 0;  ///< injected groups reported
    std::size_t false_positives = 0; ///< clean groups reported
    std::size_t false_negatives = 0; ///< injected groups not reported
    /** First report at/after injection start minus injection start,
     *  seconds; negative when nothing was detected. */
    double detection_latency = -1.0;
    /** Steps where the monitor's region matched ground truth. */
    std::size_t covered_steps = 0;
    std::size_t labeled_steps = 0;
    /** Per-region (group count, correct count) for the paper's
     *  per-region-averaged accuracy. */
    std::vector<std::size_t> region_groups;
    std::vector<std::size_t> region_correct;
    /** Steps the quality gate quarantined (no detection decision;
     *  excluded from the counts above). */
    std::size_t degraded_groups = 0;
};

/**
 * Scores one monitored run.
 *
 * A "group" is the sliding K-S window ending at each step; a group
 * is injected when any STS inside the window (n_c most recent) is
 * injected.
 *
 * @param stream the monitored STS stream (with ground-truth labels)
 * @param records the monitor's per-step records
 * @param reports the monitor's anomaly reports
 * @param model for per-region group sizes
 */
RunMetrics scoreRun(const std::vector<Sts> &stream,
                    const std::vector<StepRecord> &records,
                    const std::vector<AnomalyReport> &reports,
                    const TrainedModel &model);

/** Aggregate of many runs, in the units the paper reports. */
struct AggregateMetrics
{
    double detection_latency_ms = -1.0;
    double false_positive_pct = 0.0;
    double accuracy_pct = 0.0;
    double coverage_pct = 0.0;
    double false_negative_pct = 0.0;
    double true_positive_pct = 0.0;
    std::size_t runs_detected = 0;
    std::size_t runs_with_injection = 0;
    /** Share of steps quarantined by the quality gate. */
    double degraded_pct = 0.0;
};

/** Combines per-run metrics (paper-style averages). */
AggregateMetrics aggregate(const std::vector<RunMetrics> &runs);

/**
 * Counters of the capture memoization cache (see capture_cache.h),
 * snapshotted by CaptureCache::stats(). A lookup increments exactly
 * one of hits, disk_hits, or misses.
 */
struct CaptureCacheStats
{
    std::uint64_t hits = 0;      ///< served from memory
    std::uint64_t disk_hits = 0; ///< served from the disk spill
    std::uint64_t misses = 0;    ///< recomputed from the simulator
    std::uint64_t evictions = 0; ///< LRU entries dropped from memory
    std::uint64_t spills = 0;    ///< evictions persisted to disk
    /** Spill files rejected as corrupt (bad magic/CRC/contents);
     *  each such lookup is counted as a miss and recomputed. */
    std::uint64_t spill_corrupt = 0;
    /** Spill files rejected as truncated (short read). */
    std::uint64_t spill_short_read = 0;
    /** Spill writes that failed (ENOSPC, short write, open failure);
     *  a counted soft failure — the entry is evicted without a spill
     *  and the partial file removed, never an error to the caller. */
    std::uint64_t spill_write_failed = 0;
    std::size_t entries = 0;     ///< current in-memory entries

    std::uint64_t lookups() const { return hits + disk_hits + misses; }
    /** Fraction of lookups that skipped the simulator. */
    double hitRate() const
    {
        const std::uint64_t n = lookups();
        return n == 0 ? 0.0 : double(hits + disk_hits) / double(n);
    }
};

/**
 * Counters of the supervised streaming runtime (src/serve/): queue
 * backpressure, source retry/backoff, worker supervision, and
 * checkpointing. Defined here with the other metric structs so
 * describe() overloads live in one place; core has no dependency on
 * the serve layer.
 */
struct ServeStats
{
    std::uint64_t delivered = 0;  ///< STSs pushed into the queue
    std::uint64_t processed = 0;  ///< monitor steps completed
    /** Backpressure: windows evicted by the drop-oldest policy. */
    std::uint64_t dropped_oldest = 0;
    /** Backpressure: pushes that had to wait under the block policy. */
    std::uint64_t blocked_pushes = 0;
    /** Queue condvar wakeups whose predicate was still false (batched
     *  push/pop wakeups exist to keep this near zero). */
    std::uint64_t queue_spurious_wakeups = 0;
    std::uint64_t source_stalls = 0;  ///< pull attempts that stalled
    std::uint64_t source_errors = 0;  ///< transient source errors
    std::uint64_t source_retries = 0; ///< backed-off retry attempts
    /** Retry budgets exhausted; surfaced to the supervisor as a
     *  source failure (restart/escalation path). */
    std::uint64_t source_give_ups = 0;
    std::uint64_t worker_crashes = 0; ///< worker exceptions caught
    std::uint64_t worker_hangs = 0;   ///< watchdog deadline misses
    std::uint64_t worker_restarts = 0;
    /** Shards abandoned after the restarts-per-window budget. */
    std::uint64_t escalations = 0;
    std::uint64_t checkpoints_written = 0;
    std::uint64_t checkpoint_restores = 0;
    std::uint64_t model_reloads = 0;
    /** Total failure-detection-to-restart latency, ms. */
    double restart_latency_ms = 0.0;
    /** Delta-checkpoint pipeline (DESIGN.md §7): group commits
     *  landed in the checkpoint archive (one archive commit each,
     *  covering every shard's pending deltas). */
    std::uint64_t group_commits = 0;
    /** Full group snapshots rewritten (chain re-anchors). */
    std::uint64_t full_snapshots = 0;
    /** Bytes of delta segments written. */
    std::uint64_t delta_bytes = 0;
    /** Recovery replays that hit a corrupt/truncated/broken-chain
     *  delta segment and fell back to the state reconstructed so
     *  far (at worst the last full snapshot). */
    std::uint64_t delta_fallbacks = 0;
    /** Delta segments discarded by those fallbacks. */
    std::uint64_t delta_segments_dropped = 0;
    /** Per-stage worker time, summed across shards: blocking in
     *  StsQueue::popBatch vs. stepping the monitor vs. cutting
     *  deltas — the breakdown that makes a flat sharding curve
     *  attributable instead of mysterious. */
    double queue_wait_ms = 0.0;
    double step_ms = 0.0;
    double checkpoint_ms = 0.0;
    /** Fleet runtime (serve/tenant.h): tenants and sessions the last
     *  runFleet multiplexed. Zero in single-tenant mode. */
    std::uint64_t tenants = 0;
    std::uint64_t sessions = 0;
    /** Per-tenant circuit breakers tripped (each isolates one tenant
     *  into degraded mode; neighbors keep running). */
    std::uint64_t breaker_trips = 0;
    /** Session opens refused by admission (all ShedReasons). */
    std::uint64_t sessions_rejected = 0;
    /** Windows dropped / feeder naps taken by per-tenant STS/s rate
     *  quotas. */
    std::uint64_t windows_shed = 0;
    std::uint64_t windows_throttled = 0;
    /** Tenant snapshots that existed but failed to decode during
     *  resume (FaultClass::CheckpointDecode trips). */
    std::uint64_t snapshot_decode_failures = 0;
};

/** One-line human-readable summary of the cache counters. */
std::string describe(const CaptureCacheStats &stats);

/** One-line human-readable summary of the serving-runtime
 *  counters. */
std::string describe(const ServeStats &stats);

/** One-line human-readable summary of the monitor's degraded-mode
 *  counters (quality.h). */
std::string describe(const DegradedStats &stats);

} // namespace eddie::core

#endif // EDDIE_CORE_METRICS_H
