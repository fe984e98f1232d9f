/**
 * @file
 * EDDIE's online monitoring algorithm (paper Sec. 4.4, Algorithm 1).
 *
 * For each incoming STS, the monitor K-S-tests the most recent n_c
 * observed values of every peak rank against the current region's
 * reference distributions. When enough ranks reject, it checks
 * whether the window instead matches a successor region (region
 * transition); when no successor fits and even the freshest STSs no
 * longer match the current region, consecutive rejections beyond
 * reportThreshold produce an anomaly report. See DESIGN.md §6 for
 * the robustness mechanisms layered over the paper's Algorithm 1.
 */

#ifndef EDDIE_CORE_MONITOR_H
#define EDDIE_CORE_MONITOR_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model.h"
#include "quality.h"
#include "ring_buffer.h"
#include "sts.h"

namespace eddie::core
{

/** Which two-sample test drives the monitor's decisions. */
enum class TestKind
{
    /** Kolmogorov-Smirnov — sensitive to any distribution
     *  difference; the paper's choice. */
    KolmogorovSmirnov,
    /** Wilcoxon-Mann-Whitney — median-sensitive only; the paper
     *  evaluated and rejected it (Sec. 4.2). Kept for the
     *  comparison ablation. */
    MannWhitney,
};

/** Monitor options. */
struct MonitorConfig
{
    /** Statistical test for the group comparisons. */
    TestKind test = TestKind::KolmogorovSmirnov;
    /** Consecutive rejected STSs tolerated before reporting (paper
     *  uses 3: a report needs a 4-long rejection streak). */
    std::size_t report_threshold = 3;
    /** A candidate region needs num_peaks / this accepted ranks to
     *  become the new current region. */
    std::size_t change_peak_divisor = 2;
    /** A group rejects when num_peaks / this ranks reject (1/3:
     *  an injection often moves only the sharper subset of a
     *  region's peaks). */
    std::size_t reject_peak_divisor = 3;
    /**
     * Better-fit handoff (extension over the paper's Algorithm 1):
     * regions with broad reference distributions can keep accepting
     * windows long after execution moved to the next region; when
     * enabled, the monitor also hands off to a successor whose mean
     * K-S distance is decisively smaller than the current region's,
     * even before the current region's test rejects. Disable to get
     * the literal Algorithm 1 behaviour (ablated in the benches).
     */
    bool enable_handoff = true;
    /** Successor must fit this much better (ratio of mean K-S D). */
    double handoff_ratio = 0.6;
    /**
     * Group size used when testing successor candidates and the
     * fresh-window drift tolerance. Right after a region change only
     * the newest few STSs belong to the new region, so candidates are
     * judged on a short window (the paper's transition regions play
     * the same role via their small n). Too small, though, and the
     * K-S critical value becomes so lenient that broad-distribution
     * regions absorb anomalous windows; 8 keeps the critical value
     * near 0.58 against large references.
     */
    std::size_t transition_window = 8;
    /**
     * Signal-quality gate (DESIGN.md §6): windows the gate flags are
     * quarantined — excluded from the K-S history and from anomaly
     * streaks — and an outage of quality.resync_outage consecutive
     * quarantined windows makes the monitor drop its stale history
     * and re-lock to the best-fitting trained region once good signal
     * returns. A no-op on clean channels at the default thresholds.
     */
    QualityConfig quality;
};

/** What the monitor concluded for one STS. */
struct StepRecord
{
    /** Current region before processing this STS. */
    std::size_t region = 0;
    /** A group test was actually performed (the window was full and
     *  the region trained); warmup steps make no decision. */
    bool tested = false;
    /** The group test rejected the current region. */
    bool rejected = false;
    /** This STS is part of a reported anomaly streak. */
    bool reported = false;
    /** The monitor switched region while processing this STS. */
    bool transitioned = false;
    /** The quality gate quarantined this STS (no test performed;
     *  excluded from history and from anomaly accounting). */
    bool degraded = false;
};

/** A reported anomaly. */
struct AnomalyReport
{
    /** Index of the STS that triggered the report. */
    std::size_t step = 0;
    /** End time of that STS's window, seconds. */
    double time = 0.0;
    /** Region the monitor believed it was in. */
    std::size_t region = 0;
};

/**
 * Complete snapshot of a Monitor mid-stream: region state-machine
 * position, PeakHistory ring contents, consecutive-rejection and
 * degraded counters, quality-gate baseline, and the verdict log.
 * Restoring this into a fresh Monitor over the same model and config
 * continues the stream with bit-identical verdicts — the property the
 * serving runtime's crash-consistent checkpointing relies on
 * (serve/checkpoint.h serializes it; DESIGN.md §7).
 */
struct MonitorState
{
    /** Region state-machine position. */
    std::size_t current = 0;
    std::size_t steps_since_change = 0;
    /** Consecutive-rejection streak in progress. */
    std::size_t anomaly_count = 0;
    std::size_t step_index = 0;
    std::size_t test_calls = 0;
    /** Quarantine episode in progress / pending re-lock. */
    std::size_t outage_len = 0;
    bool resync_pending = false;
    /** PeakHistory rows, oldest first, each padded to the history
     *  width of the exporting monitor. */
    std::vector<std::vector<double>> history;
    DegradedStats degraded;
    /** Quality-gate energy baseline window, oldest first. */
    std::vector<double> gate_energies;
    /** Verdict log so far: a resumed monitor can retro-mark a
     *  rejection streak that straddles the checkpoint. */
    std::vector<AnomalyReport> reports;
    std::vector<StepRecord> records;
};

/**
 * Incremental snapshot: everything a monitor changed since the
 * previous cut, chained by step index. Small scalars (region
 * position, streak counters, degraded stats, the bounded gate-energy
 * window) are carried absolutely — they are O(1) and re-deriving
 * them from per-step mutations would be fragile. The unbounded parts
 * are carried as true deltas:
 *
 *  - history_tail: the PeakHistory rows pushed since the base cut
 *    that are still resident in the ring (oldest first). When the
 *    interval pushed at least a ring-full (or a resync cleared the
 *    ring), the tail IS the whole resident ring
 *    (history_tail.size() == history_count) and apply replaces
 *    instead of appending.
 *  - records/reports: appended entries, plus records_from — the
 *    rewrite low-water mark, because an anomaly report retro-marks
 *    up to report_threshold records that may precede the base cut.
 *
 * applyDelta() folds one delta into the MonitorState of the previous
 * cut; a chain of deltas applied onto a full snapshot reproduces
 * exportState() at the final cut exactly (property-tested). The
 * serving runtime serializes these into the group-committed delta
 * log (serve/checkpoint.h, DESIGN.md §7).
 */
struct MonitorStateDelta
{
    /** step_index at the previous cut — the chain link. */
    std::uint64_t base_step = 0;
    /** step_index at this cut. */
    std::uint64_t step = 0;

    /** Absolute scalar state at this cut. */
    std::size_t current = 0;
    std::size_t steps_since_change = 0;
    std::size_t anomaly_count = 0;
    std::size_t test_calls = 0;
    std::size_t outage_len = 0;
    bool resync_pending = false;
    DegradedStats degraded;
    std::vector<double> gate_energies;

    /** Total ring pushes and resident rows at this cut. */
    std::uint64_t history_pushes = 0;
    std::uint64_t history_count = 0;
    /** Rows pushed since the base cut still resident, oldest first. */
    std::vector<std::vector<double>> history_tail;

    /** Records are rewritten from this index (retro-marked streaks
     *  can reach back before the base cut, never further than
     *  report_threshold entries). */
    std::uint64_t records_from = 0;
    std::vector<StepRecord> records;
    /** Reports are append-only. */
    std::uint64_t reports_from = 0;
    std::vector<AnomalyReport> reports;
};

/**
 * Folds @p delta into @p state (the state at delta.base_step),
 * advancing it to delta.step. Throws FormatError, with @p state
 * untouched, when the chain does not link up (base_step mismatch,
 * impossible history arithmetic, an out-of-range rewrite index, or a
 * record count that is not the step index) — serve/checkpoint.cpp
 * turns that into a counted fallback to the last good cut.
 */
void applyDelta(MonitorState &state, const MonitorStateDelta &delta);

/** Online monitor; feed STSs in arrival order via step(). */
class Monitor
{
  public:
    Monitor(const TrainedModel &model, const MonitorConfig &cfg);

    /** Processes one STS; returns the per-step conclusions. */
    StepRecord step(const Sts &sts);

    /** Snapshots the full mutable state (see MonitorState). */
    MonitorState exportState() const;

    /**
     * Restores a snapshot taken by exportState() on a monitor over
     * the same model and config; subsequent step() calls produce
     * bit-identical verdicts to the uninterrupted run. Rows wider or
     * narrower than this monitor's history (a snapshot from a
     * different model after a hot reload) are truncated or padded.
     */
    void restoreState(const MonitorState &state);

    /**
     * Exports the changes since the previous cut (construction,
     * restoreState(), reset(), or the last exportDelta() call) and
     * advances the cut baseline to now. Applying the returned delta
     * onto the MonitorState of the previous cut reproduces
     * exportState() exactly. Non-const: it moves the baseline.
     */
    MonitorStateDelta exportDelta();

    /** Moves the delta baseline to the current position without
     *  exporting — the serving runtime calls this after it persists
     *  a full snapshot, so the next delta chains off that cut. */
    void resetDeltaBaseline();

    /**
     * Returns the monitor to its just-constructed state (stream
     * position zero, empty history/verdicts, fresh gate) without
     * reallocating the history ring, scratch arena, presorted views,
     * or candidate graph. Stepping a reset monitor over a stream is
     * bit-identical to stepping a freshly constructed one — the
     * property Pipeline::monitorBatch relies on to reuse scratch
     * monitors across runs instead of constructing one per run.
     */
    void reset();

    /** All reports so far. */
    const std::vector<AnomalyReport> &reports() const { return reports_; }

    /** Per-step records (index == arrival order). */
    const std::vector<StepRecord> &records() const { return records_; }

    std::size_t currentRegion() const { return current_; }

    /** Degraded-mode counters (quarantines, outages, resyncs). */
    const DegradedStats &degradedStats() const { return degraded_; }

    /** Two-sample tests performed so far (K-S or MWU, including
     *  guard-rank checks) — the throughput denominator reported by
     *  perf_pipeline. */
    std::size_t testCalls() const { return test_calls_; }

  private:
    /** Outcome of testing the current window against one region. */
    struct Fit
    {
        bool testable = false;
        bool rejects = false;
        bool accepts = false;
        std::size_t rejected_ranks = 0;
        std::size_t accepted_ranks = 0;
        double mean_d = 1.0;
    };

    /** Tests the window against one region's model; @p window
     *  overrides the region's group size when nonzero. Non-const
     *  only because it reuses the scratch arena. */
    Fit regionFit(std::size_t region, std::size_t window = 0);
    /** Gathers the newest @p n rank-@p rank observations into the
     *  scratch arena (no allocation once warmed). */
    void gatherGroup(std::size_t n, std::size_t rank);
    /** One two-sample test of the gathered group against a region's
     *  rank reference; fills @p d with the distance proxy. */
    bool testRank(std::span<const double> ref, double &d);
    /** Handles a quarantined window; fills @p rec and does the
     *  outage bookkeeping. */
    void quarantine(WindowQuality q, StepRecord &rec);
    /** After an outage, re-locks onto the trained region the
     *  refilled history fits best. Returns true on a region change. */
    bool resync();

    const TrainedModel &model_;
    MonitorConfig cfg_;
    /** STSs observed since the last region change; candidate
     *  transitions are withheld during the first transition_window
     *  steps (dwell) while the history refills. */
    std::size_t steps_since_change_ = 0;
    /** Per region: successor candidates including two-hop successors,
     *  since an inter-loop transition can be shorter than one STS
     *  window. */
    std::vector<std::vector<std::size_t>> candidates_;
    std::size_t current_;
    std::size_t anomaly_count_ = 0;
    std::size_t step_index_ = 0;

    /** History of observed peak vectors (most recent last), a
     *  fixed-capacity ring sized to the largest group the model can
     *  request. */
    PeakHistory history_;
    std::size_t max_history_;

    /** Per-region presorted reference views: the model's own (when
     *  finalized) or a Monitor-built copy for hand-assembled models
     *  that skipped TrainedModel::finalize(). */
    std::vector<const SortedReference *> sorted_;
    std::vector<SortedReference> own_sorted_;

    /** Reusable group scratch, sorted in place before each test.
     *  Sized once, so steady-state steps never allocate. */
    std::vector<double> scratch_;
    std::size_t test_calls_ = 0;

    std::vector<AnomalyReport> reports_;
    std::vector<StepRecord> records_;

    QualityGate gate_;
    DegradedStats degraded_;
    /** Length of the quarantine episode in progress (0 = none). */
    std::size_t outage_len_ = 0;
    /** Set when an outage invalidated the history; cleared by the
     *  re-lock scan once enough good windows arrive. */
    bool resync_pending_ = false;

    /** Delta-cut baseline: stream position at the last exportDelta()
     *  (or restore/reset). */
    std::uint64_t delta_base_step_ = 0;
    std::size_t delta_base_records_ = 0;
    std::size_t delta_base_reports_ = 0;
    std::uint64_t delta_base_pushes_ = 0;
    /** Lowest record index retro-marked by a report since the last
     *  cut (SIZE_MAX = none) — the rewrite window exportDelta() must
     *  re-send even though those records predate the baseline. */
    std::size_t retro_low_water_ = std::size_t(-1);
};

} // namespace eddie::core

#endif // EDDIE_CORE_MONITOR_H
