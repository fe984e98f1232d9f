/**
 * @file
 * Fair-share fleet scheduler (DESIGN.md §10): the serving engine. It
 * multiplexes N tenant sessions over a fixed pool of M worker threads,
 * so the threads a fleet costs follow its cores, not its session
 * count.
 *
 * Structure:
 *
 *  - A two-level run queue. Level 1 is deficit-round-robin across
 *    tenants: each tenant owns a deficit counter replenished in
 *    proportion to its STS/s quota (equal quanta when no tenant has a
 *    rate quota); a pick reserves one full batch against the counter
 *    up front and the dispatch refunds the steps it did not execute,
 *    so over any backlogged interval tenants receive worker time in
 *    quota proportion. Level 2 is FIFO across the tenant's runnable
 *    sessions. The debt bound is the fairness invariant: a tenant is
 *    only picked with positive deficit and a pick debits at most one
 *    batch, so the counter never goes below -batch_steps even with
 *    every worker serving the same tenant concurrently
 *    (property-tested; the minimum observed is in SchedulerStats).
 *  - Workers pull one runnable session at a time, execute a bounded
 *    batch of monitor steps off its StsQueue (popBatch is the
 *    hand-off), re-enqueue the session if it still has work, and park
 *    on a condvar when the run queue is empty — no spinning, wakeups
 *    are counted.
 *  - Feeders collapse into a small ingestion pool: each feeder owns a
 *    static partition of the sessions (preserving the queues'
 *    single-producer invariant), pulls from sources only into
 *    available queue headroom (StsQueue::headroom + pushBatch, one
 *    wakeup per batch; a DropOldest queue pulls past it and evicts),
 *    and enforces the tenant STS/s quota (Throttle delays, Shed drops
 *    and counts). A round starts over at once only when some session
 *    pulled a whole chunk with room left; otherwise it ends in a wait:
 *    on its first full queue's free-space signal, a feeder_idle_ms nap
 *    for a throttled tenant, or, when every source was Pending or
 *    finished, a park on the feeder's Readiness, which live sources
 *    raise on ingest (SampleSource::watch).
 *  - The watchdog (the thread that called run()) keys hang detection
 *    off per-session progress sequence numbers, not thread liveness:
 *    a session is hung only when a worker has been inside one of its
 *    steps past the deadline with no sequence advance. A session that
 *    steps rarely because 1023 neighbors share its worker is slow,
 *    not hung. Failures restore from the tenant store's mirror,
 *    charge the tenant budget, and feed the tenant breaker; a breaker
 *    trip removes every session of the tenant from the run queue
 *    without touching neighbors. The watchdog also polls the model
 *    file for hot reload (SchedulerRunConfig::model_path).
 *
 * Verdicts are bit-identical to one serial Monitor pass per session:
 * each session's monitor consumes its own stream in order (Block
 * backpressure, Throttle pacing), so scheduling order changes
 * interleaving across sessions, never any session's history. Proven
 * by the chaos harness (tools/eddie_chaos).
 */

#ifndef EDDIE_SERVE_SCHEDULER_H
#define EDDIE_SERVE_SCHEDULER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint.h"
#include "core/metrics.h"
#include "core/model.h"
#include "core/monitor.h"
#include "sample_source.h"
#include "sts_queue.h"
#include "tenant.h"

namespace eddie::serve
{

/** Scheduler tuning. */
struct SchedulerConfig
{
    /** Worker threads the fleet multiplexes over; 0 = min(hardware
     *  threads, sessions). */
    std::size_t workers = 0;
    /** Ingestion threads; 0 = min(2, workers). */
    std::size_t feeders = 0;
    /** Max monitor steps one dispatch executes before the session
     *  goes back to the run queue (the preemption grain, and the
     *  deficit debt bound). */
    std::size_t batch_steps = 16;
    /** Deficit replenished per round for the largest-weight tenant;
     *  other tenants get a proportional share (min 1 step). */
    double quantum_steps = 32.0;
    /** Windows a feeder pulls per session visit (clamped to queue
     *  headroom under Block so the ingestion pool never blocks on one
     *  tenant's full queue). */
    std::size_t feed_chunk = 16;
    /** Feeder nap after a round over its partition made no progress
     *  because a queue was full or a tenant throttled (a full queue
     *  ends it early once it frees a slot). */
    double feeder_idle_ms = 0.5;
};

/** Counters of one scheduler run (surfaced next to ServeStats). */
struct SchedulerStats
{
    /** Resolved thread counts of the run. */
    std::size_t workers = 0;
    std::size_t feeders = 0;
    std::size_t sessions = 0;
    /** Batches dispatched to workers. */
    std::uint64_t dispatches = 0;
    /** Monitor steps executed across all dispatches. */
    std::uint64_t steps = 0;
    /** Dispatches that ended with the session still runnable (went
     *  back to the run queue). */
    std::uint64_t requeues = 0;
    /** Dispatches cut short by the batch_steps bound with windows
     *  still queued — the preemption count. */
    std::uint64_t preemptions = 0;
    /** Times a worker parked on the run-queue condvar. */
    std::uint64_t parks = 0;
    /** Worker wakeups that found nothing runnable. */
    std::uint64_t spurious_wakeups = 0;
    /** Feeder rounds that ended in a wait: a full-queue wait or nap
     *  (feeder_idle_ms), or a Readiness park. */
    std::uint64_t feeder_naps = 0;
    /** Session visits skipped because the tenant was over its STS/s
     *  quota (Throttle posture). */
    std::uint64_t throttle_skips = 0;
    /** Most negative tenant deficit observed, in steps. The DRR debt
     *  bound promises this never goes below -batch_steps. */
    double min_deficit_steps = 0.0;
    /** Summed worker busy time (dispatch execution, ms) — divide by
     *  workers x wall ms for utilization. */
    double busy_ms = 0.0;
    double wall_ms = 0.0;
};

/** One session handed to the scheduler. */
struct SchedulerSessionSpec
{
    Tenant *tenant = nullptr;
    SampleSource *source = nullptr;
    /** Tenant checkpoint store and this session's shard id in it. */
    CheckpointStore *store = nullptr;
    std::size_t store_shard = 0;
    StsQueueConfig queue;
    /** Tenant breaker already open at start (checkpoint rot): the
     *  session is born escalated, result = its recovered mirror. */
    bool born_escalated = false;
    /** recover() restored this session's mirror: seek + restore
     *  before the first dispatch. */
    bool recovered = false;
};

/** Run-wide knobs the scheduler shares with the supervisor. */
struct SchedulerRunConfig
{
    core::MonitorConfig monitor;
    SchedulerConfig sched;
    /** A session inside one step past this with no progress-sequence
     *  advance is hung. */
    double heartbeat_deadline_ms = 500.0;
    double poll_interval_ms = 2.0;
    /** Monitor steps between delta cuts (0 = mirrors only). */
    std::size_t checkpoint_interval = 64;
    /** Model file the watchdog polls for hot reload; empty disables.
     *  A reload swaps every session's model. */
    std::string model_path;
    double model_poll_ms = 200.0;
};

/** Final verdicts and accounting of one session. */
struct ShardResult
{
    std::vector<core::StepRecord> records;
    std::vector<core::AnomalyReport> reports;
    core::DegradedStats degraded;
    /** Monitor steps completed (== records.size()). */
    std::size_t steps = 0;
    /** The restart budget ran out or the tenant breaker tripped;
     *  records/reports are the state at the last successful
     *  checkpoint. */
    bool escalated = false;
    /** Graceful stop (requestStop / stop check) before EOF. */
    bool stopped = false;
};

/**
 * The event-driven fleet runtime. One-shot: construct, set hooks,
 * run(). The caller (Supervisor) owns tenants, sources and stores;
 * the scheduler owns queues, monitors and threads.
 */
class FleetScheduler
{
  public:
    using FleetStepHook =
        std::function<void(std::size_t session,
                           const std::string &tenant, std::size_t step,
                           const std::atomic<bool> &cancel)>;
    using StopCheck = std::function<bool()>;

    FleetScheduler(SchedulerRunConfig cfg,
                   std::vector<SchedulerSessionSpec> specs,
                   std::vector<Tenant *> tenants,
                   std::atomic<bool> &stop);
    ~FleetScheduler();

    void setFleetStepHook(FleetStepHook hook)
    {
        hook_ = std::move(hook);
    }
    void setStopCheck(StopCheck check)
    {
        stop_check_ = std::move(check);
    }

    /** Runs every session to completion (EOF, graceful stop, or
     *  escalation) and returns one result per session. The calling
     *  thread becomes the watchdog. Every source is detached from the
     *  feeders' Readiness before it returns. Not reentrant. */
    std::vector<ShardResult> run();

    /** Serve-layer counters of this run (crashes, hangs, restarts,
     *  reloads, queue/source accounting, stage timings).
     *  Thread-safe; valid during and after run(). */
    core::ServeStats serveStats() const;

    /** Scheduler-specific counters. Thread-safe. */
    SchedulerStats schedulerStats() const;

    /** The model the last hot reload installed; nullptr before any
     *  reload. Thread-safe. */
    std::shared_ptr<const core::TrainedModel> reloadedModel() const;

  private:
    struct Session;
    struct TenantLane;
    /** What one feeder round saw. */
    struct FeedRound
    {
        /** A session pulled a whole chunk with room to spare: its
         *  source may hold more, so start the next round at once. */
        bool more = false;
        /** A throttled tenant or a session mid-restart: nap, since no
         *  source will raise the Readiness. */
        bool blocked = false;
        /** First queue the round found full (Block backpressure). */
        std::shared_ptr<StsQueue> full;

        void noteFull(const std::shared_ptr<StsQueue> &q)
        {
            if (!full)
                full = q;
        }
    };

    void workerLoop();
    void feederLoop(std::size_t feeder);
    /** One feeder visit to one session. */
    void feedSession(Session &s, FeedRound &round);
    /** Executes one bounded batch; returns under no locks. */
    void dispatch(Session &s, std::vector<core::Sts> &batch,
                  double &busy_ms);
    /** Two-level pick; nullptr = nothing runnable. Caller holds mu_. */
    Session *pickLocked();
    /** Makes s runnable (Idle/Restarting -> Ready); waking a worker
     *  is the caller's choice. Caller holds mu_. */
    void enqueueLocked(Session &s);
    void cutDelta(Session &s);
    void handleFailure(Session &s, double now_ms);
    void escalateTenantLocked(Tenant &tenant);
    void finishSession(Session &s, int terminal_state);
    /** Watchdog: installs a changed, stable model file as the served
     *  model (sessions swap before their next step). */
    void maybeReloadModel(double now_ms);
    /** Moves @p s onto the served model from its live state; called
     *  by the worker that owns it, before its next step. */
    void swapModel(Session &s);
    /** Wakes every parked feeder (teardown, stop, restarts). */
    void raiseFeeders();
    /** Sets done_ and wakes every worker and feeder. */
    void wakeForTeardown();

    SchedulerRunConfig cfg_;
    std::vector<Tenant *> tenants_;
    FleetStepHook hook_;
    StopCheck stop_check_;
    std::atomic<bool> &stop_;
    /** Teardown flag for worker/feeder loops (set once run() ends or
     *  all sessions are terminal). */
    std::atomic<bool> done_{false};

    mutable std::mutex mu_; ///< run queue, lanes, session states
    std::condition_variable work_cv_;
    std::vector<std::unique_ptr<Session>> sessions_;
    std::vector<TenantLane> lanes_;          ///< index = tenant index
    std::deque<std::size_t> ring_;           ///< active lane indices
    std::vector<std::thread> workers_;
    std::vector<std::thread> feeders_;
    /** Resolved thread counts (worker pool; feeder partition
     *  stride). */
    std::size_t worker_count_ = 0;
    std::size_t feeder_count_ = 0;
    /** One per feeder; its partition's sources raise it. */
    std::vector<std::unique_ptr<Readiness>> readiness_;

    // Hot reload (watchdog-only except where noted).
    std::uint32_t model_crc_ = 0;
    double last_model_poll_ms_ = 0.0;
    /** Last reloaded model; guarded by mu_. */
    std::shared_ptr<const core::TrainedModel> served_model_;
    /** Bumped (under mu_) per reload; a session whose own generation
     *  lags swaps before its next step. */
    std::atomic<std::uint64_t> model_gen_{0};

    // Serve-layer counters.
    std::atomic<std::uint64_t> worker_crashes_{0};
    std::atomic<std::uint64_t> worker_hangs_{0};
    std::atomic<std::uint64_t> worker_restarts_{0};
    std::atomic<std::uint64_t> escalations_{0};
    std::atomic<std::uint64_t> checkpoints_written_{0};
    std::atomic<std::uint64_t> checkpoint_restores_{0};
    std::atomic<std::uint64_t> breaker_trips_{0};
    std::atomic<std::uint64_t> model_reloads_{0};
    std::atomic<double> restart_latency_ms_{0.0};
    std::atomic<double> queue_wait_ms_{0.0};
    std::atomic<double> step_ms_{0.0};
    std::atomic<double> checkpoint_ms_{0.0};

    // Scheduler counters.
    std::atomic<std::uint64_t> dispatches_{0};
    std::atomic<std::uint64_t> steps_{0};
    std::atomic<std::uint64_t> requeues_{0};
    std::atomic<std::uint64_t> preemptions_{0};
    std::atomic<std::uint64_t> parks_{0};
    std::atomic<std::uint64_t> spurious_wakeups_{0};
    std::atomic<std::uint64_t> feeder_naps_{0};
    std::atomic<std::uint64_t> throttle_skips_{0};
    /** Feeder visits that found a session's queue full (the face of
     *  Block backpressure here: the pull is deferred to a later round
     *  instead of parking a thread; folded into
     *  ServeStats::blocked_pushes). */
    std::atomic<std::uint64_t> feed_defers_{0};
    std::atomic<double> busy_ms_{0.0};
    double min_deficit_ = 0.0; ///< guarded by mu_
    double wall_ms_ = 0.0;     ///< written by run() before return
};

} // namespace eddie::serve

#endif // EDDIE_SERVE_SCHEDULER_H
