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
 *  - Workers pick one runnable session at a time and run a bounded
 *    batch of rounds: pull one window from the session's SampleSource,
 *    charge the tenant's STS/s quota (Throttle holds the window and
 *    parks the session until the bucket refills, Shed drops it,
 *    counted), and step the monitor. The session goes back to the run
 *    queue while its source delivers, and parks Idle when the source
 *    answers Pending. One hop from source to monitor: there is no
 *    queue and no thread between them.
 *  - Wakeups. Each session is the Readiness its own source raises
 *    (SampleSource::watch); a raise makes a parked session Ready and
 *    wakes one worker, and a raise that lands while a worker owns the
 *    session is latched, so the park that follows its Pending pull
 *    requeues instead. Idle workers park on one condvar.
 *  - The watchdog (the thread that called run()) re-enqueues a
 *    throttled session when its wait is over, waking between polls if
 *    it comes due sooner (the parking worker moves the wake up), and
 *    a Pending one after kReadinessParkMs (so a silent source still
 *    reaches its own stall timeout). It keys hang detection off
 *    per-session progress sequence numbers, not thread liveness: a
 *    session is hung only when a worker has been inside one of its
 *    steps past the deadline with no sequence advance. A session that
 *    steps rarely because 1023 neighbors share its worker is slow,
 *    not hung. Failures restore from the tenant store's mirror,
 *    re-seek the source, charge the tenant budget, and feed the
 *    tenant breaker; a breaker trip removes every session of the
 *    tenant from the run queue without touching neighbors. The
 *    watchdog also polls each tenant's model file for hot reload
 *    (TenantSpec::model_path); a reload moves only that tenant's
 *    sessions.
 *
 * Lock order: a source raises while holding its own lock and the raise
 * takes mu_, so the engine never calls into a source while holding
 * mu_.
 *
 * Verdicts are bit-identical to one serial Monitor pass per session:
 * each session's monitor consumes its own stream in order (Throttle
 * delays, never reorders or drops), so scheduling order changes
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
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint.h"
#include "core/errors.h"
#include "core/metrics.h"
#include "core/model.h"
#include "core/monitor.h"
#include "sample_source.h"
#include "tenant.h"

namespace eddie::serve
{

/** Scheduler tuning. */
struct SchedulerConfig
{
    /** Worker threads the fleet multiplexes over; 0 = min(hardware
     *  threads, sessions). */
    std::size_t workers = 0;
    /** Max source pulls one dispatch runs before the session goes
     *  back to the run queue (the preemption grain, and the deficit
     *  debt bound). */
    std::size_t batch_steps = 16;
    /** Deficit replenished per round for the largest-weight tenant;
     *  other tenants get a proportional share (min 1 step). */
    double quantum_steps = 32.0;
};

/** Watchdog and restart policy. */
struct WatchdogConfig
{
    /** A session inside one monitor step for longer than this with no
     *  progress-sequence advance is hung. (Liveness is per-session
     *  progress, not per-thread heartbeat: a session that steps
     *  rarely because it shares a worker is slow, not hung.) */
    double heartbeat_deadline_ms = 500.0;
    /** Watchdog poll cadence. (Restart budgets are per tenant:
     *  TenantQuota.) */
    double poll_interval_ms = 2.0;
};

/** A ServeConfig (or WireListenerConfig) that contradicts itself or
 *  holds an impossible value; field() names the offending field. */
class ServeConfigError : public core::Error
{
  public:
    ServeConfigError(std::string field, const std::string &why)
        : core::Error("serve config: " + field + ": " + why),
          field_(std::move(field))
    {
    }
    const std::string &field() const { return field_; }

  private:
    std::string field_;
};

/** Everything the runtime needs beyond its tenants and sessions. */
struct ServeConfig
{
    core::MonitorConfig monitor;
    WatchdogConfig watchdog;
    /** Monitor steps between delta-checkpoint cuts (0 disables
     *  periodic checkpoints; the in-memory restart mirror is still
     *  kept). */
    std::size_t checkpoint_interval = 64;
    /** Checkpoints live in the EDDIEARC container at
     *  checkpointArchivePath(checkpoint_path), i.e. path + ".arc".
     *  Empty = in-memory mirrors only (see serve/checkpoint.h). */
    std::string checkpoint_path;
    /** Resume from the container at checkpoint_path when it holds a
     *  snapshot; a container the archive cannot open (FormatError)
     *  stops the run. Without resume such a file is moved aside to
     *  path + ".arc.damaged" and a new container started. */
    bool resume = false;
    /** Group commits between full-snapshot rewrites (bounds the
     *  delta chain recovery has to replay). */
    std::size_t full_snapshot_every = 16;
    /** No effect: the archive is the only checkpoint layout. Kept
     *  because the EDDIEBENCH serve_fleet workload still sets it;
     *  validate() still refuses it without a checkpoint_path. */
    bool checkpoint_archive = false;
    /** The serving engine's tuning; scheduler.workers == 0 resolves
     *  to min(hardware threads, sessions). */
    SchedulerConfig scheduler;
    /** How often the watchdog polls every watched model file
     *  (TenantSpec::model_path). */
    double model_poll_ms = 200.0;

    /** Throws ServeConfigError on the first rule the config breaks
     *  (the Supervisor constructor calls it). */
    void validate() const;
};

/** Counters of one scheduler run (surfaced next to ServeStats). */
struct SchedulerStats
{
    /** Resolved worker count of the run. */
    std::size_t workers = 0;
    std::size_t sessions = 0;
    /** Batches dispatched to workers. */
    std::uint64_t dispatches = 0;
    /** Monitor steps executed across all dispatches. */
    std::uint64_t steps = 0;
    /** Dispatches that ended with the session still runnable (went
     *  back to the run queue). */
    std::uint64_t requeues = 0;
    /** Dispatches cut short by the batch_steps bound while the source
     *  still delivered — the preemption count. */
    std::uint64_t preemptions = 0;
    /** Times a worker parked on the run-queue condvar. */
    std::uint64_t parks = 0;
    /** Worker wakeups that found nothing runnable. */
    std::uint64_t spurious_wakeups = 0;
    /** Always 0: the engine has no feeder threads. Kept because the
     *  EDDIEBENCH ledger still reads it. */
    std::uint64_t feeder_naps = 0;
    /** Dispatches that parked their session on the tenant's STS/s
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
    /** Tenant breaker already open at start (checkpoint rot): the
     *  session is born escalated, result = its recovered mirror. */
    bool born_escalated = false;
    /** recover() restored this session's mirror: seek + restore
     *  before the first dispatch. */
    bool recovered = false;
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
 * the scheduler owns monitors and threads.
 */
class FleetScheduler
{
  public:
    using FleetStepHook =
        std::function<void(std::size_t session,
                           const std::string &tenant, std::size_t step,
                           const std::atomic<bool> &cancel)>;
    using StopCheck = std::function<bool()>;

    FleetScheduler(ServeConfig cfg,
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
     *  thread becomes the watchdog. Every source is detached from its
     *  session before it returns. Not reentrant. */
    std::vector<ShardResult> run();

    /** Serve-layer counters of this run (crashes, hangs, restarts,
     *  reloads, source accounting, stage timings).
     *  Thread-safe; valid during and after run(). */
    core::ServeStats serveStats() const;

    /** Scheduler-specific counters. Thread-safe. */
    SchedulerStats schedulerStats() const;

    /** The model tenant @p tenant (its Tenant::index()) serves: its
     *  spec's model until a hot reload replaces it. Thread-safe. */
    std::shared_ptr<const core::TrainedModel>
    tenantModel(std::size_t tenant) const;

  private:
    struct Session;
    struct TenantLane;

    void workerLoop();
    /** Runs one bounded batch of pull-and-step rounds; returns under
     *  no locks. */
    void dispatch(Session &s, double &busy_ms);
    /** Two-level pick; nullptr = nothing runnable. Caller holds mu_. */
    Session *pickLocked();
    /** Makes s runnable (-> Ready); waking a worker is the caller's
     *  choice. Caller holds mu_. */
    void enqueueLocked(Session &s);
    /** A source raised @p s: a session parked on a Pending pull
     *  becomes Ready and one worker wakes; any other state latches
     *  the raise. */
    void raise(Session &s);
    /** Watchdog: re-enqueues parked sessions whose wait is over and
     *  records when the next one comes due. */
    void wakeDueSessions(double now_ms);
    /** Watchdog: sleeps one poll interval, waking parked sessions as
     *  they come due in between. */
    void waitForPoll();
    void cutDelta(Session &s);
    void handleFailure(Session &s, double now_ms);
    void escalateTenantLocked(Tenant &tenant);
    /** Watchdog: installs each watched tenant's changed, stable model
     *  file as that tenant's model (its sessions swap before their
     *  next step). */
    void pollModelFiles(double now_ms);
    /** Moves @p s onto its tenant's model from its live state; called
     *  by the worker that owns it, before its next step. */
    void swapModel(Session &s);
    /** Sets done_ and wakes every worker. */
    void wakeForTeardown();

    ServeConfig cfg_;
    std::vector<Tenant *> tenants_;
    FleetStepHook hook_;
    StopCheck stop_check_;
    std::atomic<bool> &stop_;
    /** Teardown flag for the worker loops (set once run() ends). */
    std::atomic<bool> done_{false};

    mutable std::mutex mu_; ///< run queue, lanes, session states
    std::condition_variable work_cv_;
    /** Wakes the watchdog early for a session due before its wake. */
    std::condition_variable watchdog_cv_;
    /** Earliest due time of a parked session (guarded by mu_); a
     *  parking worker lowers it, wakeDueSessions() recomputes it. */
    double earliest_due_ms_ = std::numeric_limits<double>::infinity();
    /** When the watchdog's current wait ends (guarded by mu_). */
    double watchdog_wake_ms_ = 0.0;
    std::vector<std::unique_ptr<Session>> sessions_;
    std::vector<TenantLane> lanes_;          ///< index = tenant index
    std::deque<std::size_t> ring_;           ///< active lane indices
    std::vector<std::thread> workers_;
    /** Resolved worker pool size. */
    std::size_t worker_count_ = 0;

    /** When the watchdog last polled the watched model files. */
    double last_model_poll_ms_ = 0.0;

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
    std::atomic<double> pull_ms_{0.0};
    std::atomic<double> step_ms_{0.0};
    std::atomic<double> checkpoint_ms_{0.0};

    // Scheduler counters.
    std::atomic<std::uint64_t> dispatches_{0};
    std::atomic<std::uint64_t> steps_{0};
    std::atomic<std::uint64_t> requeues_{0};
    std::atomic<std::uint64_t> preemptions_{0};
    std::atomic<std::uint64_t> parks_{0};
    std::atomic<std::uint64_t> spurious_wakeups_{0};
    std::atomic<std::uint64_t> throttle_skips_{0};
    std::atomic<double> busy_ms_{0.0};
    double min_deficit_ = 0.0; ///< guarded by mu_
    double wall_ms_ = 0.0;     ///< written by run() before return
};

} // namespace eddie::serve

#endif // EDDIE_SERVE_SCHEDULER_H
