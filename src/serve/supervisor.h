/**
 * @file
 * Supervised streaming runtime (DESIGN.md §7). A Supervisor owns the
 * checkpoint stores of a run and serves every session on one
 * FleetScheduler (serve/scheduler.h), the only serving engine. Its
 * watchdog:
 *
 *  - tracks per-session progress sequence numbers and declares a
 *    hang when a step has held in_step past the deadline with no
 *    sequence advance;
 *  - restarts crashed / hung / source-dead sessions from their last
 *    checkpoint (re-seeking the source, so no window is skipped and
 *    verdicts stay bit-identical under the Block backpressure
 *    policy), charging a restarts-per-window budget;
 *  - escalates a session to degraded mode when the budget is
 *    exhausted (its last checkpointed verdicts become its final
 *    result);
 *  - hot-reloads the model when the model file's CRC changes (run()
 *    only): each session moves to the new model from its live state
 *    before its next step (no verdict loss, not charged to the
 *    budget).
 *
 * run(sources) serves one model: it registers one implicit tenant and
 * keeps the single-store checkpoint layout. runFleet(registry) serves
 * many tenants, each its own fault domain (DESIGN.md §9).
 *
 * Failure injection for tests goes through a cancel-aware StepHook:
 * throwing simulates a worker crash, blocking until the cancel flag
 * simulates a hang the watchdog must detect. Real recovery machinery,
 * simulated faults — the same split as faults/fault_injector.h.
 */

#ifndef EDDIE_SERVE_SUPERVISOR_H
#define EDDIE_SERVE_SUPERVISOR_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "checkpoint.h"
#include "core/errors.h"
#include "core/metrics.h"
#include "core/model.h"
#include "core/monitor.h"
#include "sample_source.h"
#include "scheduler.h"
#include "sts_queue.h"
#include "tenant.h"

namespace eddie::serve
{

/** Watchdog and restart policy. */
struct WatchdogConfig
{
    /** A session inside one monitor step for longer than this with no
     *  progress-sequence advance is hung. (Liveness is per-session
     *  progress, not per-thread heartbeat: a session that steps
     *  rarely because it shares a worker is slow, not hung.) */
    double heartbeat_deadline_ms = 500.0;
    /** Restarts allowed within restart_window_ms before a session
     *  escalates to degraded mode. run() charges every session to one
     *  budget (its implicit tenant's). */
    std::size_t restart_budget = 3;
    double restart_window_ms = 10000.0;
    /** Watchdog poll cadence. */
    double poll_interval_ms = 2.0;
};

/** A ServeConfig that contradicts itself or holds an impossible value;
 *  field() names the offending field. */
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

/** Everything the runtime needs beyond the model and the sources. */
struct ServeConfig
{
    core::MonitorConfig monitor;
    /** Per-session queue bound and policy. run() uses all of it; in
     *  runFleet the capacity and byte quota come from each tenant's
     *  quota. */
    StsQueueConfig queue;
    WatchdogConfig watchdog;
    /** Monitor steps between delta-checkpoint cuts (0 disables
     *  periodic checkpoints; the in-memory restart mirror is still
     *  kept). */
    std::size_t checkpoint_interval = 64;
    /** Group-snapshot file; the delta log lives at path + ".dlt".
     *  Empty = in-memory mirrors only (see serve/checkpoint.h). */
    std::string checkpoint_path;
    /** Resume from checkpoint_path when the file exists (v2 group
     *  snapshots, legacy v1 files, and legacy per-shard "path.i"
     *  files are all accepted). */
    bool resume = false;
    /** Group commits between full-snapshot rewrites (bounds the
     *  delta chain recovery has to replay). */
    std::size_t full_snapshot_every = 16;
    /** Keep snapshots and delta segments in one EDDIEARC container at
     *  checkpoint_path + ".arc" instead of the file pair; legacy
     *  files are still read when the archive is absent (see
     *  CheckpointStoreConfig::use_archive). */
    bool checkpoint_archive = false;
    /** The serving engine's tuning; scheduler.workers == 0 resolves
     *  to min(hardware threads, sessions). */
    SchedulerConfig scheduler;
    /** Model file watched for hot reload (run() only); empty disables
     *  watching. */
    std::string model_path;
    double model_poll_ms = 200.0;

    /** Throws ServeConfigError on the first rule the config breaks
     *  (both Supervisor constructors call it). */
    void validate() const;
};

/** One tenant's outcome of a fleet run. */
struct TenantResult
{
    std::string id;
    /** The tenant's circuit breaker tripped; all its sessions were
     *  isolated into degraded mode (escalated). */
    bool breaker_tripped = false;
    FaultClass breaker_cause = FaultClass::WorkerFault;
    std::uint64_t worker_faults = 0;
    std::uint64_t quarantine_storms = 0;
    std::uint64_t checkpoint_decode_failures = 0;
    /** Restarts charged to the tenant's budget. */
    std::size_t restarts_used = 0;
    bool budget_escalated = false;
    std::uint64_t windows_shed = 0;
    std::uint64_t windows_throttled = 0;
};

/** Everything a fleet run produced. */
struct FleetResult
{
    /** One per admitted session, indexed like
     *  TenantRegistry::sessions(). */
    std::vector<ShardResult> sessions;
    /** One per tenant, registration order. */
    std::vector<TenantResult> tenants;
    AdmissionStats admission;
};

class Supervisor
{
  public:
    /**
     * Test/bench hook invoked before every monitor step with the
     * session-local step ordinal. Throwing simulates a crash;
     * blocking until @p cancel becomes true simulates a hang (hooks
     * MUST honor cancel, or teardown joins would deadlock).
     */
    using StepHook = std::function<void(std::size_t step,
                                        const std::atomic<bool> &cancel)>;
    /**
     * Fleet-mode hook: like StepHook but also names the session and
     * tenant, so chaos/bench harnesses can target one tenant's
     * sessions while its neighbors run clean.
     */
    using FleetStepHook =
        std::function<void(std::size_t session,
                           const std::string &tenant, std::size_t step,
                           const std::atomic<bool> &cancel)>;
    /** Polled by the watchdog; returning true requests a graceful
     *  stop (signal handlers hook in here). */
    using StopCheck = std::function<bool()>;

    /** Throws ServeConfigError when cfg.validate() does. */
    Supervisor(std::shared_ptr<const core::TrainedModel> model,
               ServeConfig cfg);
    /** Fleet-mode constructor: models come from the tenants, so no
     *  process-wide model is held (run() then throws; use
     *  runFleet()), and model_path is refused. */
    explicit Supervisor(ServeConfig cfg);
    ~Supervisor();

    /**
     * Runs every source to completion (EOF, graceful stop, or
     * escalation) and returns one result per source. The sources are
     * the sessions of one implicit tenant: its queues and budget come
     * from the ServeConfig, and it has no rate quota and no breaker.
     * Checkpoints keep the single-store layout: the snapshot at
     * checkpoint_path with ".dlt" beside it, or checkpoint_path +
     * ".arc" with no key prefix. Sources must outlive the call and be
     * seekable for restart/resume to work. Not reentrant.
     */
    std::vector<ShardResult>
    run(const std::vector<SampleSource *> &sources);

    /**
     * Multi-tenant fleet run (DESIGN.md §9): one session per admitted
     * session in @p registry, each checkpointing into its tenant's
     * own store — a per-tenant key namespace of one shared EDDIEARC
     * container (checkpoint_archive) or a per-tenant file pair at
     * checkpoint_path + "." + id. Per-tenant fault domains:
     *
     *  - the RestartBudget is the tenant's (all its sessions draw
     *    from one pool; exhaustion escalates the failing session);
     *  - every restart-worthy fault also feeds the tenant's circuit
     *    breaker; a trip (repeated worker faults, a quarantine storm
     *    at/above the configured outage length, or a checkpoint
     *    decode failure during resume) escalates ALL the tenant's
     *    sessions at once, and neighbors are untouched;
     *  - feeders enforce the tenant's STS/s quota (Throttle delays
     *    preserve verdict bit-identity; Shed drops are counted).
     *
     * Sessions of healthy tenants finish with verdicts bit-identical
     * to a clean serial run of the same streams (Block policy).
     */
    FleetResult runFleet(TenantRegistry &registry);

    /** Requests a graceful stop: workers finish their current step,
     *  write a final checkpoint, and exit. Thread-safe. */
    void requestStop() { stop_.store(true); }

    void setStopCheck(StopCheck check) { stop_check_ = std::move(check); }
    void setStepHook(StepHook hook) { hook_ = std::move(hook); }
    void setFleetStepHook(FleetStepHook hook)
    {
        fleet_hook_ = std::move(hook);
    }

    /** Aggregated runtime counters: the scheduler's plus the
     *  checkpoint stores' and the registry's (valid during and after
     *  a run). */
    core::ServeStats stats() const;

    /** Engine of the current/last run; nullptr before the first. */
    const FleetScheduler *fleetScheduler() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return sched_.get();
    }

    /** Currently served model (changes after a hot reload). */
    std::shared_ptr<const core::TrainedModel> model() const;

  private:
    /** Runs @p registry's sessions on a fresh scheduler over stores_
     *  (index = Tenant::index()); @p recovered[t][k] flags tenant t's
     *  k-th session as restorable from its store's mirror. */
    std::vector<ShardResult>
    serve(TenantRegistry &registry,
          const std::vector<std::vector<bool>> &recovered);

    std::shared_ptr<const core::TrainedModel> model_;
    ServeConfig cfg_;
    StepHook hook_;
    FleetStepHook fleet_hook_;
    StopCheck stop_check_;
    std::atomic<bool> stop_{false};

    /** Guards the per-run state below against stats() readers. */
    mutable std::mutex mu_;
    /** One checkpoint store per tenant (run(): the one store). In
     *  fleet archive mode all of them key into fleet_archive_; only
     *  the watchdog flushes, so the shared container never sees
     *  interleaved stage/commit batches. */
    std::vector<std::unique_ptr<CheckpointStore>> stores_;
    std::unique_ptr<store::Archive> fleet_archive_;
    /** run()'s implicit tenant (outlives the scheduler's pointers). */
    std::unique_ptr<TenantRegistry> run_registry_;
    /** Registry of the current/last runFleet, for stats(); nullptr
     *  after a run(). */
    TenantRegistry *registry_ = nullptr;
    std::unique_ptr<FleetScheduler> sched_;
    /** Breakers tripped by checkpoint rot during resume, before the
     *  scheduler starts. */
    std::uint64_t recovery_trips_ = 0;
};

} // namespace eddie::serve

#endif // EDDIE_SERVE_SUPERVISOR_H
