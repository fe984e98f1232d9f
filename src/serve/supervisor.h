/**
 * @file
 * Supervised streaming runtime (DESIGN.md §7). A Supervisor serves the
 * sessions of a TenantRegistry through one entry point, runFleet(),
 * on one FleetScheduler (serve/scheduler.h), the only serving engine.
 * It owns the run's checkpoint stores. Its watchdog:
 *
 *  - tracks per-session progress sequence numbers and declares a
 *    hang when a step has held in_step past the deadline with no
 *    sequence advance;
 *  - restarts crashed / hung / source-dead sessions from their last
 *    checkpoint (re-seeking the source, so no window is skipped and
 *    verdicts stay bit-identical), charging the tenant's
 *    restarts-per-window budget (TenantQuota);
 *  - escalates a session to degraded mode when the budget is
 *    exhausted (its last checkpointed verdicts become its final
 *    result);
 *  - hot-reloads a tenant's model when the CRC of its
 *    TenantSpec::model_path changes: each of that tenant's sessions
 *    moves to the new model from its live state before its next step
 *    (no verdict loss, not charged to the budget); other tenants keep
 *    theirs.
 *
 * Each tenant is its own fault domain (DESIGN.md §9). All of them
 * checkpoint into one EDDIEARC container, one key prefix per tenant
 * (serve/checkpoint.h). A single stream is a one-tenant fleet.
 *
 * Failure injection for tests goes through a cancel-aware
 * FleetStepHook: throwing simulates a worker crash, blocking until
 * the cancel flag simulates a hang the watchdog must detect. Real
 * recovery machinery, simulated faults — the same split as
 * faults/fault_injector.h.
 */

#ifndef EDDIE_SERVE_SUPERVISOR_H
#define EDDIE_SERVE_SUPERVISOR_H

#include <atomic>
#include <cstdint>
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
#include "tenant.h"

namespace eddie::serve
{

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
    /** The model the tenant ended on: its spec's, or the last hot
     *  reload of its model_path. */
    std::shared_ptr<const core::TrainedModel> model;
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
     * session index (into TenantRegistry::sessions()), its tenant's
     * id and the session-local step ordinal, so harnesses can target
     * one tenant's sessions while its neighbors run clean. Throwing
     * simulates a crash; blocking until the cancel flag becomes true
     * simulates a hang (hooks MUST honor cancel, or teardown joins
     * would deadlock).
     */
    using FleetStepHook = FleetScheduler::FleetStepHook;
    /** Polled by the watchdog; returning true requests a graceful
     *  stop (signal handlers hook in here). */
    using StopCheck = FleetScheduler::StopCheck;

    /** Throws ServeConfigError when cfg.validate() does. */
    explicit Supervisor(ServeConfig cfg);
    ~Supervisor();

    /**
     * Runs every admitted session of @p registry to completion (EOF,
     * graceful stop, or escalation), each checkpointing into its
     * tenant's own store — a per-tenant key namespace of one shared
     * EDDIEARC container. Throws core::Error, before any store is
     * opened, when a session's tenant has no model. Sources must
     * outlive the call and be seekable for restart/resume to work;
     * @p registry must outlive stats() calls. Not reentrant.
     * Per-tenant fault domains (DESIGN.md §9):
     *
     *  - the RestartBudget is the tenant's (all its sessions draw
     *    from one pool; exhaustion escalates the failing session);
     *  - every restart-worthy fault also feeds the tenant's circuit
     *    breaker; a trip (repeated worker faults, a quarantine storm
     *    at/above the configured outage length, or a checkpoint
     *    decode failure during resume) escalates ALL the tenant's
     *    sessions at once, and neighbors are untouched;
     *  - workers enforce the tenant's STS/s quota at the pull
     *    (Throttle delays preserve verdict bit-identity; Shed drops
     *    are counted).
     *
     * Sessions of healthy tenants finish with verdicts bit-identical
     * to a clean serial run of the same streams.
     */
    FleetResult runFleet(TenantRegistry &registry);

    /** Requests a graceful stop: workers finish their current step,
     *  write a final checkpoint, and exit. Thread-safe. */
    void requestStop() { stop_.store(true); }

    void setStopCheck(StopCheck check) { stop_check_ = std::move(check); }
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

  private:
    /** Opens the checkpoint container and one store per tenant of
     *  @p registry into stores_ (index = Tenant::index()); on resume
     *  recovers each, feeding snapshot rot to the tenant's breaker.
     *  Returns the per-tenant, per-session recovered flags. */
    std::vector<std::vector<bool>>
    openStores(TenantRegistry &registry);

    /** Runs @p registry's sessions on a fresh scheduler over stores_
     *  (index = Tenant::index()); @p recovered[t][k] flags tenant t's
     *  k-th session as restorable from its store's mirror. */
    std::vector<ShardResult>
    serve(TenantRegistry &registry,
          const std::vector<std::vector<bool>> &recovered);

    ServeConfig cfg_;
    FleetStepHook fleet_hook_;
    StopCheck stop_check_;
    std::atomic<bool> stop_{false};

    /** Guards the per-run state below against stats() readers. */
    mutable std::mutex mu_;
    /** The run's checkpoint container; nullptr without a
     *  checkpoint_path. */
    std::unique_ptr<store::Archive> archive_;
    /** One checkpoint store per tenant, all keyed into archive_; only
     *  the watchdog flushes, so the shared container never sees
     *  interleaved stage/commit batches. */
    std::vector<std::unique_ptr<CheckpointStore>> stores_;
    /** Registry of the current/last runFleet, for stats(). */
    TenantRegistry *registry_ = nullptr;
    std::unique_ptr<FleetScheduler> sched_;
    /** Breakers tripped by checkpoint rot during resume, before the
     *  scheduler starts. */
    std::uint64_t recovery_trips_ = 0;
    /** Torn archive tails a resume fell back past (counted into
     *  ServeStats::delta_fallbacks). */
    std::uint64_t torn_tail_fallbacks_ = 0;
};

} // namespace eddie::serve

#endif // EDDIE_SERVE_SUPERVISOR_H
