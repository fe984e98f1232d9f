/**
 * @file
 * Multi-tenant session layer of the fleet runtime (DESIGN.md §9).
 *
 * A *tenant* is one monitored device class: its own trained model,
 * its own checkpoint key namespace, its own quotas, and — the point
 * of this layer — its own fault domain. A *session* is one STS
 * stream of a tenant. The pieces:
 *
 *  - TenantRegistry: tenant id → model + quota + runtime state, plus
 *    the session table. Session opening goes through admission.
 *  - Admission: fleet-wide and per-tenant session caps and queue-byte
 *    quotas, enforced at open; per-window rate quotas (STS/s token
 *    bucket) enforced by the feeders. Every rejection is a counted
 *    ShedReason, never unbounded growth.
 *  - CircuitBreaker: per-tenant fault accounting. Repeated worker
 *    faults, quality-gate quarantine storms, or checkpoint decode
 *    failures trip the breaker; a tripped tenant's sessions are
 *    escalated into degraded mode while neighbors keep running. The
 *    RestartBudget is per-tenant in fleet mode, so one tenant's
 *    crash loop cannot drain a shared budget.
 *
 * Everything here is pure state over injected timestamps (no threads,
 * no clocks), so policies are unit-testable and the chaos harness can
 * replay schedules deterministically.
 */

#ifndef EDDIE_SERVE_TENANT_H
#define EDDIE_SERVE_TENANT_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/model.h"
#include "sample_source.h"
#include "sts_queue.h"

namespace eddie::serve
{

/**
 * Sliding-window restart budget, factored out of the supervisor so
 * the escalation policy is unit-testable with synthetic clocks: pure
 * state over injected timestamps, no threads. One per tenant: all of
 * a tenant's sessions draw from it (run()'s sessions share the budget
 * of its implicit tenant).
 */
class RestartBudget
{
  public:
    RestartBudget(std::size_t budget, double window_ms);

    /**
     * Asks to spend one restart at time @p now_ms. Records it and
     * returns true while fewer than `budget` restarts happened in the
     * trailing window; otherwise flips to escalated (permanently) and
     * returns false.
     */
    bool allow(double now_ms);

    bool escalated() const { return escalated_; }

    /** Restarts still inside the trailing window at @p now_ms. */
    std::size_t used(double now_ms) const;

  private:
    std::size_t budget_;
    double window_ms_;
    mutable std::deque<double> times_;
    bool escalated_ = false;
};

/**
 * Deterministic token bucket over injected timestamps. rate_per_s ==
 * 0 means unlimited (every take succeeds, deficit always 0).
 */
class TokenBucket
{
  public:
    TokenBucket(double rate_per_s, double burst);

    /** Takes @p n tokens at @p now_ms if available. */
    bool tryTake(double now_ms, double n = 1.0);

    /** Milliseconds until @p n tokens will be available at the
     *  configured refill rate (0 when available now). */
    double deficitMs(double now_ms, double n = 1.0) const;

  private:
    void refill(double now_ms) const;

    double rate_per_s_;
    double burst_;
    mutable double tokens_;
    mutable double last_ms_ = 0.0;
};

/** What a session over its STS/s quota does with the excess. */
enum class RatePolicy
{
    /** Feeder sleeps until the bucket refills: nothing is lost, the
     *  tenant slows to its quota, verdicts stay bit-identical. */
    Throttle,
    /** The window is dropped and counted: best-effort posture. */
    Shed,
};

/** Per-tenant resource quotas. 0 = unlimited where noted. */
struct TenantQuota
{
    /** Concurrent sessions this tenant may hold open (0 = no cap). */
    std::size_t max_sessions = 0;
    /** Window capacity of each session's StsQueue. */
    std::size_t queue_capacity = 64;
    /** Byte quota of each session's StsQueue (0 = unbounded). */
    std::size_t queue_max_bytes = 0;
    /** STS windows per second across the tenant's sessions (token
     *  bucket; 0 = unlimited). */
    double sts_per_s = 0.0;
    /** Bucket burst, windows. */
    double burst = 32.0;
    RatePolicy rate_policy = RatePolicy::Throttle;
    /** Per-tenant restart budget: all of a tenant's sessions draw
     *  from one pool. */
    std::size_t restart_budget = 3;
    double restart_window_ms = 10000.0;
};

/** Fault classes the per-tenant circuit breaker accounts. */
enum class FaultClass
{
    /** Worker crash, hang, or dead source needing a restart. */
    WorkerFault,
    /** Quality-gate quarantine storm: an outage run at/above the
     *  configured length (the stream itself is rotten, restarts
     *  cannot help). */
    QuarantineStorm,
    /** A tenant checkpoint failed to decode during recovery. */
    CheckpointDecode,
};

/** Breaker tuning. A threshold of 0 disables that trip condition. */
struct BreakerConfig
{
    /** WorkerFaults inside window_ms that trip the breaker. */
    std::size_t fault_threshold = 4;
    double window_ms = 10000.0;
    /** Quarantined-windows run length that counts as a storm. */
    std::size_t storm_outage_windows = 8;
    /** CheckpointDecode events that trip the breaker. */
    std::size_t decode_failure_threshold = 1;
};

/**
 * Per-tenant circuit breaker. Two states:
 *
 *   Closed  --(threshold crossed)-->  Tripped   (latched)
 *
 * Tripped is terminal for the run: the tenant is escalated to
 * degraded mode and its sessions stop consuming restarts. There is no
 * half-open probe state — re-admission is an operator decision (a
 * fresh run), not something the runtime guesses at.
 */
class CircuitBreaker
{
  public:
    explicit CircuitBreaker(BreakerConfig cfg);

    /**
     * Records one fault of class @p cls at @p now_ms and returns true
     * when this record (or an earlier one) tripped the breaker.
     */
    bool record(FaultClass cls, double now_ms);

    bool tripped() const { return tripped_; }
    /** Class that tripped it (meaningless while Closed). */
    FaultClass cause() const { return cause_; }
    /** Events recorded per class, lifetime. */
    std::uint64_t count(FaultClass cls) const;

  private:
    BreakerConfig cfg_;
    std::deque<double> fault_times_;
    std::uint64_t counts_[3] = {0, 0, 0};
    bool tripped_ = false;
    FaultClass cause_ = FaultClass::WorkerFault;
};

/** Why an open or a window was refused. */
enum class ShedReason
{
    FleetSessionLimit,
    TenantSessionLimit,
    UnknownTenant,
    BreakerOpen,
    RateShed,
};

/** Fleet-wide admission limits. 0 = unlimited. */
struct AdmissionConfig
{
    /** Total concurrent sessions across all tenants. */
    std::size_t max_sessions = 0;
};

/** Admission/shedding counters; every refusal lands here. */
struct AdmissionStats
{
    std::uint64_t sessions_admitted = 0;
    std::uint64_t rejected_fleet_limit = 0;
    std::uint64_t rejected_tenant_limit = 0;
    std::uint64_t rejected_unknown_tenant = 0;
    std::uint64_t rejected_breaker_open = 0;
    /** Windows dropped by RatePolicy::Shed. */
    std::uint64_t windows_shed = 0;
    /** Feeder sleeps taken by RatePolicy::Throttle. */
    std::uint64_t windows_throttled = 0;
};

/** Static description of one tenant. */
struct TenantSpec
{
    std::string id;
    std::shared_ptr<const core::TrainedModel> model;
    TenantQuota quota;
    BreakerConfig breaker;
};

/** Feeder-side verdict on one window against the rate quota. */
enum class RateDecision
{
    Admit,
    /** Sleep wait_ms, then the window is admitted (token charged). */
    Throttle,
    Shed,
};

/**
 * One tenant's runtime state. Created by TenantRegistry::addTenant;
 * address-stable for the registry's lifetime. The token bucket is
 * shared across the tenant's feeder threads (locked internally);
 * budget and breaker are only touched by the supervisor's watchdog
 * thread.
 */
class Tenant
{
  public:
    Tenant(TenantSpec spec, std::size_t index);

    const TenantSpec &spec() const { return spec_; }
    const std::string &id() const { return spec_.id; }
    /** Registration ordinal (stable, used for fate-stream keys). */
    std::size_t index() const { return index_; }

    RestartBudget &budget() { return budget_; }
    CircuitBreaker &breaker() { return breaker_; }

    /**
     * Rate-admits one window at @p now_ms. Thread-safe (feeders of
     * the same tenant race here). Throttle charges nothing yet: the
     * caller sleeps ~wait_ms and calls again.
     */
    RateDecision admitWindow(double now_ms, double &wait_ms);

    std::uint64_t windowsShed() const { return shed_.load(); }
    std::uint64_t windowsThrottled() const { return throttled_.load(); }
    std::size_t openSessions() const { return open_sessions_; }

  private:
    friend class TenantRegistry;

    TenantSpec spec_;
    std::size_t index_;
    RestartBudget budget_;
    CircuitBreaker breaker_;
    std::mutex bucket_mu_;
    TokenBucket bucket_;
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> throttled_{0};
    std::size_t open_sessions_ = 0;
};

/** One admitted session: a tenant plus its STS stream. */
struct TenantSession
{
    Tenant *tenant = nullptr;
    SampleSource *source = nullptr;
    /** Ordinal among the tenant's sessions (checkpoint shard id
     *  within the tenant's namespace). */
    std::size_t ordinal = 0;
};

/**
 * Tenant table + session admission. Not thread-safe: registration
 * and session opening happen before (or between) runs; the supervisor
 * reads it read-only while running.
 */
class TenantRegistry
{
  public:
    explicit TenantRegistry(AdmissionConfig cfg = {});

    /** Registers a tenant; throws std::invalid_argument on a
     *  duplicate or empty id, or one containing '/' (the id names the
     *  tenant's checkpoint key prefix). The reference stays valid for
     *  the registry's lifetime. */
    Tenant &addTenant(TenantSpec spec);

    Tenant *find(const std::string &id);
    const Tenant *find(const std::string &id) const;

    struct OpenResult
    {
        bool admitted = false;
        ShedReason reason = ShedReason::UnknownTenant;
        /** Index into sessions() when admitted. */
        std::size_t session = 0;
    };

    /**
     * Admits one session of @p tenant_id over @p source, enforcing
     * the fleet session cap, the tenant session cap, and the tenant's
     * breaker state. Refusals are counted in admissionStats().
     * @p source must outlive the registry's use.
     */
    OpenResult openSession(const std::string &tenant_id,
                           SampleSource *source);

    const std::vector<TenantSession> &sessions() const
    {
        return sessions_;
    }
    /** Tenants in registration order. */
    const std::vector<Tenant *> &tenants() const { return order_; }

    AdmissionStats admissionStats() const;
    /** Counts a rate-shed/throttle into the registry's totals (the
     *  supervisor folds tenant counters in at run end). */
    void noteRateCounters(std::uint64_t shed, std::uint64_t throttled);

  private:
    AdmissionConfig cfg_;
    std::map<std::string, std::unique_ptr<Tenant>> tenants_;
    std::vector<Tenant *> order_;
    std::vector<TenantSession> sessions_;
    AdmissionStats stats_;
};

/** Human-readable names (logs, chaos reports). */
const char *name(FaultClass cls);
const char *name(ShedReason reason);

} // namespace eddie::serve

#endif // EDDIE_SERVE_TENANT_H
