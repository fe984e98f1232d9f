#include "supervisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

namespace eddie::serve
{

namespace
{

/** Steady-clock milliseconds (monotonic; only differences matter). */
double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Opens the run's checkpoint container. A resume needs the file as it
 * is, so damage the archive refuses to open past (FormatError: not an
 * archive, or mid-file damage) stops it. A fresh run reads nothing
 * from the file: a damaged one is moved aside to path + ".damaged",
 * kept for inspection rather than deleted, and the run starts a new
 * container.
 */
std::unique_ptr<store::Archive>
openCheckpointArchive(const std::string &path, bool resume)
{
    store::ArchiveConfig cfg;
    cfg.path = path;
    try {
        return std::make_unique<store::Archive>(cfg);
    } catch (const core::FormatError &) {
        if (resume)
            throw;
    }
    const std::string aside = path + ".damaged";
    if (std::rename(path.c_str(), aside.c_str()) != 0)
        throw core::ioErrorErrno("checkpoint: move aside", path);
    return std::make_unique<store::Archive>(cfg);
}

/** A duration knob must be a finite, non-negative millisecond count. */
void
checkTime(double ms, const char *field)
{
    if (!std::isfinite(ms) || ms < 0.0)
        throw ServeConfigError(field, "must be finite and >= 0");
}

} // namespace

void
ServeConfig::validate() const
{
    checkTime(watchdog.heartbeat_deadline_ms,
              "watchdog.heartbeat_deadline_ms");
    checkTime(watchdog.restart_window_ms, "watchdog.restart_window_ms");
    checkTime(watchdog.poll_interval_ms, "watchdog.poll_interval_ms");
    checkTime(model_poll_ms, "model_poll_ms");
    checkTime(scheduler.feeder_idle_ms, "scheduler.feeder_idle_ms");
    if (watchdog.heartbeat_deadline_ms <= watchdog.poll_interval_ms)
        throw ServeConfigError("watchdog.heartbeat_deadline_ms",
                               "must exceed watchdog.poll_interval_ms");
    if (checkpoint_archive && checkpoint_path.empty())
        throw ServeConfigError("checkpoint_archive",
                               "needs checkpoint_path");
    if (resume && checkpoint_path.empty())
        throw ServeConfigError("resume", "needs checkpoint_path");
    if (full_snapshot_every == 0)
        throw ServeConfigError("full_snapshot_every", "must be >= 1");
    if (queue.capacity == 0)
        throw ServeConfigError("queue.capacity", "must be >= 1");
    if (scheduler.batch_steps == 0)
        throw ServeConfigError("scheduler.batch_steps", "must be >= 1");
}

Supervisor::Supervisor(std::shared_ptr<const core::TrainedModel> model,
                       ServeConfig cfg)
    : model_(std::move(model)), cfg_(std::move(cfg))
{
    cfg_.validate();
    if (!model_)
        throw core::Error("supervisor: null model");
}

Supervisor::Supervisor(ServeConfig cfg) : cfg_(std::move(cfg))
{
    cfg_.validate();
    if (!cfg_.model_path.empty())
        throw ServeConfigError("model_path",
                               "hot reload belongs to run(); fleet "
                               "tenants bring their own models");
}

Supervisor::~Supervisor() = default;

std::shared_ptr<const core::TrainedModel>
Supervisor::model() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (sched_)
        if (auto reloaded = sched_->reloadedModel())
            return reloaded;
    return model_;
}

std::vector<ShardResult>
Supervisor::run(const std::vector<SampleSource *> &sources)
{
    if (!model_)
        throw core::Error(
            "supervisor: run() on a fleet-mode supervisor");
    // The implicit tenant: the ServeConfig's queue and budget, no rate
    // quota, and every breaker threshold 0 (no breaker).
    TenantSpec spec;
    spec.id = kRunTenant;
    spec.model = model();
    spec.quota.queue_capacity = cfg_.queue.capacity;
    spec.quota.queue_max_bytes = cfg_.queue.max_bytes;
    spec.quota.restart_budget = cfg_.watchdog.restart_budget;
    spec.quota.restart_window_ms = cfg_.watchdog.restart_window_ms;
    spec.breaker.fault_threshold = 0;
    spec.breaker.storm_outage_windows = 0;
    spec.breaker.decode_failure_threshold = 0;
    auto reg = std::make_unique<TenantRegistry>();
    reg->addTenant(std::move(spec));
    for (SampleSource *source : sources)
        reg->openSession(kRunTenant, source);

    const auto recovered = openStores(*reg);
    {
        std::lock_guard<std::mutex> lock(mu_);
        registry_ = nullptr;
        run_registry_ = std::move(reg);
    }
    return serve(*run_registry_, recovered);
}

std::vector<std::vector<bool>>
Supervisor::openStores(TenantRegistry &registry)
{
    const auto &tenants = registry.tenants();
    const double t0 = nowMs();

    // One checkpoint store per tenant — THE per-tenant fault domain:
    // every store keys into one shared container under its tenant's
    // prefix.
    std::unique_ptr<store::Archive> archive;
    if (!cfg_.checkpoint_path.empty())
        archive = openCheckpointArchive(
            checkpointArchivePath(cfg_.checkpoint_path), cfg_.resume);
    std::vector<std::size_t> tenant_sessions(tenants.size(), 0);
    for (const auto &session : registry.sessions())
        ++tenant_sessions[session.tenant->index()];
    std::vector<std::unique_ptr<CheckpointStore>> stores;
    for (Tenant *tenant : tenants) {
        CheckpointStoreConfig sc;
        sc.num_shards =
            std::max<std::size_t>(tenant_sessions[tenant->index()], 1);
        sc.full_every = cfg_.full_snapshot_every;
        sc.key_prefix = tenantKeyPrefix(tenant->id());
        sc.archive = archive.get();
        stores.push_back(std::make_unique<CheckpointStore>(sc));
    }

    // Per-tenant recovery. A snapshot that exists but fails to decode
    // is checkpoint rot: it feeds the tenant's breaker (default
    // threshold 1 → the tenant is isolated before it serves a single
    // window off a corrupt base), while its neighbors resume cleanly.
    std::vector<std::vector<bool>> recovered(tenants.size());
    std::uint64_t trips = 0;
    std::uint64_t torn_tails = 0;
    if (cfg_.resume) {
        // The archive dropped a torn tail at open, before any store
        // could see it: the resume falls back to the cut before it.
        if (archive)
            torn_tails = archive->stats().torn_tail_dropped;
        for (Tenant *tenant : tenants) {
            CheckpointStore &store = *stores[tenant->index()];
            recovered[tenant->index()] = store.recover();
            const bool was_tripped = tenant->breaker().tripped();
            const std::uint64_t failures =
                store.stats().snapshot_decode_failures;
            for (std::uint64_t i = 0; i < failures; ++i)
                if (tenant->breaker().record(
                        FaultClass::CheckpointDecode, t0))
                    break;
            if (!was_tripped && tenant->breaker().tripped())
                ++trips;
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    stores_ = std::move(stores);
    archive_ = std::move(archive);
    recovery_trips_ = trips;
    torn_tail_fallbacks_ = torn_tails;
    return recovered;
}

FleetResult
Supervisor::runFleet(TenantRegistry &registry)
{
    const auto recovered = openStores(registry);
    {
        std::lock_guard<std::mutex> lock(mu_);
        registry_ = &registry;
        run_registry_.reset();
    }

    FleetResult fleet;
    fleet.sessions = serve(registry, recovered);
    const double now = nowMs();
    for (Tenant *tenant : registry.tenants()) {
        TenantResult tr;
        tr.id = tenant->id();
        const CircuitBreaker &breaker = tenant->breaker();
        tr.breaker_tripped = breaker.tripped();
        tr.breaker_cause = breaker.cause();
        tr.worker_faults = breaker.count(FaultClass::WorkerFault);
        tr.quarantine_storms =
            breaker.count(FaultClass::QuarantineStorm);
        tr.checkpoint_decode_failures =
            breaker.count(FaultClass::CheckpointDecode);
        tr.restarts_used = tenant->budget().used(now);
        tr.budget_escalated = tenant->budget().escalated();
        tr.windows_shed = tenant->windowsShed();
        tr.windows_throttled = tenant->windowsThrottled();
        registry.noteRateCounters(tr.windows_shed,
                                  tr.windows_throttled);
        fleet.tenants.push_back(std::move(tr));
    }
    fleet.admission = registry.admissionStats();
    return fleet;
}

std::vector<ShardResult>
Supervisor::serve(TenantRegistry &registry,
                  const std::vector<std::vector<bool>> &recovered)
{
    stop_.store(false);
    std::vector<SchedulerSessionSpec> specs;
    specs.reserve(registry.sessions().size());
    for (const TenantSession &session : registry.sessions()) {
        const std::size_t t = session.tenant->index();
        SchedulerSessionSpec spec;
        spec.tenant = session.tenant;
        spec.source = session.source;
        spec.store = stores_[t].get();
        spec.store_shard = session.ordinal;
        spec.queue = cfg_.queue;
        const TenantQuota &quota = session.tenant->spec().quota;
        spec.queue.capacity =
            std::max<std::size_t>(quota.queue_capacity, 1);
        spec.queue.max_bytes = quota.queue_max_bytes;
        spec.born_escalated = session.tenant->breaker().tripped();
        spec.recovered = session.ordinal < recovered[t].size() &&
                         recovered[t][session.ordinal];
        specs.push_back(std::move(spec));
    }
    SchedulerRunConfig rc;
    rc.monitor = cfg_.monitor;
    rc.sched = cfg_.scheduler;
    rc.heartbeat_deadline_ms = cfg_.watchdog.heartbeat_deadline_ms;
    rc.poll_interval_ms = cfg_.watchdog.poll_interval_ms;
    rc.checkpoint_interval = cfg_.checkpoint_interval;
    rc.model_path = cfg_.model_path;
    rc.model_poll_ms = cfg_.model_poll_ms;
    auto sched = std::make_unique<FleetScheduler>(
        std::move(rc), std::move(specs), registry.tenants(), stop_);
    sched->setStopCheck(stop_check_);
    sched->setFleetStepHook([this](std::size_t session,
                                   const std::string &tenant,
                                   std::size_t step,
                                   const std::atomic<bool> &cancel) {
        if (hook_)
            hook_(step, cancel);
        if (fleet_hook_)
            fleet_hook_(session, tenant, step, cancel);
    });
    FleetScheduler *engine = sched.get();
    {
        std::lock_guard<std::mutex> lock(mu_);
        sched_ = std::move(sched);
    }
    return engine->run();
}

core::ServeStats
Supervisor::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    core::ServeStats st;
    if (sched_)
        st = sched_->serveStats();
    for (const auto &store : stores_) {
        const CheckpointStoreStats cs = store->stats();
        st.group_commits += cs.group_commits;
        st.full_snapshots += cs.full_snapshots;
        st.delta_bytes += cs.delta_bytes;
        st.delta_fallbacks += cs.delta_fallbacks;
        st.delta_segments_dropped += cs.delta_segments_dropped;
        st.snapshot_decode_failures += cs.snapshot_decode_failures;
    }
    st.delta_fallbacks += torn_tail_fallbacks_;
    st.breaker_trips += recovery_trips_;
    if (registry_ != nullptr) {
        st.tenants = registry_->tenants().size();
        st.sessions = registry_->sessions().size();
        const AdmissionStats adm = registry_->admissionStats();
        st.sessions_rejected = adm.rejected_fleet_limit +
            adm.rejected_tenant_limit + adm.rejected_unknown_tenant +
            adm.rejected_breaker_open;
        for (const Tenant *tenant : registry_->tenants()) {
            st.windows_shed += tenant->windowsShed();
            st.windows_throttled += tenant->windowsThrottled();
        }
    }
    return st;
}

} // namespace eddie::serve
