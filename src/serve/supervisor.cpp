#include "supervisor.h"

#include <algorithm>
#include <chrono>
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
    try {
        return std::make_unique<store::Archive>(path);
    } catch (const core::FormatError &) {
        if (resume)
            throw;
    }
    const std::string aside = path + ".damaged";
    if (std::rename(path.c_str(), aside.c_str()) != 0)
        throw core::ioErrorErrno("checkpoint: move aside", path);
    return std::make_unique<store::Archive>(path);
}

} // namespace

Supervisor::Supervisor(ServeConfig cfg) : cfg_(std::move(cfg))
{
    cfg_.validate();
}

Supervisor::~Supervisor() = default;

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
    // A tenant with no sessions may lack a model (a listener's tenant
    // before any device connects); a session needs one.
    for (const TenantSession &session : registry.sessions())
        if (!session.tenant->spec().model)
            throw core::Error("supervisor: tenant " +
                              session.tenant->id() +
                              " has a session but no model");
    const auto recovered = openStores(registry);
    {
        std::lock_guard<std::mutex> lock(mu_);
        registry_ = &registry;
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
        tr.model = sched_->tenantModel(tenant->index());
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
        spec.born_escalated = session.tenant->breaker().tripped();
        spec.recovered = session.ordinal < recovered[t].size() &&
                         recovered[t][session.ordinal];
        specs.push_back(std::move(spec));
    }
    auto sched = std::make_unique<FleetScheduler>(
        cfg_, std::move(specs), registry.tenants(), stop_);
    sched->setStopCheck(stop_check_);
    sched->setFleetStepHook(fleet_hook_);
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
