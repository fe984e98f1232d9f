#include "tenant.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace eddie::serve
{

RestartBudget::RestartBudget(std::size_t budget, double window_ms)
    : budget_(budget), window_ms_(window_ms)
{
}

bool
RestartBudget::allow(double now_ms)
{
    if (escalated_)
        return false;
    while (!times_.empty() && now_ms - times_.front() > window_ms_)
        times_.pop_front();
    if (times_.size() >= budget_) {
        escalated_ = true;
        return false;
    }
    times_.push_back(now_ms);
    return true;
}

std::size_t
RestartBudget::used(double now_ms) const
{
    while (!times_.empty() && now_ms - times_.front() > window_ms_)
        times_.pop_front();
    return times_.size();
}

TokenBucket::TokenBucket(double rate_per_s, double burst)
    : rate_per_s_(std::max(rate_per_s, 0.0)),
      burst_(std::max(burst, 1.0)), tokens_(burst_)
{
}

void
TokenBucket::refill(double now_ms) const
{
    if (now_ms > last_ms_) {
        tokens_ = std::min(
            burst_, tokens_ + (now_ms - last_ms_) * 1e-3 * rate_per_s_);
        last_ms_ = now_ms;
    }
}

bool
TokenBucket::tryTake(double now_ms, double n)
{
    if (rate_per_s_ <= 0.0)
        return true;
    refill(now_ms);
    if (tokens_ + 1e-9 < n)
        return false;
    tokens_ -= n;
    return true;
}

double
TokenBucket::deficitMs(double now_ms, double n) const
{
    if (rate_per_s_ <= 0.0)
        return 0.0;
    refill(now_ms);
    if (tokens_ >= n)
        return 0.0;
    return (n - tokens_) / rate_per_s_ * 1e3;
}

CircuitBreaker::CircuitBreaker(BreakerConfig cfg) : cfg_(cfg)
{
}

bool
CircuitBreaker::record(FaultClass cls, double now_ms)
{
    ++counts_[std::size_t(cls)];
    if (tripped_)
        return true;
    switch (cls) {
    case FaultClass::WorkerFault:
        if (cfg_.fault_threshold == 0)
            break;
        while (!fault_times_.empty() &&
               now_ms - fault_times_.front() > cfg_.window_ms)
            fault_times_.pop_front();
        fault_times_.push_back(now_ms);
        if (fault_times_.size() >= cfg_.fault_threshold) {
            tripped_ = true;
            cause_ = cls;
        }
        break;
    case FaultClass::QuarantineStorm:
        // The storm-length judgment lives with the caller (it sees
        // the outage run length); one reported storm trips.
        tripped_ = true;
        cause_ = cls;
        break;
    case FaultClass::CheckpointDecode:
        if (cfg_.decode_failure_threshold != 0 &&
            counts_[std::size_t(cls)] >=
                cfg_.decode_failure_threshold) {
            tripped_ = true;
            cause_ = cls;
        }
        break;
    }
    return tripped_;
}

std::uint64_t
CircuitBreaker::count(FaultClass cls) const
{
    return counts_[std::size_t(cls)];
}

Tenant::Tenant(TenantSpec spec, std::size_t index)
    : spec_(std::move(spec)), index_(index),
      budget_(spec_.quota.restart_budget,
              spec_.quota.restart_window_ms),
      breaker_(spec_.breaker),
      bucket_(spec_.quota.sts_per_s, spec_.quota.burst)
{
}

RateDecision
Tenant::admitWindow(double now_ms, double &wait_ms)
{
    wait_ms = 0.0;
    // An unlimited bucket admits everything: skip the lock the
    // tenant's workers would otherwise contend on for every window.
    if (spec_.quota.sts_per_s <= 0.0)
        return RateDecision::Admit;
    std::lock_guard<std::mutex> lock(bucket_mu_);
    if (bucket_.tryTake(now_ms))
        return RateDecision::Admit;
    if (spec_.quota.rate_policy == RatePolicy::Shed) {
        ++shed_;
        return RateDecision::Shed;
    }
    wait_ms = bucket_.deficitMs(now_ms);
    ++throttled_;
    return RateDecision::Throttle;
}

TenantRegistry::TenantRegistry(AdmissionConfig cfg) : cfg_(cfg)
{
}

Tenant &
TenantRegistry::addTenant(TenantSpec spec)
{
    if (spec.id.empty())
        throw std::invalid_argument("tenant: empty id");
    // The id names the tenant's checkpoint key prefix, "tenant/<id>/";
    // a '/' in it could make one tenant's prefix a prefix of another's
    // keys, and a snapshot rewrite would remove the neighbor's.
    if (spec.id.find('/') != std::string::npos)
        throw std::invalid_argument("tenant: '/' in id " + spec.id);
    if (tenants_.count(spec.id) != 0)
        throw std::invalid_argument("tenant: duplicate id " + spec.id);
    if (!std::isfinite(spec.quota.restart_window_ms) ||
        spec.quota.restart_window_ms < 0.0)
        throw std::invalid_argument(
            "tenant: " + spec.id +
            ": quota.restart_window_ms must be finite and >= 0");
    auto tenant =
        std::make_unique<Tenant>(std::move(spec), order_.size());
    Tenant &ref = *tenant;
    order_.push_back(&ref);
    tenants_.emplace(ref.id(), std::move(tenant));
    return ref;
}

Tenant *
TenantRegistry::find(const std::string &id)
{
    auto it = tenants_.find(id);
    return it == tenants_.end() ? nullptr : it->second.get();
}

const Tenant *
TenantRegistry::find(const std::string &id) const
{
    auto it = tenants_.find(id);
    return it == tenants_.end() ? nullptr : it->second.get();
}

TenantRegistry::OpenResult
TenantRegistry::openSession(const std::string &tenant_id,
                            SampleSource *source)
{
    OpenResult res;
    Tenant *tenant = find(tenant_id);
    if (tenant == nullptr) {
        ++stats_.rejected_unknown_tenant;
        res.reason = ShedReason::UnknownTenant;
        return res;
    }
    if (tenant->breaker().tripped()) {
        ++stats_.rejected_breaker_open;
        res.reason = ShedReason::BreakerOpen;
        return res;
    }
    if (cfg_.max_sessions != 0 &&
        sessions_.size() >= cfg_.max_sessions) {
        ++stats_.rejected_fleet_limit;
        res.reason = ShedReason::FleetSessionLimit;
        return res;
    }
    const auto &quota = tenant->spec().quota;
    if (quota.max_sessions != 0 &&
        tenant->open_sessions_ >= quota.max_sessions) {
        ++stats_.rejected_tenant_limit;
        res.reason = ShedReason::TenantSessionLimit;
        return res;
    }
    TenantSession session;
    session.tenant = tenant;
    session.source = source;
    session.ordinal = tenant->open_sessions_++;
    res.admitted = true;
    res.reason = ShedReason::RateShed; // unused when admitted
    res.session = sessions_.size();
    sessions_.push_back(session);
    ++stats_.sessions_admitted;
    return res;
}

AdmissionStats
TenantRegistry::admissionStats() const
{
    return stats_;
}

void
TenantRegistry::noteRateCounters(std::uint64_t shed,
                                 std::uint64_t throttled)
{
    stats_.windows_shed += shed;
    stats_.windows_throttled += throttled;
}

const char *
name(FaultClass cls)
{
    switch (cls) {
    case FaultClass::WorkerFault:
        return "worker-fault";
    case FaultClass::QuarantineStorm:
        return "quarantine-storm";
    case FaultClass::CheckpointDecode:
        return "checkpoint-decode";
    }
    return "unknown";
}

const char *
name(ShedReason reason)
{
    switch (reason) {
    case ShedReason::FleetSessionLimit:
        return "fleet-session-limit";
    case ShedReason::TenantSessionLimit:
        return "tenant-session-limit";
    case ShedReason::UnknownTenant:
        return "unknown-tenant";
    case ShedReason::BreakerOpen:
        return "breaker-open";
    case ShedReason::RateShed:
        return "rate-shed";
    }
    return "unknown";
}

} // namespace eddie::serve
