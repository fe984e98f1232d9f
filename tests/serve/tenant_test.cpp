/**
 * @file
 * Unit tests of the multi-tenant session layer (serve/tenant.h):
 * restart-budget window edges, token-bucket rate quotas, the
 * per-tenant circuit breaker, admission accounting, and the
 * deterministic chaos fate stream. Everything here is pure state over
 * injected timestamps — no threads, no clocks.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "serve/chaos.h"
#include "serve/sample_source.h"
#include "serve/tenant.h"

using namespace eddie;
using namespace eddie::serve;

namespace
{

/** Empty seekable stream — admission tests never pull from it. */
std::unique_ptr<VectorSource>
dummySource()
{
    return std::make_unique<VectorSource>(
        std::make_shared<const std::vector<core::Sts>>());
}

} // namespace

// ---- RestartBudget window boundaries ------------------------------

TEST(RestartBudgetEdge, RestartExactlyAtWindowExpiryStillCounts)
{
    // Pruning drops entries strictly OLDER than the window, so a
    // restart landing exactly window_ms after the first one still
    // sees it in the window — and escalates. Off-by-one here would
    // grant a fourth restart per window.
    RestartBudget budget(2, 1000.0);
    EXPECT_TRUE(budget.allow(0.0));
    EXPECT_TRUE(budget.allow(500.0));
    EXPECT_EQ(budget.used(1000.0), 2u);
    EXPECT_FALSE(budget.allow(1000.0));
    EXPECT_TRUE(budget.escalated());
}

TEST(RestartBudgetEdge, RestartJustPastWindowExpiryIsAllowed)
{
    RestartBudget budget(2, 1000.0);
    EXPECT_TRUE(budget.allow(0.0));
    EXPECT_TRUE(budget.allow(500.0));
    // The t=0 restart ages out a tick past the boundary.
    EXPECT_EQ(budget.used(1000.5), 1u);
    EXPECT_TRUE(budget.allow(1000.5));
    EXPECT_FALSE(budget.escalated());
}

TEST(RestartBudgetEdge, EscalationDoesNotFlapAcrossWindows)
{
    // Escalation is latched: a tenant that exhausted its budget must
    // not pop back to healthy when the window slides past its
    // restarts — flapping would turn a crash loop into an infinite
    // restart-escalate-restart cycle at window cadence.
    RestartBudget budget(1, 100.0);
    EXPECT_TRUE(budget.allow(0.0));
    EXPECT_FALSE(budget.allow(10.0));
    EXPECT_TRUE(budget.escalated());
    // Two full windows later: still escalated, still refusing.
    EXPECT_FALSE(budget.allow(250.0));
    EXPECT_TRUE(budget.escalated());
    // used() keeps pruning independently of the latch.
    EXPECT_EQ(budget.used(250.0), 0u);
}

// ---- TokenBucket --------------------------------------------------

TEST(TokenBucket, ZeroRateIsUnlimited)
{
    TokenBucket bucket(0.0, 1.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(bucket.tryTake(0.0));
    EXPECT_EQ(bucket.deficitMs(0.0), 0.0);
}

TEST(TokenBucket, BurstThenDeficitThenRefill)
{
    TokenBucket bucket(1000.0, 2.0); // 1 token per ms, burst 2
    EXPECT_TRUE(bucket.tryTake(0.0));
    EXPECT_TRUE(bucket.tryTake(0.0));
    EXPECT_FALSE(bucket.tryTake(0.0));
    EXPECT_NEAR(bucket.deficitMs(0.0), 1.0, 1e-9);
    // One refill interval later the take succeeds again.
    EXPECT_TRUE(bucket.tryTake(1.0));
    EXPECT_FALSE(bucket.tryTake(1.0));
}

// ---- CircuitBreaker -----------------------------------------------

TEST(CircuitBreaker, WorkerFaultsTripOnlyInsideTheWindow)
{
    BreakerConfig cfg;
    cfg.fault_threshold = 2;
    cfg.window_ms = 100.0;
    {
        CircuitBreaker spread(cfg);
        EXPECT_FALSE(spread.record(FaultClass::WorkerFault, 0.0));
        // Strictly past the window: the first fault aged out.
        EXPECT_FALSE(spread.record(FaultClass::WorkerFault, 100.5));
        EXPECT_FALSE(spread.tripped());
    }
    {
        CircuitBreaker edge(cfg);
        EXPECT_FALSE(edge.record(FaultClass::WorkerFault, 0.0));
        // Exactly at the window boundary: still counts, trips.
        EXPECT_TRUE(edge.record(FaultClass::WorkerFault, 100.0));
        EXPECT_TRUE(edge.tripped());
        EXPECT_EQ(edge.cause(), FaultClass::WorkerFault);
    }
}

TEST(CircuitBreaker, ZeroThresholdDisablesThatClass)
{
    BreakerConfig cfg;
    cfg.fault_threshold = 0;
    cfg.decode_failure_threshold = 0;
    CircuitBreaker breaker(cfg);
    for (int i = 0; i < 10; ++i) {
        EXPECT_FALSE(breaker.record(FaultClass::WorkerFault, 0.0));
        EXPECT_FALSE(breaker.record(FaultClass::CheckpointDecode, 0.0));
    }
    EXPECT_FALSE(breaker.tripped());
    // Lifetime counts accumulate regardless of the trip policy.
    EXPECT_EQ(breaker.count(FaultClass::WorkerFault), 10u);
    EXPECT_EQ(breaker.count(FaultClass::CheckpointDecode), 10u);
}

TEST(CircuitBreaker, StormTripsOnceAndLatchesCause)
{
    CircuitBreaker breaker(BreakerConfig{});
    EXPECT_TRUE(breaker.record(FaultClass::QuarantineStorm, 5.0));
    EXPECT_TRUE(breaker.tripped());
    EXPECT_EQ(breaker.cause(), FaultClass::QuarantineStorm);
    // Later faults of other classes keep counting but cannot
    // reassign the cause.
    EXPECT_TRUE(breaker.record(FaultClass::WorkerFault, 6.0));
    EXPECT_EQ(breaker.cause(), FaultClass::QuarantineStorm);
}

TEST(CircuitBreaker, DecodeFailuresTripAtLifetimeThreshold)
{
    BreakerConfig cfg;
    cfg.decode_failure_threshold = 2;
    CircuitBreaker breaker(cfg);
    EXPECT_FALSE(breaker.record(FaultClass::CheckpointDecode, 0.0));
    EXPECT_TRUE(breaker.record(FaultClass::CheckpointDecode, 1e6));
    EXPECT_EQ(breaker.cause(), FaultClass::CheckpointDecode);
}

// ---- TenantRegistry admission -------------------------------------

TEST(TenantRegistry, RejectsDuplicateAndEmptyIds)
{
    TenantRegistry reg;
    TenantSpec spec;
    spec.id = "a";
    reg.addTenant(spec);
    EXPECT_THROW(reg.addTenant(spec), std::invalid_argument);
    spec.id = "";
    EXPECT_THROW(reg.addTenant(spec), std::invalid_argument);
}

TEST(TenantRegistry, RejectsIdsContainingASlash)
{
    // "a/ckpt/dlt" would live under tenant a's delta-key prefix in the
    // shared checkpoint archive, so a's snapshot rewrite would remove
    // its neighbor's snapshot.
    TenantRegistry reg;
    TenantSpec spec;
    spec.id = "a";
    reg.addTenant(spec);
    for (const char *id : {"a/ckpt/dlt", "/a", "a/", "x/y"}) {
        spec.id = id;
        EXPECT_THROW(reg.addTenant(spec), std::invalid_argument) << id;
    }
    EXPECT_EQ(reg.tenants().size(), 1u);
}

TEST(TenantRegistry, RejectsANegativeOrNonFiniteRestartWindow)
{
    TenantRegistry reg;
    TenantSpec spec;
    spec.id = "a";
    for (const double v : {-1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
        spec.quota.restart_window_ms = v;
        EXPECT_THROW(reg.addTenant(spec), std::invalid_argument) << v;
    }
    spec.quota.restart_window_ms = 0.0;
    reg.addTenant(spec);
    EXPECT_EQ(reg.tenants().size(), 1u);
}

TEST(TenantRegistry, CountsEveryRefusalByReason)
{
    AdmissionConfig adm;
    adm.max_sessions = 3;
    TenantRegistry reg(adm);
    TenantSpec a;
    a.id = "a";
    a.quota.max_sessions = 1;
    reg.addTenant(a);
    TenantSpec b;
    b.id = "b";
    reg.addTenant(b);

    auto s1 = dummySource(), s2 = dummySource(), s3 = dummySource(),
         s4 = dummySource(), s5 = dummySource();

    EXPECT_FALSE(reg.openSession("nope", s1.get()).admitted);

    const auto r1 = reg.openSession("a", s1.get());
    EXPECT_TRUE(r1.admitted);
    const auto r2 = reg.openSession("a", s2.get());
    EXPECT_FALSE(r2.admitted);
    EXPECT_EQ(r2.reason, ShedReason::TenantSessionLimit);

    EXPECT_TRUE(reg.openSession("b", s2.get()).admitted);
    EXPECT_TRUE(reg.openSession("b", s3.get()).admitted);
    const auto r3 = reg.openSession("b", s4.get());
    EXPECT_FALSE(r3.admitted);
    EXPECT_EQ(r3.reason, ShedReason::FleetSessionLimit);

    // A tripped breaker refuses before any capacity check.
    reg.find("b")->breaker().record(FaultClass::QuarantineStorm, 0.0);
    const auto r4 = reg.openSession("b", s5.get());
    EXPECT_FALSE(r4.admitted);
    EXPECT_EQ(r4.reason, ShedReason::BreakerOpen);

    const AdmissionStats st = reg.admissionStats();
    EXPECT_EQ(st.sessions_admitted, 3u);
    EXPECT_EQ(st.rejected_unknown_tenant, 1u);
    EXPECT_EQ(st.rejected_tenant_limit, 1u);
    EXPECT_EQ(st.rejected_fleet_limit, 1u);
    EXPECT_EQ(st.rejected_breaker_open, 1u);
}

TEST(TenantRegistry, SessionOrdinalsArePerTenant)
{
    TenantRegistry reg;
    TenantSpec a;
    a.id = "a";
    reg.addTenant(a);
    TenantSpec b;
    b.id = "b";
    reg.addTenant(b);
    auto s1 = dummySource(), s2 = dummySource(), s3 = dummySource();
    reg.openSession("a", s1.get());
    reg.openSession("b", s2.get());
    reg.openSession("a", s3.get());
    ASSERT_EQ(reg.sessions().size(), 3u);
    EXPECT_EQ(reg.sessions()[0].ordinal, 0u);
    EXPECT_EQ(reg.sessions()[1].ordinal, 0u);
    EXPECT_EQ(reg.sessions()[2].ordinal, 1u);
    EXPECT_EQ(reg.find("a")->openSessions(), 2u);
}

TEST(Tenant, RateQuotaShedsOrThrottlesAndCounts)
{
    TenantSpec spec;
    spec.id = "a";
    spec.quota.sts_per_s = 1000.0;
    spec.quota.burst = 1.0;
    spec.quota.rate_policy = RatePolicy::Shed;
    TenantRegistry reg;
    Tenant &tenant = reg.addTenant(spec);
    double wait = 0.0;
    EXPECT_EQ(tenant.admitWindow(0.0, wait), RateDecision::Admit);
    EXPECT_EQ(tenant.admitWindow(0.0, wait), RateDecision::Shed);
    EXPECT_EQ(tenant.windowsShed(), 1u);
    // One refill interval later the bucket admits again.
    EXPECT_EQ(tenant.admitWindow(1.0, wait), RateDecision::Admit);

    TenantSpec tspec = spec;
    tspec.id = "b";
    tspec.quota.rate_policy = RatePolicy::Throttle;
    Tenant &throttled = reg.addTenant(tspec);
    EXPECT_EQ(throttled.admitWindow(0.0, wait), RateDecision::Admit);
    EXPECT_EQ(throttled.admitWindow(0.0, wait),
              RateDecision::Throttle);
    EXPECT_NEAR(wait, 1.0, 1e-9);
    EXPECT_EQ(throttled.windowsThrottled(), 1u);
}

// ---- Chaos fate stream --------------------------------------------

TEST(ChaosFateStream, DeterministicAndCapped)
{
    ChaosConfig cfg;
    cfg.seed = 7;
    cfg.kill_prob = 0.3;
    cfg.hang_prob = 0.3;
    // Same (session, step, attempt) → same fate, every time.
    for (std::size_t s = 0; s < 4; ++s)
        for (std::size_t step = 0; step < 64; ++step)
            for (std::uint64_t a = 0; a < 3; ++a)
                EXPECT_EQ(stepFate(cfg, s, step, a),
                          stepFate(cfg, s, step, a));
    // The attempt cap forces delivery: no step can fault forever.
    for (std::size_t step = 0; step < 64; ++step)
        EXPECT_EQ(stepFate(cfg, 0, step, cfg.max_consecutive),
                  StepFate::None);
    // Different seeds draw different schedules (on aggregate).
    ChaosConfig other = cfg;
    other.seed = 8;
    int diff = 0;
    for (std::size_t step = 0; step < 256; ++step)
        diff += stepFate(cfg, 0, step, 0) != stepFate(other, 0, step, 0);
    EXPECT_GT(diff, 0);
}

TEST(ChaosFateStream, DisabledClassesNeverFire)
{
    ChaosConfig cfg;
    cfg.seed = 9;
    cfg.kill_prob = 1.0;
    cfg.hang_prob = 1.0;
    cfg.fates.worker_kill = false;
    cfg.fates.worker_hang = false;
    for (std::size_t step = 0; step < 128; ++step)
        EXPECT_EQ(stepFate(cfg, 0, step, 0), StepFate::None);
}
