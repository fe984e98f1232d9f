/**
 * @file
 * Unit tests of the supervision building blocks: the sliding-window
 * restart budget that decides between restart and escalation, and
 * ServeConfig validation (one test per rule).
 */

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "serve/supervisor.h"

namespace
{

using namespace eddie;
using namespace eddie::serve;

TEST(RestartBudget, AllowsUpToBudgetWithinTheWindow)
{
    RestartBudget budget(3, 1000.0);
    EXPECT_TRUE(budget.allow(0.0));
    EXPECT_TRUE(budget.allow(10.0));
    EXPECT_TRUE(budget.allow(20.0));
    EXPECT_EQ(budget.used(20.0), 3u);
    // Fourth failure inside the window: escalate, permanently.
    EXPECT_FALSE(budget.allow(30.0));
    EXPECT_TRUE(budget.escalated());
    EXPECT_FALSE(budget.allow(99999.0));
}

TEST(RestartBudget, WindowExpiryRefundsRestarts)
{
    RestartBudget budget(2, 100.0);
    EXPECT_TRUE(budget.allow(0.0));
    EXPECT_TRUE(budget.allow(10.0));
    EXPECT_EQ(budget.used(50.0), 2u);
    // Both restarts have aged out of the trailing window.
    EXPECT_EQ(budget.used(200.0), 0u);
    EXPECT_TRUE(budget.allow(200.0));
    EXPECT_FALSE(budget.escalated());
}

TEST(RestartBudget, ZeroBudgetEscalatesImmediately)
{
    RestartBudget budget(0, 1000.0);
    EXPECT_FALSE(budget.allow(0.0));
    EXPECT_TRUE(budget.escalated());
}

/** The field a validate() failure names; empty when it passes. */
std::string
rejectedField(const ServeConfig &cfg)
{
    try {
        cfg.validate();
    } catch (const ServeConfigError &e) {
        return e.field();
    }
    return "";
}

TEST(ServeConfigValidate, DefaultsAndBenchConfigsPass)
{
    EXPECT_EQ(rejectedField(ServeConfig{}), "");
    // The two serving configs of eddiebench/: defaults, and a fleet
    // with a worker count and an archive checkpoint.
    ServeConfig fleet;
    fleet.scheduler.workers = 2;
    fleet.checkpoint_path = "/nonexistent/ck";
    fleet.checkpoint_archive = true;
    EXPECT_EQ(rejectedField(fleet), "");
}

TEST(ServeConfigValidate, ArchiveNeedsACheckpointPath)
{
    ServeConfig cfg;
    cfg.checkpoint_archive = true;
    EXPECT_EQ(rejectedField(cfg), "checkpoint_archive");
}

TEST(ServeConfigValidate, ResumeNeedsACheckpointPath)
{
    ServeConfig cfg;
    cfg.resume = true;
    EXPECT_EQ(rejectedField(cfg), "resume");
}

TEST(ServeConfigValidate, FullSnapshotEveryMustBePositive)
{
    ServeConfig cfg;
    cfg.full_snapshot_every = 0;
    EXPECT_EQ(rejectedField(cfg), "full_snapshot_every");
}

TEST(ServeConfigValidate, BatchStepsMustBePositive)
{
    ServeConfig cfg;
    cfg.scheduler.batch_steps = 0;
    EXPECT_EQ(rejectedField(cfg), "scheduler.batch_steps");
}

TEST(ServeConfigValidate, HeartbeatDeadlineMustExceedThePoll)
{
    ServeConfig cfg;
    cfg.watchdog.heartbeat_deadline_ms = 2.0;
    cfg.watchdog.poll_interval_ms = 2.0;
    EXPECT_EQ(rejectedField(cfg), "watchdog.heartbeat_deadline_ms");
}

TEST(ServeConfigValidate, TimesMustBeFiniteAndNonNegative)
{
    const double bad[] = {-1.0, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
    for (const double v : bad) {
        ServeConfig a;
        a.watchdog.heartbeat_deadline_ms = v;
        EXPECT_EQ(rejectedField(a), "watchdog.heartbeat_deadline_ms");
        ServeConfig c;
        c.watchdog.poll_interval_ms = v;
        EXPECT_EQ(rejectedField(c), "watchdog.poll_interval_ms");
        ServeConfig d;
        d.model_poll_ms = v;
        EXPECT_EQ(rejectedField(d), "model_poll_ms");
    }
}

TEST(ServeConfigValidate, TheConstructorValidates)
{
    ServeConfig cfg;
    cfg.scheduler.batch_steps = 0;
    EXPECT_THROW(Supervisor{cfg}, ServeConfigError);
}

} // namespace
