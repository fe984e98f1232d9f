/**
 * @file
 * Unit tests of the supervision building blocks: the bounded queue's
 * two backpressure policies, the sliding-window restart budget that
 * decides between restart and escalation, and ServeConfig validation
 * (one test per rule).
 */

#include <chrono>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "serve/sts_queue.h"
#include "serve/supervisor.h"

namespace
{

using namespace eddie;
using namespace eddie::serve;

core::Sts
numbered(std::size_t i)
{
    core::Sts sts;
    sts.t_start = double(i);
    return sts;
}

/** One window through the blocking batch push; false once closed. */
bool
push(StsQueue &q, core::Sts sts)
{
    std::vector<core::Sts> one{std::move(sts)};
    return q.pushBatch(one) == 1;
}

/** One window, waiting up to @p timeout_ms; empty when none came. */
std::optional<core::Sts>
pop(StsQueue &q, double timeout_ms)
{
    std::vector<core::Sts> out;
    if (q.popBatch(out, 1, timeout_ms) == 0)
        return std::nullopt;
    return std::move(out.front());
}

TEST(StsQueue, DropOldestEvictsAndCounts)
{
    StsQueueConfig cfg;
    cfg.capacity = 2;
    cfg.policy = BackpressurePolicy::DropOldest;
    StsQueue q(cfg);
    for (std::size_t i = 0; i < 4; ++i)
        ASSERT_TRUE(push(q, numbered(i)));
    // 0 and 1 were evicted to admit 2 and 3.
    EXPECT_DOUBLE_EQ(pop(q, 0.0)->t_start, 2.0);
    EXPECT_DOUBLE_EQ(pop(q, 0.0)->t_start, 3.0);
    EXPECT_FALSE(pop(q, 0.0).has_value());
    const QueueStats stats = q.stats();
    EXPECT_EQ(stats.dropped_oldest, 2u);
    EXPECT_EQ(stats.blocked_pushes, 0u);
    EXPECT_EQ(stats.pushed, 4u);
    EXPECT_EQ(stats.popped, 2u);
    EXPECT_EQ(stats.max_depth, 2u);
}

TEST(StsQueue, BlockPolicyLosesNothingAndCountsTheWait)
{
    StsQueueConfig cfg;
    cfg.capacity = 2;
    cfg.policy = BackpressurePolicy::Block;
    StsQueue q(cfg);
    constexpr std::size_t kTotal = 32;

    std::thread producer([&q] {
        for (std::size_t i = 0; i < kTotal; ++i)
            ASSERT_TRUE(push(q, numbered(i)));
        q.close();
    });
    // Don't pop until the producer has actually hit backpressure:
    // with nobody draining a capacity-2 queue it must block, and
    // waiting for that makes the blocked_pushes assertion immune to
    // scheduling (a fast consumer could otherwise keep the ring from
    // ever filling).
    while (q.stats().blocked_pushes == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::size_t expected = 0;
    while (true) {
        const auto sts = pop(q, 50.0);
        if (!sts) {
            if (q.drained())
                break;
            continue;
        }
        // Blocking backpressure preserves order and loses nothing.
        EXPECT_DOUBLE_EQ(sts->t_start, double(expected));
        ++expected;
    }
    producer.join();
    EXPECT_EQ(expected, kTotal);
    const QueueStats stats = q.stats();
    EXPECT_EQ(stats.dropped_oldest, 0u);
    EXPECT_GT(stats.blocked_pushes, 0u);
    EXPECT_LE(stats.max_depth, 2u);
}

TEST(StsQueue, CloseUnblocksAndFailsFurtherPushes)
{
    StsQueueConfig cfg;
    cfg.capacity = 1;
    StsQueue q(cfg);
    ASSERT_TRUE(push(q, numbered(0)));
    std::thread blocked([&q] {
        // Blocks on the full queue until close() wakes it.
        EXPECT_FALSE(push(q, numbered(1)));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
    blocked.join();
    EXPECT_FALSE(push(q, numbered(2)));
    // Closed queues still drain what they hold.
    EXPECT_TRUE(pop(q, 0.0).has_value());
    EXPECT_TRUE(q.drained());
}

TEST(StsQueue, PopBatchDrainsUpToMaxInOrder)
{
    StsQueueConfig cfg;
    cfg.capacity = 8;
    StsQueue q(cfg);
    for (std::size_t i = 0; i < 5; ++i)
        ASSERT_TRUE(push(q, numbered(i)));

    std::vector<core::Sts> batch;
    // Capped drain: takes exactly max_items, in FIFO order.
    EXPECT_EQ(q.popBatch(batch, 3, 0.0), 3u);
    ASSERT_EQ(batch.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(batch[i].t_start, double(i));
    // Remainder drains in one more call even though max_items is
    // larger than what's left.
    EXPECT_EQ(q.popBatch(batch, 16, 0.0), 2u);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_DOUBLE_EQ(batch[0].t_start, 3.0);
    EXPECT_DOUBLE_EQ(batch[1].t_start, 4.0);
    // Empty + timeout 0: returns immediately with nothing.
    EXPECT_EQ(q.popBatch(batch, 16, 0.0), 0u);
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(q.stats().popped, 5u);
}

TEST(StsQueue, PopBatchWakesBlockedProducerAndSeesClose)
{
    StsQueueConfig cfg;
    cfg.capacity = 2;
    cfg.policy = BackpressurePolicy::Block;
    StsQueue q(cfg);
    constexpr std::size_t kTotal = 64;
    std::thread producer([&q] {
        for (std::size_t i = 0; i < kTotal; ++i)
            ASSERT_TRUE(push(q, numbered(i)));
        q.close();
    });

    std::vector<core::Sts> batch;
    std::size_t expected = 0;
    while (true) {
        if (q.popBatch(batch, 4, 50.0) == 0) {
            if (q.drained())
                break;
            continue;
        }
        for (const auto &sts : batch) {
            EXPECT_DOUBLE_EQ(sts.t_start, double(expected));
            ++expected;
        }
    }
    producer.join();
    // The single not_full_ wakeup per batch must keep the producer
    // moving: nothing lost, nothing reordered.
    EXPECT_EQ(expected, kTotal);
    EXPECT_EQ(q.stats().dropped_oldest, 0u);
}

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

TEST(ServeConfigValidate, QueueCapacityMustBePositive)
{
    ServeConfig cfg;
    cfg.queue.capacity = 0;
    EXPECT_EQ(rejectedField(cfg), "queue.capacity");
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
        ServeConfig b;
        b.watchdog.restart_window_ms = v;
        EXPECT_EQ(rejectedField(b), "watchdog.restart_window_ms");
        ServeConfig c;
        c.watchdog.poll_interval_ms = v;
        EXPECT_EQ(rejectedField(c), "watchdog.poll_interval_ms");
        ServeConfig d;
        d.model_poll_ms = v;
        EXPECT_EQ(rejectedField(d), "model_poll_ms");
        ServeConfig e;
        e.scheduler.feeder_idle_ms = v;
        EXPECT_EQ(rejectedField(e), "scheduler.feeder_idle_ms");
    }
}

TEST(ServeConfigValidate, ModelPathIsRefusedOnTheFleetConstructor)
{
    ServeConfig cfg;
    cfg.model_path = "/nonexistent/model";
    EXPECT_EQ(rejectedField(cfg), ""); // fine for run()
    try {
        Supervisor sup(cfg);
        ADD_FAILURE() << "fleet supervisor accepted model_path";
    } catch (const ServeConfigError &e) {
        EXPECT_EQ(e.field(), "model_path");
    }
}

TEST(ServeConfigValidate, BothConstructorsValidate)
{
    ServeConfig cfg;
    cfg.queue.capacity = 0;
    EXPECT_THROW(Supervisor{cfg}, ServeConfigError);
    const auto model = std::make_shared<const core::TrainedModel>();
    EXPECT_THROW(Supervisor(model, cfg), ServeConfigError);
}

} // namespace
