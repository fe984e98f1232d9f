/**
 * @file
 * Bounded STS hand-off queue between a feeder (source) thread and a
 * monitor worker, backed by core::RingQueue. The capacity bound is
 * the backpressure point; what happens at the bound is an explicit
 * policy:
 *
 *  - Block: the feeder waits for space. Nothing is lost, the source
 *    slows to the monitor's pace (correct for seekable/replayable
 *    sources, and the only policy compatible with bit-identical
 *    checkpoint recovery).
 *  - DropOldest: the oldest queued window is discarded to admit the
 *    new one. The monitor stays current at the cost of gaps
 *    (live-capture posture; verdicts are then best-effort).
 *
 * Both outcomes are counted in QueueStats, never silent.
 */

#ifndef EDDIE_SERVE_STS_QUEUE_H
#define EDDIE_SERVE_STS_QUEUE_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/ring_buffer.h"
#include "core/sts.h"

namespace eddie::serve
{

/** What a full queue does to an incoming push. */
enum class BackpressurePolicy
{
    Block,
    DropOldest,
};

struct StsQueueConfig
{
    std::size_t capacity = 64;
    BackpressurePolicy policy = BackpressurePolicy::Block;
    /**
     * Byte quota over queued windows (stsBytes sum); 0 = unbounded.
     * This is the per-tenant memory fence for the fleet runtime:
     * window *count* alone lets one tenant with huge peak lists eat
     * the process. The bound applies the same policy as capacity —
     * Block waits, DropOldest evicts until the new window fits. A
     * window larger than the whole quota is still admitted when the
     * queue is empty (otherwise Block would deadlock); the quota then
     * holds again from the next push.
     */
    std::size_t max_bytes = 0;
};

/** Accounting size of one queued window: struct + its peak list. */
std::size_t stsBytes(const core::Sts &sts);

/** Counters; every bound hit is visible here. */
struct QueueStats
{
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    /** Windows discarded by DropOldest. */
    std::uint64_t dropped_oldest = 0;
    /** Pushes that had to wait under Block. */
    std::uint64_t blocked_pushes = 0;
    /** High-water mark of queue depth. */
    std::uint64_t max_depth = 0;
    /** Condvar wakeups that found their predicate still false (a
     *  blocked push woken while still over the bound, or a pop woken
     *  to a still-empty ring). Batch wakeups exist to keep this near
     *  zero; the scheduler bench records it. */
    std::uint64_t spurious_wakeups = 0;
    /** Bytes currently queued (stsBytes sum). */
    std::uint64_t queued_bytes = 0;
    /** High-water mark of queued_bytes. */
    std::uint64_t max_queued_bytes = 0;
};

/** Single-producer / single-consumer bounded queue. */
class StsQueue
{
  public:
    explicit StsQueue(const StsQueueConfig &cfg);

    /**
     * Batched enqueue to match popBatch: one mutex acquisition and
     * ONE consumer wakeup for the whole batch instead of one per
     * window. Windows are moved out of @p in front-to-back; the
     * pushed prefix is erased from @p in (leftovers stay, in order,
     * for the caller to retry).
     *
     * With @p may_block (default), applies the full backpressure
     * policy per window — the call pushes everything unless the queue
     * closes mid-batch. With may_block == false, stops at the first
     * window the bound refuses instead of waiting, so a multiplexed
     * feeder can never be parked on one slow tenant's queue.
     * Returns the number of windows enqueued.
     */
    std::size_t pushBatch(std::vector<core::Sts> &in,
                          bool may_block = true);

    /**
     * Free window slots right now (0 once closed). A feeder that
     * clamps its pull chunk to this and uses pushBatch(.., false)
     * never blocks; the byte quota can still refuse earlier, which
     * the non-blocking push surfaces as leftovers.
     */
    std::size_t headroom() const;

    /**
     * Waits up to @p timeout_ms for the queue to leave saturation
     * (ring full, or at the byte quota). The bounded-backpressure
     * companion of pushBatch(.., false): a producer that must stay
     * responsive to an abort flag parks here instead of napping
     * blind, and wakes the moment the consumer frees a slot — on a
     * saturated queue a fixed nap caps throughput at
     * capacity/nap_ms, which the wire bench showed as a 5x cliff.
     * Returns true when a push could now make progress (space freed,
     * or closed — the caller's next push observes the close).
     */
    bool waitNotFullFor(double timeout_ms);

    /**
     * Batched dequeue: waits up to @p timeout_ms for the first
     * window, then drains up to @p max_items under the same lock
     * acquisition — one mutex round-trip and one producer wakeup per
     * batch instead of per window, the hand-off that keeps sharded
     * workers off each other's cache lines. @p out is cleared first
     * and its capacity reused. Returns the number of windows
     * dequeued (0 = timed out, or closed and drained).
     */
    std::size_t popBatch(std::vector<core::Sts> &out,
                         std::size_t max_items, double timeout_ms);

    /** Wakes all waiters; pushes fail from now on, pops drain what
     *  remains. Idempotent. */
    void close();

    bool closed() const;
    /** Closed and empty: no further window will ever be popped. */
    bool drained() const;
    QueueStats stats() const;

  private:
    StsQueueConfig cfg_;
    mutable std::mutex mu_;
    std::condition_variable not_full_;
    std::condition_variable not_empty_;
    core::RingQueue<core::Sts> ring_;
    QueueStats stats_;
    std::size_t bytes_ = 0;
    bool closed_ = false;
};

} // namespace eddie::serve

#endif // EDDIE_SERVE_STS_QUEUE_H
