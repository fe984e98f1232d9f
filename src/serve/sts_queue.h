/**
 * @file
 * Bounded STS hand-off queue between a producer that must never block
 * and a consumer, backed by core::RingQueue. It is the receive window
 * of a wire session (serve/wire_source.h): the connection's reader
 * pushes, the scheduler worker that owns the session pops.
 *
 * The capacity (windows) and byte bounds are the backpressure point.
 * A push stops at the first window the bound refuses and hands the
 * rest back; the producer then waits on the queue's free-space signal
 * (waitNotFullFor) while it keeps watching its own abort flag.
 * Nothing is ever evicted, and every refused push is counted in
 * QueueStats::blocked_pushes.
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

struct StsQueueConfig
{
    std::size_t capacity = 64;
    /**
     * Byte quota over queued windows (stsBytes sum); 0 = unbounded.
     * Window *count* alone lets a peer with huge peak lists eat the
     * process. A window larger than the whole quota is still admitted
     * when the queue is empty (otherwise it could never enter); the
     * quota then holds again from the next push.
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
    /** Pushes the bound refused (the producer had to wait). */
    std::uint64_t blocked_pushes = 0;
    /** High-water mark of queue depth. */
    std::uint64_t max_depth = 0;
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
     * Batched enqueue to match popBatch: one mutex acquisition and ONE
     * consumer wakeup for the whole batch. Windows are moved out of
     * @p in front-to-back and stop at the first one the bound refuses
     * (counted as a blocked push); the pushed prefix is erased from
     * @p in, and leftovers stay, in order, for the caller to retry.
     * Returns the number of windows enqueued (0 once closed).
     */
    std::size_t pushBatch(std::vector<core::Sts> &in);

    /**
     * Waits up to @p timeout_ms for the queue to leave saturation
     * (ring full, or at the byte quota). A producer that must stay
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
     * batch instead of per window. @p out is cleared first and its
     * capacity reused. Returns the number of windows dequeued (0 =
     * timed out, or closed and drained).
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
