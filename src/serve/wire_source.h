/**
 * @file
 * Server-side bridge from a wire connection to the supervised
 * runtime: a WireSource is the SampleSource a WireListener registers
 * with TenantRegistry when a HELLO is admitted. Two halves share one
 * buffer, a deque of windows under one mutex:
 *
 *  - the *ingest* half (the listener's event loop) appends in-order
 *    STS-BATCH windows. The undelivered part of the deque is the
 *    receive window, bounded by recv_capacity windows and
 *    recv_max_bytes. ingest() never blocks: it takes what fits and
 *    hands the rest back. The loop then holds that tail and stops
 *    reading the connection, and TCP pushes the pressure back to the
 *    producer: slow-consumer backpressure ends at the peer, not in
 *    this process's heap.
 *  - the *consumer* half (the scheduler worker that owns the session)
 *    pulls windows via next() and steps them at once. Delivered
 *    windows stay at the front of the deque, up to replay_window of
 *    them, so seek() — the checkpoint-recovery contract of
 *    SampleSource — rewinds locally without asking the peer to
 *    rewind. Once a refused push has drained to half the window's
 *    bounds, next() raises the ingest wake target it was built with
 *    (the listener's loop wakeup), so the loop retries the held tail:
 *    one wakeup per half window, not one per window.
 *
 * Sequence discipline (the at-most-once/at-least-once meeting point):
 * expected() is the next window index the source will accept. A batch
 * below it is a duplicate replay (dropped, counted — reconnecting
 * clients replay from their last ACK, so overlap is normal); a batch
 * above it is a SequenceGap (the connection is NACKed and dropped —
 * accepting it would fabricate a hole in the verdict stream). The
 * result is that windows enter the monitor exactly once, in order,
 * regardless of how messy the transport was — which is what keeps
 * wire verdicts bit-identical to the in-process path.
 *
 * next() never blocks. With nothing buffered it answers Pending and
 * the ingest half raises the watched Readiness (SampleSource::watch)
 * when windows, an EOF, or a close arrive, so the session parks
 * instead of polling. Only a peer silent for stall_timeout_ms
 * surfaces as Stalled, which the scheduler treats as a dead source
 * and spends a restart on.
 */

#ifndef EDDIE_SERVE_WIRE_SOURCE_H
#define EDDIE_SERVE_WIRE_SOURCE_H

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "sample_source.h"

namespace eddie::serve
{

struct WireSourceConfig
{
    /** Receive-window bound: undelivered windows. */
    std::size_t recv_capacity = 256;
    /** Byte quota of the receive window (sizeof(Sts) plus its peak
     *  list per window); 0 = unbounded. A window larger than the whole
     *  quota is still taken into an empty window. */
    std::size_t recv_max_bytes = 4u << 20;
    /** Delivered windows retained for seek() replay. Must cover the
     *  furthest rewind checkpoint recovery can ask for: the checkpoint
     *  interval plus the one window a throttled session holds. Seeks
     *  below the retained base fail and the session escalates. */
    std::size_t replay_window = 16384;
    /** How long an idle wire may answer Pending, counted from the
     *  first idle pull after the last delivered window (or seek),
     *  before next() reports Stalled (a dead source — see file
     *  comment). */
    double stall_timeout_ms = 30000.0;
};

/** Ingest-half counters (the consumer half uses SourceStats). */
struct WireSourceStats
{
    /** Windows accepted in order. */
    std::uint64_t ingested = 0;
    /** Duplicate windows dropped (reconnect replay overlap). */
    std::uint64_t duplicates_dropped = 0;
    /** Batches refused for opening a sequence gap. */
    std::uint64_t gaps_refused = 0;
    /** ingest() calls the receive window cut short (a full window:
     *  the loop held the rest and paused the connection). */
    std::uint64_t refused_pushes = 0;
};

class WireSource : public SampleSource
{
  public:
    /** @p ingest_wake (may be null) is raised once a refused push has
     *  drained to half the receive window; it must outlive the
     *  source. */
    WireSource(std::string tenant_id, std::uint64_t session_key,
               const WireSourceConfig &cfg,
               Readiness *ingest_wake = nullptr);

    // Consumer half (the session's worker; single consumer).
    Pull next() override;
    bool seek(std::uint64_t pos) override;
    std::uint64_t position() const override;
    SourceStats stats() const override;
    void watch(Readiness *r) override;

    // Ingest half (the listener's event loop; single writer).
    enum class Ingest
    {
        Ok,
        /** The receive window took a prefix (maybe none); the rest
         *  stays in the batch and starts at expected(). */
        Full,
        /** first_seq > expected(): refuse, NACK, drop connection. */
        Gap,
        /** The receive window was closed (shutdown or EOF). */
        Closed,
    };

    /**
     * Appends @p batch, whose first window has stream index
     * @p first_seq: drops the already-ingested prefix and takes what
     * the receive window has room for. Never blocks. On Full, @p batch
     * keeps the refused tail, to be offered again once the ingest wake
     * target is raised.
     */
    Ingest ingest(std::uint64_t first_seq, std::vector<core::Sts> &batch);

    /** EOF claim from the peer: accepted (and the receive window
     *  closed) when @p total == expected(), else Gap. */
    Ingest noteEof(std::uint64_t total);

    /** Next window index the ingest half will accept — the resume
     *  point ACKed back to (re)connecting clients. */
    std::uint64_t expected() const;

    /** Closes the receive window: ingest() answers Closed, and next()
     *  drains what arrived (without waking the ingest half) and then
     *  reports Stalled (or EndOfStream after an accepted EOF).
     *  Idempotent. */
    void closeIngest();

    bool eofKnown() const;

    const std::string &tenantId() const { return tenant_id_; }
    std::uint64_t sessionKey() const { return session_key_; }

    WireSourceStats wireStats() const;

  private:
    /** Raises the watched Readiness, if any (mu_ not held, so a
     *  consumer woken by it does not queue on the deque's lock). */
    void wake();

    const std::string tenant_id_;
    const std::uint64_t session_key_;
    const WireSourceConfig cfg_;

    mutable std::mutex mu_;
    /** Windows [base_, expected_): delivered ones (below delivered_)
     *  kept for replay, then the undelivered receive window. */
    std::deque<core::Sts> windows_;
    std::uint64_t base_ = 0;
    std::uint64_t expected_ = 0;
    /** One past the furthest window ever delivered. */
    std::uint64_t delivered_ = 0;
    /** Next window next() hands out (below delivered_ after a seek). */
    std::uint64_t cursor_ = 0;
    /** Accounted bytes of the undelivered windows. */
    std::size_t recv_bytes_ = 0;
    std::int64_t eof_total_ = -1;
    bool closed_ = false;
    /** A push was refused since the last ingest wakeup. */
    bool ingest_waiting_ = false;
    Readiness *const ingest_wake_;
    /** Start of the current idle spell (first Pending after the last
     *  delivered window); negative while windows flow. */
    double idle_since_ms_ = -1.0;
    WireSourceStats wire_;
    SourceStats source_;
    /** Guards watcher_: a raise and a detach never overlap, so a
     *  detached target is never touched again. */
    std::mutex watch_mu_;
    Readiness *watcher_ = nullptr;
};

} // namespace eddie::serve

#endif // EDDIE_SERVE_WIRE_SOURCE_H
