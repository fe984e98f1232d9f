/**
 * @file
 * Server-side bridge from a wire connection to the supervised
 * runtime: a WireSource is the SampleSource a WireListener registers
 * with TenantRegistry when a HELLO is admitted. Two halves share it:
 *
 *  - the *ingest* half (the connection's reader thread) appends
 *    in-order STS-BATCH windows through a byte-budgeted StsQueue —
 *    the receive window. A full window blocks the reader, the reader
 *    stops draining the socket, and TCP pushes the pressure back to
 *    the producer: slow-consumer backpressure ends at the peer, not
 *    in this process's heap.
 *  - the *consumer* half (the scheduler worker that owns the session)
 *    pulls windows via next() and steps them at once; next() also
 *    maintains a bounded replay deque of delivered windows so seek()
 *    — the checkpoint-recovery contract of SampleSource — rewinds
 *    locally without asking the peer to rewind. The receive window is
 *    the only queue a wire window crosses.
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

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sample_source.h"
#include "sts_queue.h"

namespace eddie::serve
{

struct WireSourceConfig
{
    /** Receive-window bounds (the ingest StsQueue). */
    std::size_t recv_capacity = 256;
    /** Byte quota of the receive window; 0 = unbounded. */
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
    QueueStats recv;
};

class WireSource : public SampleSource
{
  public:
    WireSource(std::string tenant_id, std::uint64_t session_key,
               const WireSourceConfig &cfg);

    // Consumer half (the session's worker; single consumer).
    Pull next() override;
    bool seek(std::uint64_t pos) override;
    std::uint64_t position() const override { return cursor_.load(); }
    SourceStats stats() const override;
    void watch(Readiness *r) override;

    // Ingest half (connection reader thread; single writer — the
    // listener serializes reader handoff across reconnects).
    enum class Ingest
    {
        Ok,
        /** first_seq > expected(): refuse, NACK, drop connection. */
        Gap,
        /** The receive window was closed (shutdown). */
        Closed,
        /** @p abort returned true while waiting for window space
         *  (reader superseded by a reconnect). */
        Aborted,
    };

    /**
     * Appends @p batch starting at stream index @p first_seq,
     * dropping the already-ingested prefix and blocking (in small
     * sleeps, polling @p abort) while the receive window is full.
     */
    Ingest ingest(std::uint64_t first_seq,
                  std::vector<core::Sts> &&batch,
                  const std::function<bool()> &abort);

    /** EOF claim from the peer: accepted (and the receive window
     *  closed) when @p total == expected(), else Gap. */
    Ingest noteEof(std::uint64_t total);

    /** Next window index the ingest half will accept — the resume
     *  point ACKed back to (re)connecting clients. */
    std::uint64_t expected() const { return expected_.load(); }

    /** Closes the receive window: blocked ingest returns Closed, and
     *  next() drains what arrived and then reports Stalled (or
     *  EndOfStream after an accepted EOF). Idempotent. */
    void closeIngest();

    bool eofKnown() const { return eof_total_.load() >= 0; }

    const std::string &tenantId() const { return tenant_id_; }
    std::uint64_t sessionKey() const { return session_key_; }

    WireSourceStats wireStats() const;

  private:
    void retain(core::Sts sts);
    /** Raises the watched Readiness, if any. */
    void wake();

    const std::string tenant_id_;
    const std::uint64_t session_key_;
    const WireSourceConfig cfg_;

    StsQueue recv_;
    std::atomic<std::uint64_t> expected_{0};
    std::atomic<std::int64_t> eof_total_{-1};
    std::atomic<std::uint64_t> duplicates_{0};
    std::atomic<std::uint64_t> gaps_{0};
    std::atomic<std::uint64_t> ingested_{0};
    /** Guards watcher_: a raise and a detach never overlap, so a
     *  detached target is never touched again. */
    std::mutex watch_mu_;
    Readiness *watcher_ = nullptr;

    // Consumer-half state (session owner only; cursor_ is atomic so
    // position() reads from other threads are clean).
    std::atomic<std::uint64_t> cursor_{0};
    /** Staging for batched recv_ drains: next() pops up to a batch of
     *  windows under one queue lock and hands them out one per call,
     *  instead of paying a mutex round-trip and producer wakeup per
     *  window. Windows here count as received-but-undelivered, same
     *  as windows still inside recv_ — the cursor/retained accounting
     *  only ever sees delivered windows, so seek() semantics are
     *  unchanged. */
    std::vector<core::Sts> pending_;
    std::size_t pending_pos_ = 0;
    std::deque<core::Sts> retained_;
    std::uint64_t retained_base_ = 0;
    /** Start of the current idle spell (first Pending after the last
     *  delivered window); negative while windows flow. */
    double idle_since_ms_ = -1.0;
    std::atomic<std::uint64_t> delivered_{0};
    std::atomic<std::uint64_t> stalls_{0};
};

} // namespace eddie::serve

#endif // EDDIE_SERVE_WIRE_SOURCE_H
