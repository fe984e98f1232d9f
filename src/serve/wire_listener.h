/**
 * @file
 * Connection-oriented ingestion front end for the fleet runtime
 * (DESIGN.md §11): accepts TCP and AF_UNIX ("named pipe") transports,
 * performs the HELLO handshake, and maps each admitted connection to
 * a WireSource registered through TenantRegistry admission — the same
 * counted admission path in-process sessions use, so a NACKed open
 * shows up in AdmissionStats exactly like a refused openSession().
 *
 * Connection state machine (per connection; §11 has the diagram):
 *
 *   accept → [HELLO before hello_deadline_ms]
 *     silent/partial/bad HELLO .. counted handshake failure, close
 *     unknown/over-quota tenant . NACK(reason) + close, counted
 *     new session, admitted ..... ACK(0), stream
 *     known session ............. close the session's previous
 *                                 connection (reconnect takeover),
 *                                 ACK(expected), stream
 *     new session after freeze .. NACK(admission_closed) + close
 *   stream: STS-BATCH (in order; duplicates dropped, gaps NACKed) |
 *           HEARTBEAT | EOF → ACK(total) + close
 *     full receive window ....... hold the refused tail, stop reading
 *                                 (TCP pushes back); resume when the
 *                                 consumer frees half the window
 *   any malformed frame → NACK(malformed) + close (decoder poisons
 *   the connection; there is no resync — the client reconnects and
 *   replays from its ACK)
 *
 * Threading: one event-loop thread per listener, from start() to
 * drainAndClose(). It owns both listening sockets and every accepted
 * socket (all non-blocking, watched by one wire::Poller), so the
 * listener's thread count does not grow with its connections. The
 * HELLO and idle deadlines are absolute times, and the loop sleeps
 * until the earliest one. A connection that holds a refused tail has
 * no idle deadline: it is waiting for the consumer, not the peer. A
 * silent peer is closed and counted, its session left resumable.
 *
 * Teardown: drainAndClose() wakes the loop, which closes every
 * connection, listening socket and receive window before it exits —
 * called from the SIGINT/SIGTERM path *before* the supervisor writes
 * its final checkpoint, so every session sees its wire end first.
 * Closing a receive window raises the Readiness a source is watched
 * by, so the Supervisor (which owns those) must have returned from
 * its run before; a finished run detaches every source.
 *
 * Admission (registry mutation) happens only on the loop, under the
 * listener mutex, and only until freezeAdmission(); the supervisor
 * requires the session table frozen during runFleet, hence the
 * awaitSessions() → freezeAdmission() → runFleet() call order that
 * tools/eddie_serve.cpp uses. Reconnects of known sessions never
 * touch the registry, so they stay legal mid-run.
 */

#ifndef EDDIE_SERVE_WIRE_LISTENER_H
#define EDDIE_SERVE_WIRE_LISTENER_H

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tenant.h"
#include "wire/decoder.h"
#include "wire/transport.h"
#include "wire_source.h"

namespace eddie::serve
{

struct WireListenerConfig
{
    /** TCP listen address ("host:port", ":0" = loopback ephemeral);
     *  empty disables the TCP transport. */
    std::string tcp;
    /** AF_UNIX socket path; empty disables the pipe transport. */
    std::string unix_path;
    /** No effect: the event loop accepts as soon as a connection is
     *  pending. Kept only because EDDIEBENCH's serve_wire workload
     *  sets it; it goes with the next benchmark change. */
    double accept_poll_ms = 50.0;
    /** A connection must complete its HELLO within this, counted from
     *  its accept. */
    double hello_deadline_ms = 5000.0;
    /** A connection with no traffic (frames or bytes) for this long
     *  is closed (counted). The one dead-peer timer: its session stays
     *  parked and resumable (wire_source.h says what ends it). */
    double idle_timeout_ms = 30000.0;
    /** Receive window / replay tuning of each session's WireSource. */
    WireSourceConfig source;

    /** Throws ServeConfigError naming the field when a deadline is
     *  not finite or not positive: such a deadline closes every
     *  connection before it can deliver a window. */
    void validate() const;
};

/** Listener counters; every refused, malformed, or dropped peer
 *  lands in exactly one of these. */
struct WireListenerStats
{
    std::uint64_t connections_accepted = 0;
    /** Closed connections (every accepted connection eventually
     *  counts). */
    std::uint64_t connections_closed = 0;
    /** No valid HELLO inside hello_deadline_ms. */
    std::uint64_t handshake_failures = 0;
    /** HELLO refused by TenantRegistry admission (NACK + close). */
    std::uint64_t admission_refusals = 0;
    /** New-session HELLO after freezeAdmission() (NACK + close). */
    std::uint64_t late_rejects = 0;
    /** Known-session HELLOs that took over from a dead connection. */
    std::uint64_t reattaches = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t nacks_sent = 0;
    std::uint64_t batches = 0;
    std::uint64_t heartbeats = 0;
    std::uint64_t eofs = 0;
    /** STS-BATCH/EOF frames refused for opening a sequence gap. */
    std::uint64_t sequence_gaps = 0;
    /** Duplicate windows dropped across all sessions. */
    std::uint64_t duplicates_dropped = 0;
    /** EPIPE/ECONNRESET and friends on reads/writes — counted,
     *  never fatal (satellite: a vanished peer is not a crash). */
    std::uint64_t conn_errors = 0;
    std::uint64_t idle_closes = 0;
    std::uint64_t bytes_received = 0;
    /** Decoder taxonomy summed over all connections: every malformed
     *  input is in exactly one bucket. */
    wire::WireStats wire;
};

class WireListener
{
  public:
    /** @p registry must outlive the listener; admission calls happen
     *  on the loop thread until freezeAdmission(). Throws
     *  ServeConfigError when cfg.validate() does. */
    WireListener(TenantRegistry &registry, WireListenerConfig cfg);
    ~WireListener();

    /** Binds the configured transports and starts the event loop.
     *  Throws core::IoError when a bind fails. */
    void start();

    /** Resolved TCP address (ephemeral port filled in); empty when
     *  TCP is disabled. */
    std::string tcpAddress() const;
    /** AF_UNIX path; empty when disabled. */
    std::string pipeAddress() const;

    /** Waits until @p n sessions are admitted or @p timeout_ms
     *  passes; returns the admitted count. */
    std::size_t awaitSessions(std::size_t n, double timeout_ms);

    /** Stops admitting NEW sessions (NACK admission_closed);
     *  reconnects of admitted sessions keep working. Call before
     *  Supervisor::runFleet — the registry must not grow mid-run. */
    void freezeAdmission();

    /** Stops accepting, closes every connection and receive window,
     *  joins the loop. Idempotent, thread-safe; called from the
     *  signal path before the final checkpoint. */
    void drainAndClose();

    WireListenerStats stats() const;

    /** Admitted sessions' sources, admission order (same order as
     *  their TenantRegistry session slots). */
    std::vector<WireSource *> sources() const;

  private:
    /** One accepted socket and its decoder (defined in the .cpp). */
    struct Connection;

    struct SessionSlot
    {
        std::uint64_t tenant_hash = 0;
        std::unique_ptr<WireSource> source;
        /** The connection streaming into the session, if any; a
         *  reconnect closes it (loop thread only). */
        Connection *conn = nullptr;
    };

    /** Raises the loop's wakeup: the ingest wake target of every
     *  source, raised once a refused push has drained to half. */
    struct LoopWake final : Readiness
    {
        wire::Poller &poller;
        explicit LoopWake(wire::Poller &p) : poller(p) {}
        void raise() override { poller.wake(); }
    };

    void loop();
    void acceptAll(wire::Listener &listener);
    /** One read from a ready socket, then every frame it completes. */
    void onReadable(Connection &c);
    /** Dispatches buffered frames until the decoder needs bytes, the
     *  receive window refuses a batch, or the connection closes. */
    void pump(Connection &c);
    /** HELLO → session slot (admission or takeover); false when the
     *  connection was refused and closed. */
    bool handshake(Connection &c, const wire::Decoded &d);
    /** One streaming frame's state transition; false ends the
     *  connection. */
    bool dispatch(Connection &c, const wire::Decoded &d);
    /** Offers the held batch (first window @p first_seq) to the
     *  session's receive window; pauses the connection while the
     *  window refuses part of it, resumes it once all is taken. False
     *  ends the connection. */
    bool offerHeld(Connection &c, std::uint64_t first_seq);
    /** Retries the held tail of every paused connection. */
    void resumePaused();
    /** Closes connections whose HELLO or idle deadline has passed. */
    void expireDeadlines(double now_ms);
    /** Sets @p c's deadline and pulls the loop's next wake-up in. */
    void setDeadline(Connection &c, double deadline_ms);
    void closeConn(Connection &c);
    void closeAll();
    bool sendAck(Connection &c, std::uint64_t sequence);
    void sendNack(Connection &c, std::uint64_t tenant,
                  std::uint64_t session, std::uint64_t sequence,
                  wire::NackCode code, const std::string &msg);

    TenantRegistry &registry_;
    const WireListenerConfig cfg_;

    /** Declared before sessions_, whose sources raise wake_. */
    wire::Poller poller_;
    LoopWake wake_{poller_};

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::unique_ptr<SessionSlot>>
        sessions_;
    std::vector<WireSource *> sources_;
    WireListenerStats stats_;
    bool frozen_ = false;
    bool stopping_ = false;
    bool started_ = false;

    wire::Listener tcp_listener_;
    wire::Listener pipe_listener_;
    std::thread loop_;

    // Loop-thread state.
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>>
        conns_;
    std::uint64_t next_tag_ = 0;
    /** Connections holding a refused tail, by tag. */
    std::vector<std::uint64_t> paused_;
    /** Earliest deadline of any connection (a lower bound: deadlines
     *  only move later between scans). */
    double next_deadline_ms_ = 0.0;
    /** A listening socket stopped after a failed accept (EMFILE):
     *  watched again once a connection closes. */
    bool accept_paused_ = false;
    std::vector<char> read_buf_;
};

} // namespace eddie::serve

#endif // EDDIE_SERVE_WIRE_LISTENER_H
