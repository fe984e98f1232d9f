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
 *   accept → [HELLO within hello_deadline_ms]
 *     bad/late HELLO ............ counted handshake failure, close
 *     unknown/over-quota tenant . NACK(reason) + close, counted
 *     new session, admitted ..... ACK(0), stream
 *     known session ............. take over from the previous reader
 *                                 (reconnect), ACK(expected), stream
 *     new session after freeze .. NACK(admission_closed) + close
 *   stream: STS-BATCH (in order; duplicates dropped, gaps NACKed) |
 *           HEARTBEAT | EOF → ACK(total) + close
 *   any malformed frame → NACK(malformed) + close (decoder poisons
 *   the connection; there is no resync — the client reconnects and
 *   replays from its ACK)
 *
 * Liveness: per-connection read deadlines (poll slices) and an idle
 * timeout; a silent peer is closed and counted, its session left
 * resumable. Teardown: drainAndClose() stops accepting, closes every
 * connection and receive window, and joins all threads — called from
 * the SIGINT/SIGTERM path *before* the supervisor writes its final
 * checkpoint, so every session sees its wire end first. Closing a
 * receive window raises the Readiness a source is watched by, so the
 * Supervisor (which owns those) must have returned from its run
 * before; a finished run detaches every source.
 *
 * Threading: one accept thread per transport, one reader thread per
 * live connection. Admission (registry mutation) happens only under
 * the listener mutex and only until freezeAdmission(); the supervisor
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
    /** Accept-poll slice (bounds drainAndClose latency). */
    double accept_poll_ms = 50.0;
    /** A connection must complete its HELLO within this. */
    double hello_deadline_ms = 5000.0;
    /** Read-poll slice of the per-connection reader. */
    double read_poll_ms = 50.0;
    /** A connection with no traffic (frames or bytes) for this long
     *  is closed (counted; the session stays resumable). */
    double idle_timeout_ms = 30000.0;
    /** recv() chunk size. */
    std::size_t read_chunk = 64 * 1024;
    /** Frame payload cap (decoder buffering bound per connection). */
    std::size_t max_payload = wire::kDefaultMaxPayload;
    /** Receive window / replay tuning of each session's WireSource. */
    WireSourceConfig source;
};

/** Listener counters; every refused, malformed, or dropped peer
 *  lands in exactly one of these. */
struct WireListenerStats
{
    std::uint64_t connections_accepted = 0;
    /** Reader exits (every accepted connection eventually counts). */
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
     *  on listener threads until freezeAdmission(). */
    WireListener(TenantRegistry &registry, WireListenerConfig cfg);
    ~WireListener();

    /** Binds the configured transports and starts accepting. Throws
     *  core::IoError when a bind fails. */
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
     *  joins all listener threads. Idempotent, thread-safe; called
     *  from the signal path before the final checkpoint. */
    void drainAndClose();

    WireListenerStats stats() const;

    /** Admitted sessions' sources, admission order (same order as
     *  their TenantRegistry session slots). */
    std::vector<WireSource *> sources() const;

  private:
    struct SessionSlot
    {
        std::string tenant_id;
        std::uint64_t tenant_hash = 0;
        std::uint64_t session_key = 0;
        std::unique_ptr<WireSource> source;
        /** Generation of the connection allowed to ingest; bumping
         *  it (reconnect takeover, drain) aborts the old reader. */
        std::uint64_t generation = 0;
        bool reader_active = false;
        /** Live connection of the active reader (shutdown target). */
        wire::Conn *active_conn = nullptr;
    };

    /** Per-connection carry-buffer read pump (defined in the .cpp). */
    struct Pump;

    void acceptLoop(wire::Listener *listener);
    void handleConnection(wire::Conn conn);
    /** HELLO → session slot (admission or takeover); nullptr when
     *  the connection was refused and closed. */
    SessionSlot *handshake(wire::Conn &conn, Pump &pump,
                           std::uint64_t &generation);
    void streamLoop(wire::Conn &conn, Pump &pump, SessionSlot &slot,
                    std::uint64_t generation);
    /** One frame's state transition; false ends the connection. */
    bool dispatch(wire::Conn &conn, SessionSlot &slot,
                  std::uint64_t generation, const wire::Decoded &d);
    void sendAck(wire::Conn &conn, const SessionSlot &slot,
                 std::uint64_t sequence);
    void sendNack(wire::Conn &conn, std::uint64_t tenant,
                  std::uint64_t session, std::uint64_t sequence,
                  wire::NackCode code, const std::string &msg);

    TenantRegistry &registry_;
    const WireListenerConfig cfg_;

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
    std::vector<std::thread> accept_threads_;
    std::vector<std::thread> readers_;
};

} // namespace eddie::serve

#endif // EDDIE_SERVE_WIRE_LISTENER_H
