/**
 * @file
 * Byte transports for the EDDIEWIRE protocol: TCP sockets (loopback
 * or remote) and AF_UNIX stream sockets (the "named pipe" transport —
 * a filesystem path, but bidirectional, which NACK/ACK handshakes
 * require), plus socketpair() for in-process tests.
 *
 * Design rules, shared with the rest of the serve layer:
 *
 *  - Blocking fds + poll() deadlines, no global event loop: each
 *    connection already has a dedicated reader thread (the listener's
 *    per-session feeder), so readiness multiplexing would buy
 *    complexity, not throughput, at fleet sizes the scheduler caps.
 *  - Sends use MSG_NOSIGNAL: a vanished peer yields EPIPE/ECONNRESET
 *    through lastErrno(), a *counted connection error*, never a
 *    process-killing SIGPIPE (tools also ignore SIGPIPE for the
 *    non-socket write paths; see tools/signal_util.h).
 *  - Setup failures (bind, listen, connect) throw core::IoError with
 *    errno context; per-connection I/O failures return status codes —
 *    a lost peer is normal operation, a missing listen address is
 *    not.
 */

#ifndef EDDIE_WIRE_TRANSPORT_H
#define EDDIE_WIRE_TRANSPORT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace eddie::wire
{

/** One connected stream endpoint. Movable, owns the fd. */
class Conn
{
  public:
    Conn() = default;
    explicit Conn(int fd) : fd_(fd) {}
    ~Conn();
    Conn(Conn &&other) noexcept;
    Conn &operator=(Conn &&other) noexcept;
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** Writes all @p size bytes (retrying short writes / EINTR).
     *  Blocking — this is where receive-window backpressure lands on
     *  a producer. False on failure with lastErrno() set (EPIPE and
     *  ECONNRESET are the lost-peer cases). */
    bool sendAll(const void *data, std::size_t size);

    enum class RecvStatus
    {
        /** @p got bytes were read (> 0). */
        Data,
        /** Deadline expired with nothing readable. */
        Timeout,
        /** Orderly close by the peer. */
        Closed,
        /** read()/poll() failed; lastErrno() has the cause. */
        Error,
    };

    /** Waits up to @p deadline_ms for readability, then reads once
     *  (up to @p cap bytes). */
    RecvStatus recvSome(void *buf, std::size_t cap, double deadline_ms,
                        std::size_t &got);

    /** Half-close of the send side (peer sees EOF after draining). */
    void shutdownSend();
    /** Full shutdown: wakes a thread blocked in recv/send on this fd
     *  from another thread (reader teardown path). */
    void shutdownBoth();
    void close();

    int lastErrno() const { return last_errno_; }

  private:
    int fd_ = -1;
    int last_errno_ = 0;
};

/** A bound, listening endpoint (TCP or AF_UNIX). */
class Listener
{
  public:
    Listener() = default;
    ~Listener();
    Listener(Listener &&other) noexcept;
    Listener &operator=(Listener &&other) noexcept;
    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /** Binds and listens on @p addr ("host:port", ":0" or "port" =
     *  loopback ephemeral). Throws core::IoError on failure. */
    static Listener tcp(const std::string &addr);

    /** Binds and listens on a filesystem socket path (an existing
     *  stale socket file is replaced). Throws core::IoError. */
    static Listener unixPath(const std::string &path);

    bool valid() const { return fd_ >= 0; }

    /** Accepts one connection, waiting up to @p deadline_ms; an
     *  invalid Conn means timeout or a closed listener. */
    Conn accept(double deadline_ms);

    /** Resolved address: "host:port" for TCP (the ephemeral port is
     *  filled in), the path for AF_UNIX. */
    const std::string &address() const { return address_; }

    /**
     * Wakes every thread inside accept() without releasing the fd:
     * their accept() returns an invalid Conn, and so does every later
     * call. Safe while another thread is inside accept(), which
     * close() is not (it writes the fd and frees its number for
     * reuse). To stop an accepting thread: shutdown(), join, close().
     */
    void shutdown();

    /** Wakes a blocked accept() and closes the fd. The bound socket
     *  file of an AF_UNIX listener is unlinked. Idempotent. Not safe
     *  while another thread is inside accept(); see shutdown(). */
    void close();

  private:
    int fd_ = -1;
    std::string address_;
    std::string unlink_path_;
};

/** Connects to a TCP "host:port". Throws core::IoError on failure. */
Conn connectTcp(const std::string &addr);

/** Connects to an AF_UNIX socket path. Throws core::IoError. */
Conn connectUnix(const std::string &path);

/** Connected AF_UNIX pair (in-process tests; .first ↔ .second). */
std::pair<Conn, Conn> socketPair();

} // namespace eddie::wire

#endif // EDDIE_WIRE_TRANSPORT_H
