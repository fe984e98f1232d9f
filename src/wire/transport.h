/**
 * @file
 * Byte transports for the EDDIEWIRE protocol: TCP sockets (loopback
 * or remote) and AF_UNIX stream sockets (the "named pipe" transport —
 * a filesystem path, but bidirectional, which NACK/ACK handshakes
 * require).
 *
 * Design rules, shared with the rest of the serve layer:
 *
 *  - The server side is one event loop (serve/wire_listener.h): its
 *    listening and accepted sockets are non-blocking, and a Poller
 *    (level-triggered epoll plus one eventfd) tells the loop which of
 *    them are ready, so a listener's threads do not grow with its
 *    connections. The client side (serve/wire_client.h) is one
 *    connection on its own thread and keeps blocking sends with
 *    poll() read deadlines.
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
#include <vector>

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

    /** Writes all @p size bytes (retrying short writes / EINTR). On a
     *  blocking socket (the client's) this is where receive-window
     *  backpressure lands on a producer; on a non-blocking one (the
     *  listener's) a full send buffer fails with EAGAIN. False on
     *  failure with lastErrno() set (EPIPE and ECONNRESET are the
     *  lost-peer cases). */
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
     *  (up to @p cap bytes). A zero deadline reads without waiting. */
    RecvStatus recvSome(void *buf, std::size_t cap, double deadline_ms,
                        std::size_t &got);

    void close();

    int lastErrno() const { return last_errno_; }

  private:
    int fd_ = -1;
    int last_errno_ = 0;
};

/** A bound, listening, non-blocking endpoint (TCP or AF_UNIX). */
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
    int fd() const { return fd_; }

    /** Accepts one pending connection without waiting, as a
     *  non-blocking socket. An invalid Conn means none was pending
     *  (lastErrno() EAGAIN) or the accept failed (e.g. EMFILE). */
    Conn accept();

    int lastErrno() const { return last_errno_; }

    /** Resolved address: "host:port" for TCP (the ephemeral port is
     *  filled in), the path for AF_UNIX. */
    const std::string &address() const { return address_; }

    /** Closes the fd; the bound socket file of an AF_UNIX listener is
     *  unlinked. Idempotent. */
    void close();

  private:
    int fd_ = -1;
    int last_errno_ = 0;
    std::string address_;
    std::string unlink_path_;
};

/**
 * Level-triggered readiness over many fds plus one cross-thread
 * wakeup: epoll and an eventfd, the event loop of a WireListener.
 * Every watched fd carries a tag that wait() reports when the fd is
 * readable, hung up or in error; the wakeup reports kWakeTag. An fd
 * that is not watched reports nothing, so a reader that stops
 * watching a socket stops reading it and TCP pushes back on the peer.
 */
class Poller
{
  public:
    /** Reported by wait() after wake(); never a watched fd's tag. */
    static constexpr std::uint64_t kWakeTag = 0;

    /** Throws core::IoError when epoll or the eventfd cannot be
     *  created. */
    Poller();
    ~Poller();
    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    /** Watches @p fd for reads under @p tag (not kWakeTag); false
     *  with errno set when epoll refuses it. */
    bool add(int fd, std::uint64_t tag);
    /** Stops watching @p fd (before it is closed, or to pause it). */
    void remove(int fd);

    /** Waits up to @p timeout_ms (negative: no limit) for ready fds
     *  and replaces @p tags with theirs; an interrupted wait reports
     *  none. */
    void wait(double timeout_ms, std::vector<std::uint64_t> &tags);

    /** Makes the current or the next wait() report kWakeTag.
     *  Callable from any thread. */
    void wake();

  private:
    int epoll_fd_ = -1;
    int wake_fd_ = -1;
};

/** Connects to a TCP "host:port". Throws core::IoError on failure. */
Conn connectTcp(const std::string &addr);

/** Connects to an AF_UNIX socket path. Throws core::IoError. */
Conn connectUnix(const std::string &path);

} // namespace eddie::wire

#endif // EDDIE_WIRE_TRANSPORT_H
