#include "wire_listener.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <limits>

#include "core/capture_io.h"
#include "core/errors.h"
#include "scheduler.h"

namespace eddie::serve
{

using wire::DecodeStatus;
using wire::FrameType;
using wire::NackCode;

namespace
{

constexpr std::uint64_t kTcpTag = 1;
constexpr std::uint64_t kPipeTag = 2;
constexpr std::uint64_t kFirstConnTag = 3;
/** Most bytes one read takes from a ready socket. */
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/** Steady-clock milliseconds (monotonic; only differences matter). */
double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

NackCode
nackCodeFor(ShedReason reason)
{
    switch (reason) {
    case ShedReason::FleetSessionLimit:
        return NackCode::FleetSessionLimit;
    case ShedReason::TenantSessionLimit:
        return NackCode::TenantSessionLimit;
    case ShedReason::UnknownTenant:
        return NackCode::UnknownTenant;
    case ShedReason::BreakerOpen:
        return NackCode::BreakerOpen;
    case ShedReason::RateShed:
        break; // not an admission outcome
    }
    return NackCode::ProtocolError;
}

} // namespace

/** One accepted socket: its decoder, its deadline, and the tail of an
 *  STS-BATCH the receive window refused. */
struct WireListener::Connection
{
    std::uint64_t tag = 0;
    wire::Conn conn;
    wire::FrameDecoder dec;
    /** Null until a HELLO attaches the connection to a session. */
    SessionSlot *slot = nullptr;
    /** HELLO deadline while handshaking, then the idle deadline;
     *  none while paused. */
    double deadline_ms = kNoDeadline;
    /** Refused tail of an STS-BATCH; while it is held the connection
     *  is paused: unwatched, so nothing more is read from it. */
    std::vector<core::Sts> held;
    bool paused = false;
    bool peer_closed = false;
    std::uint64_t bytes = 0;

    Connection(std::uint64_t t, wire::Conn c, std::size_t max_payload)
        : tag(t), conn(std::move(c)),
          dec(wire::FrameDecoderConfig{max_payload})
    {
    }
};

void
WireListenerConfig::validate() const
{
    for (const auto &[ms, field] :
         {std::pair{hello_deadline_ms, "listener.hello_deadline_ms"},
          std::pair{idle_timeout_ms, "listener.idle_timeout_ms"}})
        if (!std::isfinite(ms) || ms <= 0.0)
            throw ServeConfigError(field, "must be finite and > 0");
}

WireListener::WireListener(TenantRegistry &registry,
                           WireListenerConfig cfg)
    : registry_(registry), cfg_(std::move(cfg)),
      next_tag_(kFirstConnTag), read_buf_(kReadChunk)
{
    cfg_.validate();
}

WireListener::~WireListener()
{
    drainAndClose();
}

void
WireListener::start()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (started_ || stopping_)
            return;
        started_ = true;
    }
    if (!cfg_.tcp.empty())
        tcp_listener_ = wire::Listener::tcp(cfg_.tcp);
    if (!cfg_.unix_path.empty())
        pipe_listener_ = wire::Listener::unixPath(cfg_.unix_path);
    if ((tcp_listener_.valid() &&
         !poller_.add(tcp_listener_.fd(), kTcpTag)) ||
        (pipe_listener_.valid() &&
         !poller_.add(pipe_listener_.fd(), kPipeTag)))
        throw core::ioErrorErrno("wire: epoll_ctl", "<listener>");
    std::lock_guard<std::mutex> lock(mu_);
    loop_ = std::thread(&WireListener::loop, this);
}

std::string
WireListener::tcpAddress() const
{
    return tcp_listener_.valid() ? tcp_listener_.address()
                                 : std::string();
}

std::string
WireListener::pipeAddress() const
{
    return pipe_listener_.valid() ? pipe_listener_.address()
                                  : std::string();
}

void
WireListener::loop()
{
    next_deadline_ms_ = kNoDeadline;
    std::vector<std::uint64_t> ready;
    for (;;) {
        poller_.wait(next_deadline_ms_ == kNoDeadline
                         ? -1.0
                         : std::max(0.0, next_deadline_ms_ - nowMs()),
                     ready);
        for (const std::uint64_t tag : ready) {
            if (tag == wire::Poller::kWakeTag) {
                bool stopping = false;
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    stopping = stopping_;
                }
                if (stopping) {
                    closeAll();
                    return;
                }
                resumePaused();
            } else if (tag == kTcpTag) {
                acceptAll(tcp_listener_);
            } else if (tag == kPipeTag) {
                acceptAll(pipe_listener_);
            } else {
                // A tag closed earlier in this batch is simply gone.
                const auto it = conns_.find(tag);
                if (it != conns_.end())
                    onReadable(*it->second);
            }
        }
        const double now = nowMs();
        if (now >= next_deadline_ms_)
            expireDeadlines(now);
    }
}

void
WireListener::acceptAll(wire::Listener &listener)
{
    for (;;) {
        wire::Conn conn = listener.accept();
        if (!conn.valid()) {
            const int err = listener.lastErrno();
            if (err == EINTR || err == ECONNABORTED)
                continue;
            if (err != EAGAIN && err != EWOULDBLOCK) {
                // Out of fds or buffers: a still-readable listening
                // socket would spin the loop, so stop watching both
                // until a connection closes.
                poller_.remove(tcp_listener_.fd());
                poller_.remove(pipe_listener_.fd());
                accept_paused_ = true;
            }
            return;
        }
        const std::uint64_t tag = next_tag_++;
        const int fd = conn.fd();
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.connections_accepted;
        }
        if (!poller_.add(fd, tag)) {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.conn_errors;
            ++stats_.connections_closed;
            continue; // conn closes on scope exit
        }
        auto c = std::make_unique<Connection>(tag, std::move(conn),
                                              cfg_.max_payload);
        setDeadline(*c, nowMs() + cfg_.hello_deadline_ms);
        conns_.emplace(tag, std::move(c));
    }
}

void
WireListener::onReadable(Connection &c)
{
    // pump() leaves a watched connection's decoder short of one whole
    // frame, so it has room, and a read never takes more than fits:
    // no bytes wait outside the decoder.
    const std::size_t room =
        std::min(read_buf_.size(), c.dec.capacity() - c.dec.buffered());
    std::size_t got = 0;
    switch (c.conn.recvSome(read_buf_.data(), room, 0.0, got)) {
    case wire::Conn::RecvStatus::Data:
        c.bytes += got;
        c.dec.feed(read_buf_.data(), got);
        if (c.slot != nullptr)
            setDeadline(c, nowMs() + cfg_.idle_timeout_ms);
        break;
    case wire::Conn::RecvStatus::Timeout:
        return; // nothing to read after all
    case wire::Conn::RecvStatus::Closed:
        c.peer_closed = true;
        c.dec.endOfInput();
        break;
    case wire::Conn::RecvStatus::Error: {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.conn_errors;
            if (c.slot == nullptr)
                ++stats_.handshake_failures;
        }
        closeConn(c);
        return;
    }
    }
    pump(c);
}

void
WireListener::pump(Connection &c)
{
    for (;;) {
        const wire::Decoded d = c.dec.next();
        if (d.status == DecodeStatus::NeedMore) {
            if (c.peer_closed) {
                // Clean EOF; a truncated frame was counted above.
                if (c.slot == nullptr) {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++stats_.handshake_failures;
                }
                closeConn(c);
            }
            return;
        }
        if (d.status == DecodeStatus::Error) {
            // The decoder counted the typed error; answer and drop.
            std::uint64_t tenant = 0, session = 0;
            if (c.slot == nullptr) {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.handshake_failures;
            } else {
                tenant = c.slot->tenant_hash;
                session = c.slot->source->sessionKey();
            }
            sendNack(c, tenant, session, 0, NackCode::MalformedFrame,
                     wire::name(d.error));
            closeConn(c);
            return;
        }
        const bool keep =
            c.slot == nullptr ? handshake(c, d) : dispatch(c, d);
        if (!keep) {
            closeConn(c);
            return;
        }
        if (c.paused)
            return;
    }
}

bool
WireListener::handshake(Connection &c, const wire::Decoded &d)
{
    std::string tenant_id;
    if (d.header.type != FrameType::Hello ||
        !wire::decodeHelloPayload(d.payload, d.header.payload_len,
                                  tenant_id) ||
        wire::tenantHash(tenant_id) != d.header.tenant) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.handshake_failures;
            stats_.wire.count(d.header.type == FrameType::Hello
                                  ? wire::WireError::BadPayload
                                  : wire::WireError::Protocol);
        }
        sendNack(c, d.header.tenant, d.header.session, 0,
                 NackCode::ProtocolError, "bad hello");
        return false;
    }

    const std::pair<std::uint64_t, std::uint64_t> key{
        d.header.tenant, d.header.session};
    SessionSlot *slot = nullptr;
    {
        std::unique_lock<std::mutex> lock(mu_);
        const auto it = sessions_.find(key);
        if (it != sessions_.end()) {
            slot = it->second.get();
            ++stats_.reattaches;
        } else if (frozen_ || stopping_) {
            ++stats_.late_rejects;
            lock.unlock();
            sendNack(c, d.header.tenant, d.header.session, 0,
                     NackCode::AdmissionClosed, "admission closed");
            return false;
        } else {
            auto fresh = std::make_unique<SessionSlot>();
            fresh->tenant_hash = d.header.tenant;
            fresh->source = std::make_unique<WireSource>(
                tenant_id, d.header.session, cfg_.source, &wake_);
            const TenantRegistry::OpenResult res =
                registry_.openSession(tenant_id, fresh->source.get());
            if (!res.admitted) {
                ++stats_.admission_refusals;
                lock.unlock();
                sendNack(c, d.header.tenant, d.header.session, 0,
                         nackCodeFor(res.reason), name(res.reason));
                return false;
            }
            slot = fresh.get();
            sources_.push_back(slot->source.get());
            sessions_.emplace(key, std::move(fresh));
            cv_.notify_all();
        }
    }
    // Reconnect takeover: the session's previous connection closes
    // here, on this thread, with whatever tail it held (the client
    // replays from the ACK below).
    if (slot->conn != nullptr)
        closeConn(*slot->conn);
    slot->conn = &c;
    c.slot = slot;
    setDeadline(c, nowMs() + cfg_.idle_timeout_ms);
    return sendAck(c, slot->source->expected());
}

bool
WireListener::dispatch(Connection &c, const wire::Decoded &d)
{
    const std::uint64_t tenant = c.slot->tenant_hash;
    const std::uint64_t session = c.slot->source->sessionKey();
    if (d.header.tenant != tenant || d.header.session != session) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.wire.count(wire::WireError::Protocol);
        }
        sendNack(c, tenant, session, d.header.sequence,
                 NackCode::ProtocolError, "session mismatch");
        return false;
    }
    switch (d.header.type) {
    case FrameType::StsBatch: {
        try {
            c.held = core::decodeStsPayload(d.payload,
                                            d.header.payload_len);
        } catch (const core::Error &) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                stats_.wire.count(wire::WireError::BadPayload);
            }
            sendNack(c, tenant, session, d.header.sequence,
                     NackCode::MalformedFrame, "bad sts payload");
            return false;
        }
        return offerHeld(c, d.header.sequence);
    }
    case FrameType::Heartbeat: {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.heartbeats;
        return true;
    }
    case FrameType::Eof: {
        if (c.slot->source->noteEof(d.header.sequence) ==
            WireSource::Ingest::Ok) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.eofs;
            }
            sendAck(c, d.header.sequence);
            return false; // stream complete; close
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.sequence_gaps;
            stats_.wire.count(wire::WireError::SequenceGap);
        }
        sendNack(c, tenant, session, d.header.sequence,
                 NackCode::SequenceGap, "eof below expected");
        return false;
    }
    case FrameType::Hello:
    case FrameType::Ack:
    case FrameType::Nack: {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.wire.count(wire::WireError::Protocol);
        }
        sendNack(c, tenant, session, d.header.sequence,
                 NackCode::ProtocolError, "unexpected frame type");
        return false;
    }
    }
    return false;
}

bool
WireListener::offerHeld(Connection &c, std::uint64_t first_seq)
{
    switch (c.slot->source->ingest(first_seq, c.held)) {
    case WireSource::Ingest::Ok: {
        if (c.paused) {
            // The window took the rest: read the socket again.
            c.paused = false;
            paused_.erase(
                std::find(paused_.begin(), paused_.end(), c.tag));
            if (!poller_.add(c.conn.fd(), c.tag)) {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.conn_errors;
                return false;
            }
            setDeadline(c, nowMs() + cfg_.idle_timeout_ms);
        }
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.batches;
        return true;
    }
    case WireSource::Ingest::Full:
        if (!c.paused) {
            // Stop reading: TCP pushes back on the sender until the
            // consumer frees half the window and raises wake_.
            c.paused = true;
            paused_.push_back(c.tag);
            poller_.remove(c.conn.fd());
            c.deadline_ms = kNoDeadline;
        }
        return true;
    case WireSource::Ingest::Gap: {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.sequence_gaps;
            stats_.wire.count(wire::WireError::SequenceGap);
        }
        sendNack(c, c.slot->tenant_hash, c.slot->source->sessionKey(),
                 first_seq, NackCode::SequenceGap, "sequence gap");
        return false;
    }
    case WireSource::Ingest::Closed:
        return false;
    }
    return false;
}

void
WireListener::resumePaused()
{
    // A copy: an offer may close its connection.
    const std::vector<std::uint64_t> tags = paused_;
    for (const std::uint64_t tag : tags) {
        const auto it = conns_.find(tag);
        if (it == conns_.end())
            continue;
        Connection &c = *it->second;
        // The held tail starts at expected(): only this connection
        // ingests into the session while it holds one.
        if (!offerHeld(c, c.slot->source->expected()))
            closeConn(c);
        else if (!c.paused)
            pump(c);
    }
}

void
WireListener::expireDeadlines(double now_ms)
{
    std::vector<std::uint64_t> expired;
    next_deadline_ms_ = kNoDeadline;
    for (const auto &entry : conns_) {
        const double deadline = entry.second->deadline_ms;
        if (deadline <= now_ms)
            expired.push_back(entry.first);
        else
            next_deadline_ms_ = std::min(next_deadline_ms_, deadline);
    }
    for (const std::uint64_t tag : expired) {
        Connection &c = *conns_.at(tag);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (c.slot == nullptr)
                ++stats_.handshake_failures;
            else
                ++stats_.idle_closes;
        }
        closeConn(c);
    }
}

void
WireListener::setDeadline(Connection &c, double deadline_ms)
{
    c.deadline_ms = deadline_ms;
    next_deadline_ms_ = std::min(next_deadline_ms_, deadline_ms);
}

void
WireListener::closeConn(Connection &c)
{
    if (c.paused)
        paused_.erase(std::find(paused_.begin(), paused_.end(), c.tag));
    else
        poller_.remove(c.conn.fd());
    if (c.slot != nullptr && c.slot->conn == &c)
        c.slot->conn = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.wire.merge(c.dec.stats());
        stats_.bytes_received += c.bytes;
        ++stats_.connections_closed;
    }
    if (accept_paused_) {
        accept_paused_ = false;
        if (tcp_listener_.valid())
            poller_.add(tcp_listener_.fd(), kTcpTag);
        if (pipe_listener_.valid())
            poller_.add(pipe_listener_.fd(), kPipeTag);
    }
    const std::uint64_t tag = c.tag;
    conns_.erase(tag); // closes the socket
}

void
WireListener::closeAll()
{
    while (!conns_.empty())
        closeConn(*conns_.begin()->second);
    tcp_listener_.close();
    pipe_listener_.close();
    // Closing a receive window lets its session drain to Stalled (or
    // EndOfStream) and detaches the source from wake_.
    std::lock_guard<std::mutex> lock(mu_);
    for (WireSource *src : sources_)
        src->closeIngest();
}

bool
WireListener::sendAck(Connection &c, std::uint64_t sequence)
{
    wire::FrameHeader h;
    h.type = FrameType::Ack;
    h.tenant = c.slot->tenant_hash;
    h.session = c.slot->source->sessionKey();
    h.sequence = sequence;
    const std::string bytes = wire::encodeFrame(h, std::string());
    // The socket is non-blocking: an ACK that does not fit its send
    // buffer fails like a lost peer, and the connection closes.
    const bool sent = c.conn.sendAll(bytes.data(), bytes.size());
    std::lock_guard<std::mutex> lock(mu_);
    if (sent)
        ++stats_.acks_sent;
    else
        ++stats_.conn_errors;
    return sent;
}

void
WireListener::sendNack(Connection &c, std::uint64_t tenant,
                       std::uint64_t session, std::uint64_t sequence,
                       NackCode code, const std::string &msg)
{
    wire::FrameHeader h;
    h.type = FrameType::Nack;
    h.tenant = tenant;
    h.session = session;
    h.sequence = sequence;
    const std::string bytes =
        wire::encodeFrame(h, wire::encodeNackPayload(code, msg));
    const bool sent = c.conn.sendAll(bytes.data(), bytes.size());
    std::lock_guard<std::mutex> lock(mu_);
    if (sent)
        ++stats_.nacks_sent;
    else
        ++stats_.conn_errors;
}

std::size_t
WireListener::awaitSessions(std::size_t n, double timeout_ms)
{
    std::unique_lock<std::mutex> lock(mu_);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(timeout_ms));
    cv_.wait_until(lock, deadline, [this, n]() {
        return stopping_ || sources_.size() >= n;
    });
    return sources_.size();
}

void
WireListener::freezeAdmission()
{
    std::lock_guard<std::mutex> lock(mu_);
    frozen_ = true;
}

void
WireListener::drainAndClose()
{
    std::thread loop;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
        loop.swap(loop_);
        cv_.notify_all();
    }
    // The loop closes every socket and receive window on this wakeup.
    poller_.wake();
    if (loop.joinable())
        loop.join();
}

WireListenerStats
WireListener::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    WireListenerStats out = stats_;
    for (const WireSource *src : sources_) {
        const WireSourceStats ws = src->wireStats();
        out.duplicates_dropped += ws.duplicates_dropped;
    }
    return out;
}

std::vector<WireSource *>
WireListener::sources() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sources_;
}

} // namespace eddie::serve
