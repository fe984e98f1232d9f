#include "wire_listener.h"

#include <chrono>

#include "core/capture_io.h"
#include "core/errors.h"

namespace eddie::serve
{

using wire::DecodeStatus;
using wire::FrameType;
using wire::NackCode;

namespace
{

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

/**
 * Per-connection read pump: one carry buffer + decoder feed loop, so
 * bytes read during the handshake are never lost when the connection
 * moves on to streaming (a pipelining client may send HELLO and its
 * first batch in one segment).
 */
struct WireListener::Pump
{
    wire::Conn &conn;
    wire::FrameDecoder &dec;
    std::vector<char> buf;
    std::size_t off = 0;
    std::size_t len = 0;
    bool peer_closed = false;
    bool io_error = false;
    std::uint64_t bytes = 0;

    Pump(wire::Conn &c, wire::FrameDecoder &d, std::size_t chunk)
        : conn(c), dec(d), buf(chunk)
    {
    }

    /** One decode attempt, waiting at most @p slice_ms for bytes.
     *  NeedMore means timeout, peer close, or I/O error — the flags
     *  say which. */
    wire::Decoded step(double slice_ms)
    {
        for (;;) {
            wire::Decoded d = dec.next();
            if (d.status != DecodeStatus::NeedMore)
                return d;
            if (off < len) {
                // A full decoder always yields Frame/Error on the
                // next next(), so feed() == 0 cannot livelock here.
                off += dec.feed(buf.data() + off, len - off);
                continue;
            }
            if (peer_closed) {
                dec.endOfInput();
                return dec.next();
            }
            std::size_t got = 0;
            switch (conn.recvSome(buf.data(), buf.size(), slice_ms,
                                  got)) {
            case wire::Conn::RecvStatus::Data:
                off = 0;
                len = got;
                bytes += got;
                continue;
            case wire::Conn::RecvStatus::Timeout:
                return d;
            case wire::Conn::RecvStatus::Closed:
                peer_closed = true;
                continue;
            case wire::Conn::RecvStatus::Error:
                io_error = true;
                return d;
            }
        }
    }
};

WireListener::WireListener(TenantRegistry &registry,
                           WireListenerConfig cfg)
    : registry_(registry), cfg_(std::move(cfg))
{
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
    std::lock_guard<std::mutex> lock(mu_);
    if (tcp_listener_.valid())
        accept_threads_.emplace_back(&WireListener::acceptLoop, this,
                                     &tcp_listener_);
    if (pipe_listener_.valid())
        accept_threads_.emplace_back(&WireListener::acceptLoop, this,
                                     &pipe_listener_);
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
WireListener::acceptLoop(wire::Listener *listener)
{
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (stopping_)
                return;
        }
        wire::Conn conn = listener->accept(cfg_.accept_poll_ms);
        if (!conn.valid())
            continue;
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_)
            return; // conn closes on scope exit
        ++stats_.connections_accepted;
        readers_.emplace_back(&WireListener::handleConnection, this,
                              std::move(conn));
    }
}

void
WireListener::handleConnection(wire::Conn conn)
{
    wire::FrameDecoder dec(
        wire::FrameDecoderConfig{cfg_.max_payload});
    Pump pump(conn, dec, cfg_.read_chunk);
    std::uint64_t generation = 0;
    SessionSlot *slot = handshake(conn, pump, generation);
    if (slot != nullptr)
        streamLoop(conn, pump, *slot, generation);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.wire.merge(dec.stats());
    stats_.bytes_received += pump.bytes;
    ++stats_.connections_closed;
    if (slot != nullptr) {
        // We were the session's active reader; hand the slot back so
        // a reconnect can take over.
        slot->reader_active = false;
        slot->active_conn = nullptr;
        cv_.notify_all();
    }
}

WireListener::SessionSlot *
WireListener::handshake(wire::Conn &conn, Pump &pump,
                        std::uint64_t &generation)
{
    wire::Decoded d;
    double waited_ms = 0.0;
    for (;;) {
        d = pump.step(cfg_.read_poll_ms);
        if (d.status != DecodeStatus::NeedMore)
            break;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (stopping_)
                return nullptr;
        }
        if (pump.io_error || pump.peer_closed) {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.handshake_failures;
            if (pump.io_error)
                ++stats_.conn_errors;
            return nullptr;
        }
        waited_ms += cfg_.read_poll_ms;
        if (waited_ms >= cfg_.hello_deadline_ms) {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.handshake_failures;
            return nullptr;
        }
    }
    if (d.status == DecodeStatus::Error) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.handshake_failures;
        }
        sendNack(conn, 0, 0, 0, NackCode::MalformedFrame,
                 wire::name(d.error));
        return nullptr;
    }
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
        sendNack(conn, d.header.tenant, d.header.session, 0,
                 NackCode::ProtocolError, "bad hello");
        return nullptr;
    }

    const std::pair<std::uint64_t, std::uint64_t> key{
        d.header.tenant, d.header.session};
    std::unique_lock<std::mutex> lock(mu_);
    auto it = sessions_.find(key);
    if (it == sessions_.end()) {
        if (frozen_ || stopping_) {
            ++stats_.late_rejects;
            lock.unlock();
            sendNack(conn, d.header.tenant, d.header.session, 0,
                     NackCode::AdmissionClosed, "admission closed");
            return nullptr;
        }
        auto slot = std::make_unique<SessionSlot>();
        slot->tenant_id = tenant_id;
        slot->tenant_hash = d.header.tenant;
        slot->session_key = d.header.session;
        slot->source = std::make_unique<WireSource>(
            tenant_id, d.header.session, cfg_.source);
        const TenantRegistry::OpenResult res =
            registry_.openSession(tenant_id, slot->source.get());
        if (!res.admitted) {
            ++stats_.admission_refusals;
            const NackCode code = nackCodeFor(res.reason);
            lock.unlock();
            sendNack(conn, d.header.tenant, d.header.session, 0,
                     code, name(res.reason));
            return nullptr;
        }
        SessionSlot *raw = slot.get();
        sources_.push_back(raw->source.get());
        raw->generation = 1;
        raw->reader_active = true;
        raw->active_conn = &conn;
        sessions_.emplace(key, std::move(slot));
        cv_.notify_all();
        generation = raw->generation;
        lock.unlock();
        sendAck(conn, *raw, raw->source->expected());
        return raw;
    }

    // Known session: take over from the previous reader (reconnect).
    SessionSlot &slot = *it->second;
    ++slot.generation;
    generation = slot.generation;
    if (slot.active_conn != nullptr)
        slot.active_conn->shutdownBoth();
    while (slot.reader_active) {
        if (stopping_)
            return nullptr;
        cv_.wait_for(lock, std::chrono::milliseconds(20));
    }
    slot.reader_active = true;
    slot.active_conn = &conn;
    ++stats_.reattaches;
    lock.unlock();
    sendAck(conn, slot, slot.source->expected());
    return &slot;
}

void
WireListener::streamLoop(wire::Conn &conn, Pump &pump,
                         SessionSlot &slot, std::uint64_t generation)
{
    const auto superseded = [this, &slot, generation]() {
        std::lock_guard<std::mutex> lock(mu_);
        return stopping_ || slot.generation != generation;
    };
    double idle_ms = 0.0;
    for (;;) {
        if (superseded())
            return;
        const std::uint64_t bytes_before = pump.bytes;
        const wire::Decoded d = pump.step(cfg_.read_poll_ms);
        if (d.status == DecodeStatus::Error) {
            // Decoder counted the typed error; answer and drop.
            sendNack(conn, slot.tenant_hash, slot.session_key, 0,
                     NackCode::MalformedFrame, wire::name(d.error));
            return;
        }
        if (d.status == DecodeStatus::Frame) {
            idle_ms = 0.0;
            if (!dispatch(conn, slot, generation, d))
                return;
            continue;
        }
        if (pump.io_error) {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.conn_errors;
            return;
        }
        if (pump.peer_closed)
            return; // clean EOF; truncation already counted
        if (pump.bytes != bytes_before) {
            idle_ms = 0.0;
            continue;
        }
        idle_ms += cfg_.read_poll_ms;
        if (idle_ms >= cfg_.idle_timeout_ms) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.idle_closes;
            }
            return;
        }
    }
}

bool
WireListener::dispatch(wire::Conn &conn, SessionSlot &slot,
                       std::uint64_t generation,
                       const wire::Decoded &d)
{
    if (d.header.tenant != slot.tenant_hash ||
        d.header.session != slot.session_key) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.wire.count(wire::WireError::Protocol);
        }
        sendNack(conn, slot.tenant_hash, slot.session_key,
                 d.header.sequence, NackCode::ProtocolError,
                 "session mismatch");
        return false;
    }
    switch (d.header.type) {
    case FrameType::StsBatch: {
        std::vector<core::Sts> batch;
        try {
            batch = core::decodeStsPayload(d.payload,
                                           d.header.payload_len);
        } catch (const core::Error &) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                stats_.wire.count(wire::WireError::BadPayload);
            }
            sendNack(conn, slot.tenant_hash, slot.session_key,
                     d.header.sequence, NackCode::MalformedFrame,
                     "bad sts payload");
            return false;
        }
        const auto abort = [this, &slot, generation]() {
            std::lock_guard<std::mutex> lock(mu_);
            return stopping_ || slot.generation != generation;
        };
        switch (slot.source->ingest(d.header.sequence,
                                    std::move(batch), abort)) {
        case WireSource::Ingest::Ok: {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.batches;
            return true;
        }
        case WireSource::Ingest::Gap: {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.sequence_gaps;
                stats_.wire.count(wire::WireError::SequenceGap);
            }
            sendNack(conn, slot.tenant_hash, slot.session_key,
                     d.header.sequence, NackCode::SequenceGap,
                     "sequence gap");
            return false;
        }
        case WireSource::Ingest::Closed:
        case WireSource::Ingest::Aborted:
            return false;
        }
        return false;
    }
    case FrameType::Heartbeat: {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.heartbeats;
        return true;
    }
    case FrameType::Eof: {
        switch (slot.source->noteEof(d.header.sequence)) {
        case WireSource::Ingest::Ok: {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.eofs;
            }
            sendAck(conn, slot, d.header.sequence);
            return false; // stream complete; close
        }
        default: {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.sequence_gaps;
                stats_.wire.count(wire::WireError::SequenceGap);
            }
            sendNack(conn, slot.tenant_hash, slot.session_key,
                     d.header.sequence, NackCode::SequenceGap,
                     "eof below expected");
            return false;
        }
        }
    }
    case FrameType::Hello:
    case FrameType::Ack:
    case FrameType::Nack: {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.wire.count(wire::WireError::Protocol);
        }
        sendNack(conn, slot.tenant_hash, slot.session_key,
                 d.header.sequence, NackCode::ProtocolError,
                 "unexpected frame type");
        return false;
    }
    }
    return false;
}

void
WireListener::sendAck(wire::Conn &conn, const SessionSlot &slot,
                      std::uint64_t sequence)
{
    wire::FrameHeader h;
    h.type = FrameType::Ack;
    h.tenant = slot.tenant_hash;
    h.session = slot.session_key;
    h.sequence = sequence;
    const std::string bytes = wire::encodeFrame(h, std::string());
    // Send outside mu_: a non-reading peer may block sendAll, and
    // drainAndClose needs the lock to shut that very peer down.
    const bool sent = conn.sendAll(bytes.data(), bytes.size());
    std::lock_guard<std::mutex> lock(mu_);
    if (sent)
        ++stats_.acks_sent;
    else
        ++stats_.conn_errors;
}

void
WireListener::sendNack(wire::Conn &conn, std::uint64_t tenant,
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
    const bool sent = conn.sendAll(bytes.data(), bytes.size());
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
    std::vector<std::thread> accepters;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
        accepters.swap(accept_threads_);
        cv_.notify_all();
    }
    // Wake the accept threads with shutdown() only, and close the
    // listeners once they are joined: close() writes the fd that
    // accept() is polling and frees its number for reuse.
    tcp_listener_.shutdown();
    pipe_listener_.shutdown();
    for (std::thread &t : accepters)
        t.join();
    tcp_listener_.close();
    pipe_listener_.close();
    std::vector<std::thread> readers;
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Supersede and wake every reader: shutdown unblocks reads,
        // closeIngest unblocks a reader parked on a full receive
        // window (and lets its session drain to Stalled).
        for (auto &entry : sessions_) {
            SessionSlot &slot = *entry.second;
            ++slot.generation;
            if (slot.active_conn != nullptr)
                slot.active_conn->shutdownBoth();
            slot.source->closeIngest();
        }
        readers.swap(readers_);
        cv_.notify_all();
    }
    for (std::thread &t : readers)
        t.join();
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
