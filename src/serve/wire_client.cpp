#include "wire_client.h"

#include <chrono>
#include <thread>
#include <vector>

#include "core/capture_io.h"
#include "core/errors.h"
#include "faults/source_faults.h"
#include "wire/decoder.h"
#include "wire/transport.h"

namespace eddie::serve
{

using wire::DecodeStatus;
using wire::FrameType;

namespace
{

/** Fate-stream salts (xor'ed into the seed, same scheme as
 *  serve/chaos.cpp's phase salts). */
constexpr std::uint64_t kWireFateSalt = 0x57495245464154ull;
constexpr std::uint64_t kCorruptByteSalt = 0x57495245464c50ull;

/** Consecutive no-progress attempts (connect or handshake failures)
 *  before the client gives up; progress resets the count. */
constexpr std::size_t kMaxAttempts = 16;

enum class BatchFate
{
    Clean,
    Tear,
    Disconnect,
    Duplicate,
    Reorder,
    Corrupt,
    HostileLen,
};

enum class ReadResult
{
    Frame,
    DecodeError,
    Timeout,
    Closed,
    IoErr,
};

/** Reads one frame, waiting at most @p deadline_ms (0 = one
 *  non-blocking poll). */
ReadResult
readFrame(wire::Conn &conn, wire::FrameDecoder &dec,
          double deadline_ms, wire::Decoded &out)
{
    char buf[4096];
    double waited_ms = 0.0;
    for (;;) {
        out = dec.next();
        if (out.status == DecodeStatus::Frame)
            return ReadResult::Frame;
        if (out.status == DecodeStatus::Error)
            return ReadResult::DecodeError;
        const double slice =
            deadline_ms - waited_ms < 50.0 ? deadline_ms - waited_ms
                                           : 50.0;
        std::size_t got = 0;
        switch (conn.recvSome(buf, sizeof buf,
                              slice > 0.0 ? slice : 0.0, got)) {
        case wire::Conn::RecvStatus::Data: {
            std::size_t off = 0;
            while (off < got)
                off += dec.feed(buf + off, got - off);
            continue;
        }
        case wire::Conn::RecvStatus::Timeout:
            waited_ms += slice > 0.0 ? slice : 0.0;
            if (waited_ms >= deadline_ms)
                return ReadResult::Timeout;
            continue;
        case wire::Conn::RecvStatus::Closed: {
            dec.endOfInput();
            out = dec.next();
            return out.status == DecodeStatus::Frame
                       ? ReadResult::Frame
                       : ReadResult::Closed;
        }
        case wire::Conn::RecvStatus::Error:
            return ReadResult::IoErr;
        }
    }
}

} // namespace

WireClient::WireClient(WireClientConfig cfg) : cfg_(std::move(cfg))
{
}

WireClientReport
WireClient::stream(SampleSource &src)
{
    WireClientReport rep;
    const std::uint64_t tenant_hash = wire::tenantHash(cfg_.tenant);
    const WireChaosConfig &chaos = cfg_.chaos;
    const bool chaos_on =
        chaos.tear_prob + chaos.disconnect_prob +
            chaos.duplicate_prob + chaos.reorder_prob +
            chaos.corrupt_prob + chaos.hostile_len_prob >
        0.0;

    const auto napMs = [](double ms) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
    };
    const auto sendBytes = [&rep](wire::Conn &conn,
                                  const std::string &bytes) {
        if (!conn.sendAll(bytes.data(), bytes.size()))
            return false;
        rep.bytes_sent += bytes.size();
        return true;
    };
    /** Per-sequence faulted-attempt counters backing the forced-clean
     *  cap (chaos must not livelock a batch). */
    std::map<std::uint64_t, std::uint64_t> fault_attempts;
    const auto drawFate = [&](std::uint64_t seq) {
        if (!chaos_on)
            return BatchFate::Clean;
        std::uint64_t &attempt = fault_attempts[seq];
        const double u = faults::fateUniform(
            chaos.seed ^ kWireFateSalt, seq, attempt);
        double edge = 0.0;
        BatchFate fate = BatchFate::Clean;
        if (u < (edge += chaos.tear_prob))
            fate = BatchFate::Tear;
        else if (u < (edge += chaos.disconnect_prob))
            fate = BatchFate::Disconnect;
        else if (u < (edge += chaos.duplicate_prob))
            fate = BatchFate::Duplicate;
        else if (u < (edge += chaos.reorder_prob))
            fate = BatchFate::Reorder;
        else if (u < (edge += chaos.corrupt_prob))
            fate = BatchFate::Corrupt;
        else if (u < (edge += chaos.hostile_len_prob))
            fate = BatchFate::HostileLen;
        if (fate == BatchFate::Clean)
            return fate;
        if (attempt >= chaos.max_consecutive)
            return BatchFate::Clean; // forced clean: chaos must end
        ++attempt;
        return fate;
    };

    Backoff backoff(cfg_.backoff);
    std::size_t attempts = 0;
    bool first_handshake = true;
    std::uint64_t last_resume = 0;
    std::string prev_frame;

    for (;;) {
        if (attempts >= kMaxAttempts) {
            rep.error = "wire client: attempts exhausted";
            return rep;
        }
        wire::Conn conn;
        try {
            conn = cfg_.tcp.empty() ? wire::connectUnix(cfg_.unix_path)
                                    : wire::connectTcp(cfg_.tcp);
        } catch (const core::IoError &) {
            ++attempts;
            napMs(backoff.nextDelayMs());
            continue;
        }
        ++rep.connects;
        if (rep.connects > 1)
            ++rep.reconnects;
        wire::FrameDecoder dec;

        // HELLO → ACK(resume) | NACK(fatal).
        wire::FrameHeader hello;
        hello.type = FrameType::Hello;
        hello.tenant = tenant_hash;
        hello.session = cfg_.session;
        hello.sequence = src.position();
        if (!sendBytes(conn, wire::encodeFrame(
                                 hello, wire::encodeHelloPayload(
                                            cfg_.tenant)))) {
            ++attempts;
            napMs(backoff.nextDelayMs());
            continue;
        }
        wire::Decoded d;
        if (readFrame(conn, dec, cfg_.ack_timeout_ms, d) !=
            ReadResult::Frame) {
            ++attempts;
            napMs(backoff.nextDelayMs());
            continue;
        }
        if (d.header.type == FrameType::Nack) {
            ++rep.nacks_received;
            wire::NackCode code = wire::NackCode::None;
            std::string msg;
            wire::decodeNackPayload(d.payload, d.header.payload_len,
                                    code, msg);
            // A refused HELLO is a policy decision, not a glitch:
            // retrying would hammer a server that said no.
            rep.error = "wire client: hello refused (";
            rep.error += wire::name(code);
            rep.error += ")";
            return rep;
        }
        if (d.header.type != FrameType::Ack) {
            ++attempts;
            napMs(backoff.nextDelayMs());
            continue;
        }
        const std::uint64_t resume = d.header.sequence;
        if (resume < src.position())
            rep.windows_replayed += src.position() - resume;
        if (!src.seek(resume)) {
            rep.error = "wire client: source cannot seek to resume "
                        "point";
            return rep;
        }
        if (first_handshake || resume > last_resume) {
            first_handshake = false;
            last_resume = resume;
            attempts = 0;
            backoff.reset();
        } else {
            ++attempts;
        }

        bool reconnect = false;
        while (!reconnect) {
            std::vector<core::Sts> batch;
            const std::uint64_t batch_start = src.position();
            bool at_eof = false;
            bool stalled = false;
            while (batch.size() < cfg_.batch_windows) {
                Pull p = src.next();
                if (p.status == PullStatus::Ready) {
                    batch.push_back(std::move(p.sts));
                    continue;
                }
                if (p.status == PullStatus::EndOfStream)
                    at_eof = true;
                else
                    stalled = true;
                break;
            }

            if (!batch.empty()) {
                wire::FrameHeader bh;
                bh.type = FrameType::StsBatch;
                bh.tenant = tenant_hash;
                bh.session = cfg_.session;
                bh.sequence = batch_start;
                const std::string payload =
                    core::encodeStsPayload(batch);
                std::string frame = wire::encodeFrame(bh, payload);
                bool nack_check = false;
                switch (drawFate(batch_start)) {
                case BatchFate::Clean:
                    if (!sendBytes(conn, frame)) {
                        reconnect = true;
                        break;
                    }
                    rep.windows_sent += batch.size();
                    ++rep.batches_sent;
                    prev_frame = frame;
                    break;
                case BatchFate::Duplicate:
                    ++rep.duplicate_batches;
                    if ((!prev_frame.empty() &&
                         !sendBytes(conn, prev_frame)) ||
                        !sendBytes(conn, frame)) {
                        reconnect = true;
                        break;
                    }
                    rep.windows_sent += batch.size();
                    ++rep.batches_sent;
                    prev_frame = frame;
                    break;
                case BatchFate::Tear: {
                    ++rep.torn_frames;
                    const std::string torn =
                        frame.substr(0, frame.size() / 2);
                    sendBytes(conn, torn); // best effort, then cut
                    reconnect = true;
                    break;
                }
                case BatchFate::Disconnect:
                    ++rep.forced_disconnects;
                    if (sendBytes(conn, frame)) {
                        rep.windows_sent += batch.size();
                        ++rep.batches_sent;
                        prev_frame = frame;
                    }
                    reconnect = true;
                    break;
                case BatchFate::Reorder: {
                    // Skip-ahead sequence: the server must refuse
                    // the gap rather than fabricate a hole.
                    ++rep.reordered_batches;
                    bh.sequence = batch_start + batch.size() + 1;
                    sendBytes(conn, wire::encodeFrame(bh, payload));
                    nack_check = true;
                    break;
                }
                case BatchFate::Corrupt: {
                    ++rep.corrupted_frames;
                    std::string bad = frame;
                    const std::size_t at =
                        std::size_t(faults::fateMix(
                            chaos.seed ^ kCorruptByteSalt,
                            batch_start, bad.size())) %
                        bad.size();
                    bad[at] = char(bad[at] ^ 0x20);
                    sendBytes(conn, bad);
                    nack_check = true;
                    break;
                }
                case BatchFate::HostileLen: {
                    // A length field past the server's cap with
                    // valid CRCs: only the bound check can say no.
                    ++rep.hostile_lengths;
                    wire::FrameHeader hh = bh;
                    hh.payload_len =
                        std::uint32_t(wire::kDefaultMaxPayload + 1);
                    sendBytes(conn,
                              wire::encodeHeaderRaw(hh, 0));
                    nack_check = true;
                    break;
                }
                }
                if (reconnect)
                    break;
                // Injected protocol faults: give the server a beat
                // to answer, then reconnect and replay.
                const double nack_wait = nack_check ? 200.0 : 0.0;
                wire::Decoded nd;
                switch (readFrame(conn, dec, nack_wait, nd)) {
                case ReadResult::Frame:
                    if (nd.header.type == FrameType::Nack)
                        ++rep.nacks_received;
                    reconnect = true;
                    break;
                case ReadResult::Timeout:
                    reconnect = nack_check;
                    break;
                default:
                    reconnect = true;
                    break;
                }
                continue;
            }

            if (at_eof) {
                const std::uint64_t total = src.position();
                wire::FrameHeader eh;
                eh.type = FrameType::Eof;
                eh.tenant = tenant_hash;
                eh.session = cfg_.session;
                eh.sequence = total;
                if (!sendBytes(conn,
                               wire::encodeFrame(eh, std::string()))) {
                    reconnect = true;
                    break;
                }
                wire::Decoded fd;
                const ReadResult rs =
                    readFrame(conn, dec, cfg_.ack_timeout_ms, fd);
                if (rs == ReadResult::Frame &&
                    fd.header.type == FrameType::Ack &&
                    fd.header.sequence == total) {
                    rep.delivered_all = true;
                    return rep;
                }
                if (rs == ReadResult::Frame &&
                    fd.header.type == FrameType::Nack)
                    ++rep.nacks_received;
                reconnect = true;
                break;
            }

            if (stalled) {
                wire::FrameHeader hb;
                hb.type = FrameType::Heartbeat;
                hb.tenant = tenant_hash;
                hb.session = cfg_.session;
                hb.sequence = src.position();
                if (!sendBytes(conn,
                               wire::encodeFrame(hb, std::string()))) {
                    reconnect = true;
                    break;
                }
                napMs(cfg_.stall_nap_ms);
            }
        }
        napMs(backoff.nextDelayMs());
    }
}

} // namespace eddie::serve
