/**
 * @file
 * Wire ingestion front end (DESIGN.md §11): WireSource sequence
 * discipline (exactly-once in-order delivery out of a messy
 * transport), the WireListener connection state machine over real
 * loopback sockets — handshake, admission NACKs, reconnect takeover,
 * malformed-frame accounting, idle closes, drain — and end-to-end
 * bit-identical delivery through WireClient, including its byte-level
 * chaos mode. Everything here runs in-process; the tool-level round
 * trips live in tools/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/capture_io.h"
#include "serve/sample_source.h"
#include "serve/supervisor.h"
#include "serve/tenant.h"
#include "serve/wire_client.h"
#include "serve/wire_listener.h"
#include "serve/wire_source.h"
#include "serve_test_util.h"
#include "wire/decoder.h"
#include "wire/frame.h"
#include "wire/transport.h"

using namespace eddie;
using namespace eddie::serve;
using namespace serve_test;

namespace
{

bool
stsEqual(const core::Sts &a, const core::Sts &b)
{
    return a.t_start == b.t_start && a.t_end == b.t_end &&
           a.peak_freqs == b.peak_freqs &&
           a.true_region == b.true_region &&
           a.injected == b.injected &&
           a.window_energy == b.window_energy &&
           a.peak_energy_frac == b.peak_energy_frac &&
           a.faulted == b.faulted;
}

bool
streamsEqual(const std::vector<core::Sts> &a,
             const std::vector<core::Sts> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!stsEqual(a[i], b[i]))
            return false;
    return true;
}

std::vector<core::Sts>
slice(const std::vector<core::Sts> &stream, std::size_t from,
      std::size_t to)
{
    return {stream.begin() + std::ptrdiff_t(from),
            stream.begin() + std::ptrdiff_t(to)};
}

bool
waitFor(const std::function<bool()> &pred, double timeout_ms = 5000.0)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double, std::milli>(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Offers @p batch (first window @p first_seq) to the receive window
 *  once, as the listener's loop does; a refused tail is dropped. */
WireSource::Ingest
offer(WireSource &src, std::uint64_t first_seq,
      std::vector<core::Sts> batch)
{
    return src.ingest(first_seq, batch);
}

/** Counts raises (the ingest wake target of a WireSource). */
struct CountingReadiness final : Readiness
{
    std::atomic<int> raised{0};
    void raise() override { raised.fetch_add(1); }
};

// ----------------------------------------------------------------
// WireSource: the sequence-discipline unit.
// ----------------------------------------------------------------

TEST(WireSource, IngestsInOrderDropsDuplicatesRefusesGaps)
{
    const std::vector<core::Sts> stream = eventfulStream(11);
    WireSourceConfig cfg;
    WireSource src("default", 1, cfg);

    EXPECT_EQ(offer(src, 0, slice(stream, 0, 5)),
              WireSource::Ingest::Ok);
    EXPECT_EQ(src.expected(), 5u);

    // Overlapping replay (a reconnecting client resends from its last
    // ACK): the already-ingested prefix is dropped, the tail lands.
    EXPECT_EQ(offer(src, 3, slice(stream, 3, 8)),
              WireSource::Ingest::Ok);
    EXPECT_EQ(src.expected(), 8u);

    // Fully duplicate batch: dropped whole, still Ok.
    EXPECT_EQ(offer(src, 0, slice(stream, 0, 3)),
              WireSource::Ingest::Ok);
    EXPECT_EQ(src.expected(), 8u);

    // A batch starting above expected() would fabricate a hole.
    EXPECT_EQ(offer(src, 10, slice(stream, 10, 12)),
              WireSource::Ingest::Gap);
    EXPECT_EQ(src.expected(), 8u);

    // EOF below/above the ingested count is a gap too.
    EXPECT_EQ(src.noteEof(7), WireSource::Ingest::Gap);
    EXPECT_EQ(src.noteEof(8), WireSource::Ingest::Ok);
    EXPECT_TRUE(src.eofKnown());

    std::vector<core::Sts> got;
    for (;;) {
        const Pull p = src.next();
        if (p.status != PullStatus::Ready)
            break;
        got.push_back(p.sts);
    }
    EXPECT_EQ(src.next().status, PullStatus::EndOfStream);
    EXPECT_TRUE(streamsEqual(got, slice(stream, 0, 8)));
    EXPECT_EQ(src.position(), 8u);

    const WireSourceStats ws = src.wireStats();
    EXPECT_EQ(ws.ingested, 8u);
    EXPECT_EQ(ws.duplicates_dropped, 5u);
    EXPECT_EQ(ws.gaps_refused, 2u);
}

TEST(WireSource, SeekReplaysOnlyWithinRetainedWindow)
{
    const std::vector<core::Sts> stream = eventfulStream(12);
    WireSourceConfig cfg;
    cfg.replay_window = 4;
    WireSource src("default", 1, cfg);
    ASSERT_EQ(offer(src, 0, slice(stream, 0, 10)),
              WireSource::Ingest::Ok);
    ASSERT_EQ(src.noteEof(10), WireSource::Ingest::Ok);

    for (std::size_t i = 0; i < 10; ++i) {
        const Pull p = src.next();
        ASSERT_EQ(p.status, PullStatus::Ready);
        ASSERT_TRUE(stsEqual(p.sts, stream[i])) << i;
    }

    // Only the last replay_window delivered windows are retained.
    EXPECT_FALSE(src.seek(2));
    ASSERT_TRUE(src.seek(7));
    EXPECT_EQ(src.position(), 7u);
    for (std::size_t i = 7; i < 10; ++i) {
        const Pull p = src.next();
        ASSERT_EQ(p.status, PullStatus::Ready);
        ASSERT_TRUE(stsEqual(p.sts, stream[i])) << i;
    }
    EXPECT_EQ(src.next().status, PullStatus::EndOfStream);

    // seek() to the current position is always legal; past the end
    // is not.
    EXPECT_TRUE(src.seek(10));
    EXPECT_FALSE(src.seek(11));
}

TEST(WireSource, StallsWhenIdleAbortsAndClosesCleanly)
{
    const std::vector<core::Sts> stream = eventfulStream(13);
    WireSourceConfig cfg;
    cfg.stall_timeout_ms = 40.0;
    cfg.recv_capacity = 2;
    WireSource src("default", 1, cfg);

    // No data and no EOF: next() answers Pending at once, and Stalled
    // once the wire has been idle for stall_timeout_ms.
    EXPECT_EQ(src.next().status, PullStatus::Pending);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_EQ(src.next().status, PullStatus::Stalled);

    // A full receive window never blocks the ingest half: it refuses
    // the push at once and hands the whole batch back.
    ASSERT_EQ(offer(src, 0, slice(stream, 0, 2)),
              WireSource::Ingest::Ok);
    std::vector<core::Sts> tail = slice(stream, 2, 6);
    EXPECT_EQ(src.ingest(2, tail), WireSource::Ingest::Full);
    EXPECT_EQ(tail.size(), 4u);
    EXPECT_EQ(src.wireStats().refused_pushes, 1u);

    // closeIngest() aborts the ingest half: further pushes see Closed,
    // the consumer drains what arrived and then stalls (no EOF was
    // accepted).
    src.closeIngest();
    EXPECT_EQ(src.ingest(2, tail), WireSource::Ingest::Closed);
    std::size_t drained = 0;
    for (;;) {
        const Pull p = src.next();
        if (p.status != PullStatus::Ready)
            break;
        ++drained;
    }
    EXPECT_EQ(drained, 2u);
    EXPECT_EQ(src.next().status, PullStatus::Stalled);
}

/** The receive window takes the prefix that fits, in order, and hands
 *  back exactly the rest; offering that tail again at expected() once
 *  the consumer made room delivers the stream unchanged. */
TEST(WireSource, FullWindowTakesWhatFitsAndHandsBackTheTail)
{
    const std::vector<core::Sts> stream = eventfulStream(17);
    WireSourceConfig cfg;
    cfg.recv_capacity = 4;
    cfg.recv_max_bytes = 0;
    WireSource src("default", 1, cfg);

    std::vector<core::Sts> batch = slice(stream, 0, 10);
    ASSERT_EQ(src.ingest(0, batch), WireSource::Ingest::Full);
    EXPECT_EQ(src.expected(), 4u);
    ASSERT_EQ(batch.size(), 6u);
    EXPECT_TRUE(stsEqual(batch.front(), stream[4]));
    // Still full: nothing taken, nothing lost, the refusal counted.
    ASSERT_EQ(src.ingest(src.expected(), batch),
              WireSource::Ingest::Full);
    EXPECT_EQ(batch.size(), 6u);

    std::vector<core::Sts> got;
    while (src.expected() < 10) {
        const Pull p = src.next();
        ASSERT_EQ(p.status, PullStatus::Ready);
        got.push_back(p.sts);
        const WireSource::Ingest r = src.ingest(src.expected(), batch);
        ASSERT_TRUE(r == WireSource::Ingest::Ok ||
                    r == WireSource::Ingest::Full);
    }
    EXPECT_TRUE(batch.empty());
    ASSERT_EQ(src.noteEof(10), WireSource::Ingest::Ok);
    for (;;) {
        const Pull p = src.next();
        if (p.status != PullStatus::Ready)
            break;
        got.push_back(p.sts);
    }
    EXPECT_TRUE(streamsEqual(got, slice(stream, 0, 10)));
    const WireSourceStats ws = src.wireStats();
    EXPECT_EQ(ws.ingested, 10u);
    EXPECT_GE(ws.refused_pushes, 2u);
    EXPECT_EQ(ws.duplicates_dropped, 0u);
}

/** The byte quota bounds the receive window too, but an empty window
 *  takes one window however large, so no window is refused forever. */
TEST(WireSource, ByteQuotaBoundsTheWindowButAnEmptyOneTakesAnyWindow)
{
    std::vector<core::Sts> stream = eventfulStream(18);
    stream.resize(3);
    for (core::Sts &sts : stream)
        sts.peak_freqs.assign(100, 1.0);
    WireSourceConfig cfg;
    cfg.recv_max_bytes = 64; // below one window's cost
    WireSource src("default", 1, cfg);

    std::vector<core::Sts> batch = stream;
    ASSERT_EQ(src.ingest(0, batch), WireSource::Ingest::Full);
    EXPECT_EQ(src.expected(), 1u);
    ASSERT_EQ(src.next().status, PullStatus::Ready);
    ASSERT_EQ(src.ingest(1, batch), WireSource::Ingest::Full);
    EXPECT_EQ(src.expected(), 2u);
    ASSERT_EQ(src.next().status, PullStatus::Ready);
    ASSERT_EQ(src.ingest(2, batch), WireSource::Ingest::Ok);
    EXPECT_EQ(src.expected(), 3u);
    EXPECT_EQ(src.wireStats().refused_pushes, 2u);
}

/** A refused push arms one wakeup of the ingest half: the consumer
 *  raises it once the window has drained to half its bound, not per
 *  window, and closeIngest() detaches it. */
TEST(WireSource, HalfDrainedWindowRaisesTheIngestWakeOnce)
{
    const std::vector<core::Sts> stream = eventfulStream(19);
    WireSourceConfig cfg;
    cfg.recv_capacity = 8;
    cfg.recv_max_bytes = 0;
    CountingReadiness wake;
    WireSource src("default", 1, cfg, &wake);

    // A window that never filled raises nothing.
    ASSERT_EQ(offer(src, 0, slice(stream, 0, 8)), WireSource::Ingest::Ok);
    ASSERT_EQ(src.next().status, PullStatus::Ready);
    EXPECT_EQ(wake.raised.load(), 0);

    std::vector<core::Sts> tail = slice(stream, 8, 20);
    ASSERT_EQ(src.ingest(8, tail), WireSource::Ingest::Full);
    EXPECT_EQ(src.expected(), 9u);
    // 8 undelivered: the wake fires when 4 are left, once.
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(src.next().status, PullStatus::Ready);
    EXPECT_EQ(wake.raised.load(), 0);
    ASSERT_EQ(src.next().status, PullStatus::Ready);
    EXPECT_EQ(wake.raised.load(), 1);
    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(src.next().status, PullStatus::Ready);
    EXPECT_EQ(wake.raised.load(), 1);

    // Refused again, then closed: the drain raises nothing more.
    ASSERT_EQ(src.ingest(9, tail), WireSource::Ingest::Full);
    src.closeIngest();
    while (src.next().status == PullStatus::Ready) {
    }
    EXPECT_EQ(wake.raised.load(), 1);
}

/** Producer and consumer on two threads through a 2-window receive
 *  window: the producer offers, holds the refused tail and waits for
 *  the ingest wake, as the listener's loop does. Backpressure keeps
 *  the order and loses nothing. */
TEST(WireSource, BackpressureLosesNothingAndCountsRefusedPushes)
{
    const std::vector<core::Sts> stream = eventfulStream(20);
    WireSourceConfig cfg;
    cfg.recv_capacity = 2;
    LatchReadiness ingest_wake;
    LatchReadiness consumer_wake;
    WireSource src("default", 1, cfg, &ingest_wake);
    src.watch(&consumer_wake);

    std::thread producer([&] {
        for (std::size_t at = 0; at < stream.size(); at += 8) {
            std::vector<core::Sts> batch = slice(
                stream, at, std::min(stream.size(), at + 8));
            while (src.ingest(src.expected(), batch) ==
                   WireSource::Ingest::Full)
                ingest_wake.waitFor(50.0);
        }
        ASSERT_EQ(src.noteEof(stream.size()), WireSource::Ingest::Ok);
    });
    // Consume only once the producer has been refused, so the
    // refusal is certain whatever the scheduling.
    ASSERT_TRUE(waitFor(
        [&] { return src.wireStats().refused_pushes > 0; }));
    std::vector<core::Sts> got;
    for (;;) {
        const Pull p = src.next();
        if (p.status == PullStatus::Ready) {
            got.push_back(p.sts);
            continue;
        }
        if (p.status == PullStatus::Pending) {
            consumer_wake.waitFor(50.0);
            continue;
        }
        EXPECT_EQ(p.status, PullStatus::EndOfStream);
        break;
    }
    producer.join();
    src.watch(nullptr);
    EXPECT_TRUE(streamsEqual(got, stream));
    EXPECT_EQ(src.wireStats().ingested, stream.size());
    EXPECT_GT(src.wireStats().refused_pushes, 0u);
}

TEST(WireSource, PendingWhileIdleStalledOnlyAfterTimeoutSinceLastWindow)
{
    const std::vector<core::Sts> stream = eventfulStream(14);
    WireSourceConfig cfg;
    cfg.stall_timeout_ms = 300.0;
    WireSource src("default", 1, cfg);

    ASSERT_EQ(offer(src, 0, slice(stream, 0, 3)),
              WireSource::Ingest::Ok);
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(src.next().status, PullStatus::Ready);
    // Idle but inside the timeout: Pending, never a stall.
    EXPECT_EQ(src.next().status, PullStatus::Pending);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(src.next().status, PullStatus::Pending);

    // A delivered window restarts the clock.
    ASSERT_EQ(offer(src, 3, slice(stream, 3, 4)),
              WireSource::Ingest::Ok);
    EXPECT_EQ(src.next().status, PullStatus::Ready);
    EXPECT_EQ(src.next().status, PullStatus::Pending);
    EXPECT_EQ(src.stats().stalls, 0u);

    std::this_thread::sleep_for(std::chrono::milliseconds(350));
    EXPECT_EQ(src.next().status, PullStatus::Stalled);
    EXPECT_EQ(src.stats().stalls, 1u);
    EXPECT_EQ(src.stats().delivered, 4u);

    // A restart's seek re-arms the timeout: the peer gets a full one
    // again before the next stall.
    ASSERT_TRUE(src.seek(src.position()));
    EXPECT_EQ(src.next().status, PullStatus::Pending);
    EXPECT_EQ(src.stats().stalls, 1u);
}

TEST(WireSource, EndOfStreamAfterAcceptedEof)
{
    const std::vector<core::Sts> stream = eventfulStream(15);
    WireSourceConfig cfg;
    WireSource src("default", 1, cfg);
    ASSERT_EQ(offer(src, 0, slice(stream, 0, 2)),
              WireSource::Ingest::Ok);
    // Windows still queued: EOF does not cut them off.
    ASSERT_EQ(src.noteEof(2), WireSource::Ingest::Ok);
    EXPECT_EQ(src.next().status, PullStatus::Ready);
    EXPECT_EQ(src.next().status, PullStatus::Ready);
    EXPECT_EQ(src.next().status, PullStatus::EndOfStream);
    EXPECT_EQ(src.next().status, PullStatus::EndOfStream);

    // An empty stream ends as soon as its EOF is accepted.
    WireSource empty("default", 2, cfg);
    EXPECT_EQ(empty.next().status, PullStatus::Pending);
    ASSERT_EQ(empty.noteEof(0), WireSource::Ingest::Ok);
    EXPECT_EQ(empty.next().status, PullStatus::EndOfStream);
    EXPECT_EQ(empty.stats().stalls, 0u);
}

TEST(WireSource, ReadinessIsRaisedByIngestEofAndClose)
{
    const std::vector<core::Sts> stream = eventfulStream(16);
    WireSourceConfig cfg;
    LatchReadiness ready;

    WireSource src("default", 1, cfg);
    src.watch(&ready);
    EXPECT_FALSE(ready.waitFor(0.0));
    // A parked consumer wakes on ingest, long before its timeout.
    const auto t0 = std::chrono::steady_clock::now();
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        offer(src, 0, slice(stream, 0, 4));
    });
    EXPECT_TRUE(ready.waitFor(10000.0));
    const double waited_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    producer.join();
    EXPECT_LT(waited_ms, 5000.0);
    EXPECT_FALSE(ready.waitFor(0.0)); // the latch clears on wait
    ASSERT_EQ(src.noteEof(4), WireSource::Ingest::Ok);
    EXPECT_TRUE(ready.waitFor(0.0));

    WireSource closing("default", 2, cfg);
    closing.watch(&ready);
    closing.closeIngest();
    EXPECT_TRUE(ready.waitFor(0.0));

    // Detached: nothing raises the old target any more.
    WireSource detached("default", 3, cfg);
    detached.watch(&ready);
    detached.watch(nullptr);
    offer(detached, 0, slice(stream, 0, 2));
    detached.closeIngest();
    EXPECT_FALSE(ready.waitFor(0.0));
    src.watch(nullptr);
    closing.watch(nullptr);
}

// ----------------------------------------------------------------
// WireListener over real loopback connections.
// ----------------------------------------------------------------

/** Raw-frame test client: hand-built frames + a reply reader, so the
 *  tests can speak the protocol badly on purpose. */
struct RawClient
{
    wire::Conn conn;
    wire::FrameDecoder dec;
    char buf[4096];

    explicit RawClient(const std::string &tcp_addr)
        : conn(wire::connectTcp(tcp_addr))
    {
    }

    bool send(const std::string &bytes)
    {
        return conn.sendAll(bytes.data(), bytes.size());
    }

    /** Reads one frame (copying the payload out), waiting up to
     *  @p timeout_ms. status NeedMore means timeout; Error covers
     *  both malformed bytes and a closed peer. */
    wire::Decoded read(double timeout_ms, std::string *payload = nullptr)
    {
        double waited = 0.0;
        for (;;) {
            const wire::Decoded d = dec.next();
            if (d.status == wire::DecodeStatus::Frame) {
                if (payload != nullptr)
                    payload->assign(d.payload, d.header.payload_len);
                return d;
            }
            if (d.status == wire::DecodeStatus::Error)
                return d;
            std::size_t got = 0;
            switch (conn.recvSome(buf, sizeof buf, 50.0, got)) {
            case wire::Conn::RecvStatus::Data:
                dec.feed(buf, got);
                continue;
            case wire::Conn::RecvStatus::Timeout:
                waited += 50.0;
                if (waited >= timeout_ms)
                    return d;
                continue;
            case wire::Conn::RecvStatus::Closed:
            case wire::Conn::RecvStatus::Error:
                dec.endOfInput();
                return dec.next();
            }
        }
    }

    /** True when the peer closes without sending another frame. */
    bool readClosed(double timeout_ms)
    {
        double waited = 0.0;
        for (;;) {
            std::size_t got = 0;
            switch (conn.recvSome(buf, sizeof buf, 50.0, got)) {
            case wire::Conn::RecvStatus::Data:
                continue; // drain whatever is in flight
            case wire::Conn::RecvStatus::Timeout:
                waited += 50.0;
                if (waited >= timeout_ms)
                    return false;
                continue;
            case wire::Conn::RecvStatus::Closed:
            case wire::Conn::RecvStatus::Error:
                return true;
            }
        }
    }
};

std::string
helloFrame(const std::string &tenant, std::uint64_t session,
           std::uint64_t seq)
{
    wire::FrameHeader h;
    h.type = wire::FrameType::Hello;
    h.tenant = wire::tenantHash(tenant);
    h.session = session;
    h.sequence = seq;
    return wire::encodeFrame(h, wire::encodeHelloPayload(tenant));
}

std::string
batchFrame(const std::string &tenant, std::uint64_t session,
           std::uint64_t seq, const std::vector<core::Sts> &batch)
{
    wire::FrameHeader h;
    h.type = wire::FrameType::StsBatch;
    h.tenant = wire::tenantHash(tenant);
    h.session = session;
    h.sequence = seq;
    return wire::encodeFrame(h, core::encodeStsPayload(batch));
}

std::string
eofFrame(const std::string &tenant, std::uint64_t session,
         std::uint64_t total)
{
    wire::FrameHeader h;
    h.type = wire::FrameType::Eof;
    h.tenant = wire::tenantHash(tenant);
    h.session = session;
    h.sequence = total;
    return wire::encodeFrame(h, std::string());
}

wire::NackCode
nackCodeOf(const wire::Decoded &d, const std::string &payload)
{
    EXPECT_EQ(d.header.type, wire::FrameType::Nack);
    wire::NackCode code = wire::NackCode::None;
    std::string msg;
    EXPECT_TRUE(wire::decodeNackPayload(payload.data(), payload.size(),
                                        code, msg));
    return code;
}

struct ListenerFixture
{
    TenantRegistry registry;
    WireListenerConfig cfg;
    std::unique_ptr<WireListener> listener;

    explicit ListenerFixture(std::size_t max_sessions = 0)
    {
        TenantSpec spec;
        spec.id = "default";
        spec.quota.max_sessions = max_sessions;
        registry.addTenant(std::move(spec));
        cfg.tcp = "127.0.0.1:0";
    }

    void start()
    {
        listener = std::make_unique<WireListener>(registry, cfg);
        listener->start();
    }

    /** Drains the (single) admitted source to EndOfStream, parking
     *  on its Readiness while it is Pending. */
    std::vector<core::Sts> drainSource()
    {
        WireSource *src = listener->sources().at(0);
        LatchReadiness ready;
        src->watch(&ready);
        std::vector<core::Sts> got;
        for (;;) {
            const Pull p = src->next();
            if (p.status == PullStatus::Ready) {
                got.push_back(p.sts);
                continue;
            }
            if (p.status == PullStatus::Pending) {
                ready.waitFor(50.0);
                continue;
            }
            src->watch(nullptr);
            if (p.status != PullStatus::EndOfStream)
                ADD_FAILURE() << "source stalled after " << got.size()
                              << " windows";
            return got;
        }
    }
};

TEST(WireListener, AdmitsStreamsInOrderAndAcksEof)
{
    const std::vector<core::Sts> stream = eventfulStream(21);
    ListenerFixture fx;
    fx.start();

    RawClient c(fx.listener->tcpAddress());
    ASSERT_TRUE(c.send(helloFrame("default", 1, 0)));
    const wire::Decoded ack = c.read(5000.0);
    ASSERT_EQ(ack.status, wire::DecodeStatus::Frame);
    EXPECT_EQ(ack.header.type, wire::FrameType::Ack);
    EXPECT_EQ(ack.header.sequence, 0u);
    EXPECT_EQ(fx.listener->awaitSessions(1, 5000.0), 1u);

    ASSERT_TRUE(c.send(batchFrame("default", 1, 0,
                                  slice(stream, 0, 60))));
    ASSERT_TRUE(c.send(batchFrame("default", 1, 60,
                                  slice(stream, 60, 160))));
    ASSERT_TRUE(c.send(eofFrame("default", 1, 160)));
    const wire::Decoded fin = c.read(5000.0);
    ASSERT_EQ(fin.status, wire::DecodeStatus::Frame);
    EXPECT_EQ(fin.header.type, wire::FrameType::Ack);
    EXPECT_EQ(fin.header.sequence, 160u);

    EXPECT_TRUE(streamsEqual(fx.drainSource(), stream));

    ASSERT_TRUE(waitFor([&]() {
        return fx.listener->stats().connections_closed >= 1;
    }));
    const WireListenerStats st = fx.listener->stats();
    EXPECT_EQ(st.connections_accepted, 1u);
    EXPECT_EQ(st.batches, 2u);
    EXPECT_EQ(st.eofs, 1u);
    EXPECT_GE(st.acks_sent, 2u);
    EXPECT_EQ(st.wire.totalErrors(), 0u);
    EXPECT_GT(st.bytes_received, 0u);
    fx.listener->drainAndClose();
}

TEST(WireListener, RefusesUnknownTenantQuotaAndLateHellos)
{
    ListenerFixture fx(/*max_sessions=*/1);
    fx.start();
    std::string payload;

    {
        RawClient c(fx.listener->tcpAddress());
        ASSERT_TRUE(c.send(helloFrame("nope", 1, 0)));
        const wire::Decoded d = c.read(5000.0, &payload);
        ASSERT_EQ(d.status, wire::DecodeStatus::Frame);
        EXPECT_EQ(nackCodeOf(d, payload),
                  wire::NackCode::UnknownTenant);
        EXPECT_TRUE(c.readClosed(5000.0));
    }

    RawClient admitted(fx.listener->tcpAddress());
    ASSERT_TRUE(admitted.send(helloFrame("default", 1, 0)));
    ASSERT_EQ(admitted.read(5000.0).header.type,
              wire::FrameType::Ack);

    {
        RawClient c(fx.listener->tcpAddress());
        ASSERT_TRUE(c.send(helloFrame("default", 2, 0)));
        const wire::Decoded d = c.read(5000.0, &payload);
        ASSERT_EQ(d.status, wire::DecodeStatus::Frame);
        EXPECT_EQ(nackCodeOf(d, payload),
                  wire::NackCode::TenantSessionLimit);
    }

    fx.listener->freezeAdmission();
    {
        RawClient c(fx.listener->tcpAddress());
        ASSERT_TRUE(c.send(helloFrame("default", 3, 0)));
        const wire::Decoded d = c.read(5000.0, &payload);
        ASSERT_EQ(d.status, wire::DecodeStatus::Frame);
        EXPECT_EQ(nackCodeOf(d, payload),
                  wire::NackCode::AdmissionClosed);
    }

    // Reconnecting the admitted session stays legal after the freeze.
    RawClient back(fx.listener->tcpAddress());
    ASSERT_TRUE(back.send(helloFrame("default", 1, 0)));
    const wire::Decoded re = back.read(5000.0);
    ASSERT_EQ(re.status, wire::DecodeStatus::Frame);
    EXPECT_EQ(re.header.type, wire::FrameType::Ack);

    const WireListenerStats st = fx.listener->stats();
    EXPECT_EQ(st.admission_refusals, 2u);
    EXPECT_EQ(st.late_rejects, 1u);
    EXPECT_EQ(st.reattaches, 1u);
    const AdmissionStats adm = fx.registry.admissionStats();
    EXPECT_EQ(adm.sessions_admitted, 1u);
    EXPECT_EQ(adm.rejected_unknown_tenant, 1u);
    EXPECT_EQ(adm.rejected_tenant_limit, 1u);
    fx.listener->drainAndClose();
}

TEST(WireListener, MalformedFramesAreCountedNackedAndResumable)
{
    const std::vector<core::Sts> stream = eventfulStream(22);
    ListenerFixture fx;
    fx.start();
    std::string payload;

    // Garbage instead of a HELLO: NACK(malformed), counted, closed.
    // (At least kHeaderSize bytes — the decoder judges nothing until
    // a whole header is buffered.)
    {
        RawClient c(fx.listener->tcpAddress());
        ASSERT_TRUE(c.send(std::string(64, '#')));
        const wire::Decoded d = c.read(5000.0, &payload);
        ASSERT_EQ(d.status, wire::DecodeStatus::Frame);
        EXPECT_EQ(nackCodeOf(d, payload),
                  wire::NackCode::MalformedFrame);
        EXPECT_TRUE(c.readClosed(5000.0));
    }

    // Admitted session whose stream then goes bad mid-batch.
    {
        RawClient c(fx.listener->tcpAddress());
        ASSERT_TRUE(c.send(helloFrame("default", 1, 0)));
        ASSERT_EQ(c.read(5000.0).header.type, wire::FrameType::Ack);
        ASSERT_TRUE(c.send(batchFrame("default", 1, 0,
                                      slice(stream, 0, 40))));
        std::string bad =
            batchFrame("default", 1, 40, slice(stream, 40, 60));
        bad[bad.size() - 3] = char(bad[bad.size() - 3] ^ 0x01);
        ASSERT_TRUE(c.send(bad));
        const wire::Decoded d = c.read(5000.0, &payload);
        ASSERT_EQ(d.status, wire::DecodeStatus::Frame);
        EXPECT_EQ(nackCodeOf(d, payload),
                  wire::NackCode::MalformedFrame);
        EXPECT_TRUE(c.readClosed(5000.0));
    }

    // The session survived: reconnect resumes from the ingested
    // prefix and the stream still arrives bit-identically.
    {
        RawClient c(fx.listener->tcpAddress());
        ASSERT_TRUE(c.send(helloFrame("default", 1, 0)));
        const wire::Decoded ack = c.read(5000.0);
        ASSERT_EQ(ack.status, wire::DecodeStatus::Frame);
        ASSERT_EQ(ack.header.type, wire::FrameType::Ack);
        EXPECT_EQ(ack.header.sequence, 40u);
        ASSERT_TRUE(c.send(batchFrame("default", 1, 40,
                                      slice(stream, 40, 160))));
        ASSERT_TRUE(c.send(eofFrame("default", 1, 160)));
        ASSERT_EQ(c.read(5000.0).header.sequence, 160u);
    }
    EXPECT_TRUE(streamsEqual(fx.drainSource(), stream));

    ASSERT_TRUE(waitFor([&]() {
        return fx.listener->stats().connections_closed >= 3;
    }));
    const WireListenerStats st = fx.listener->stats();
    EXPECT_EQ(st.handshake_failures, 1u);
    EXPECT_EQ(st.reattaches, 1u);
    EXPECT_EQ(st.wire.errorCount(wire::WireError::BadMagic), 1u);
    EXPECT_EQ(st.wire.errorCount(wire::WireError::PayloadCrc), 1u);
    EXPECT_GE(st.nacks_sent, 2u);
    fx.listener->drainAndClose();
}

/** An admitted peer's CRC-valid STS-BATCH whose 8-byte payload claims
 *  2^32 windows (about 320 GiB decoded) is refused before anything is
 *  allocated: one BadPayload count and a NACK, and the listener keeps
 *  serving the session. */
TEST(WireListener, HostileWindowCountIsNackedAndTheListenerServesOn)
{
    const std::vector<core::Sts> stream = eventfulStream(24);
    ListenerFixture fx;
    fx.start();
    std::string payload;
    {
        RawClient c(fx.listener->tcpAddress());
        ASSERT_TRUE(c.send(helloFrame("default", 1, 0)));
        ASSERT_EQ(c.read(5000.0).header.type, wire::FrameType::Ack);
        wire::FrameHeader h;
        h.type = wire::FrameType::StsBatch;
        h.tenant = wire::tenantHash("default");
        h.session = 1;
        h.sequence = 0;
        const std::uint64_t count = std::uint64_t(1) << 32;
        ASSERT_TRUE(c.send(wire::encodeFrame(
            h, std::string(reinterpret_cast<const char *>(&count),
                           sizeof count))));
        const wire::Decoded d = c.read(5000.0, &payload);
        ASSERT_EQ(d.status, wire::DecodeStatus::Frame);
        EXPECT_EQ(nackCodeOf(d, payload),
                  wire::NackCode::MalformedFrame);
        EXPECT_TRUE(c.readClosed(5000.0));
    }
    {
        RawClient c(fx.listener->tcpAddress());
        ASSERT_TRUE(c.send(helloFrame("default", 1, 0)));
        const wire::Decoded ack = c.read(5000.0);
        ASSERT_EQ(ack.status, wire::DecodeStatus::Frame);
        ASSERT_EQ(ack.header.type, wire::FrameType::Ack);
        EXPECT_EQ(ack.header.sequence, 0u);
        ASSERT_TRUE(c.send(batchFrame("default", 1, 0, stream)));
        ASSERT_TRUE(c.send(eofFrame("default", 1, 160)));
        ASSERT_EQ(c.read(5000.0).header.sequence, 160u);
    }
    EXPECT_TRUE(streamsEqual(fx.drainSource(), stream));

    const WireListenerStats st = fx.listener->stats();
    EXPECT_EQ(st.wire.errorCount(wire::WireError::BadPayload), 1u);
    EXPECT_EQ(st.reattaches, 1u);
    EXPECT_GE(st.nacks_sent, 1u);
    fx.listener->drainAndClose();
}

TEST(WireListener, SequenceGapsAreNackedAndTheSessionResumes)
{
    const std::vector<core::Sts> stream = eventfulStream(23);
    ListenerFixture fx;
    fx.start();
    std::string payload;

    {
        RawClient c(fx.listener->tcpAddress());
        ASSERT_TRUE(c.send(helloFrame("default", 1, 0)));
        ASSERT_EQ(c.read(5000.0).header.type, wire::FrameType::Ack);
        ASSERT_TRUE(c.send(batchFrame("default", 1, 0,
                                      slice(stream, 0, 20))));
        // Skipping ahead would fabricate a hole in the verdict
        // stream: refused, connection dropped.
        ASSERT_TRUE(c.send(batchFrame("default", 1, 30,
                                      slice(stream, 30, 40))));
        const wire::Decoded d = c.read(5000.0, &payload);
        ASSERT_EQ(d.status, wire::DecodeStatus::Frame);
        EXPECT_EQ(nackCodeOf(d, payload), wire::NackCode::SequenceGap);
        EXPECT_EQ(d.header.sequence, 30u);
        EXPECT_TRUE(c.readClosed(5000.0));
    }
    {
        RawClient c(fx.listener->tcpAddress());
        ASSERT_TRUE(c.send(helloFrame("default", 1, 0)));
        const wire::Decoded ack = c.read(5000.0);
        ASSERT_EQ(ack.status, wire::DecodeStatus::Frame);
        EXPECT_EQ(ack.header.sequence, 20u);
        ASSERT_TRUE(c.send(batchFrame("default", 1, 20,
                                      slice(stream, 20, 160))));
        ASSERT_TRUE(c.send(eofFrame("default", 1, 160)));
        ASSERT_EQ(c.read(5000.0).header.sequence, 160u);
    }
    EXPECT_TRUE(streamsEqual(fx.drainSource(), stream));

    const WireListenerStats st = fx.listener->stats();
    EXPECT_EQ(st.sequence_gaps, 1u);
    EXPECT_EQ(st.wire.errorCount(wire::WireError::SequenceGap), 1u);
    fx.listener->drainAndClose();
}

TEST(WireListener, IdleConnectionsAreClosedButStayResumable)
{
    ListenerFixture fx;
    fx.cfg.idle_timeout_ms = 120.0;
    fx.start();

    RawClient c(fx.listener->tcpAddress());
    ASSERT_TRUE(c.send(helloFrame("default", 1, 0)));
    ASSERT_EQ(c.read(5000.0).header.type, wire::FrameType::Ack);
    // Go silent: the listener must hang up, not leak the reader.
    EXPECT_TRUE(c.readClosed(5000.0));
    ASSERT_TRUE(waitFor([&]() {
        return fx.listener->stats().idle_closes >= 1;
    }));

    RawClient back(fx.listener->tcpAddress());
    ASSERT_TRUE(back.send(helloFrame("default", 1, 0)));
    const wire::Decoded re = back.read(5000.0);
    ASSERT_EQ(re.status, wire::DecodeStatus::Frame);
    EXPECT_EQ(re.header.type, wire::FrameType::Ack);
    EXPECT_EQ(fx.listener->stats().reattaches, 1u);
    fx.listener->drainAndClose();
}

/** A zero, negative or non-finite deadline would close every
 *  connection before it delivers a window: the listener refuses it
 *  when it is built, naming the field. */
TEST(WireListener, RefusesDeadlinesThatCloseEveryConnection)
{
    TenantRegistry reg;
    for (const double bad : {0.0, -5.0, std::nan(""),
                             std::numeric_limits<double>::infinity()}) {
        for (const bool idle : {true, false}) {
            WireListenerConfig cfg;
            cfg.tcp = "127.0.0.1:0";
            (idle ? cfg.idle_timeout_ms : cfg.hello_deadline_ms) = bad;
            try {
                WireListener listener(reg, cfg);
                ADD_FAILURE() << "deadline " << bad << " accepted";
            } catch (const ServeConfigError &e) {
                EXPECT_EQ(e.field(), idle ? "listener.idle_timeout_ms"
                                          : "listener.hello_deadline_ms");
            }
        }
    }
    WireListenerConfig good;
    good.tcp = "127.0.0.1:0";
    EXPECT_NO_THROW(WireListener(reg, good));
}

TEST(WireListener, PipeTransportDeliversBitIdenticalViaWireClient)
{
    const auto stream =
        std::make_shared<const std::vector<core::Sts>>(
            eventfulStream(24));
    ListenerFixture fx;
    fx.cfg.tcp.clear();
    const std::string sock =
        (std::filesystem::temp_directory_path() /
         ("eddie_wire_test_" + std::to_string(::getpid()) + ".sock"))
            .string();
    fx.cfg.unix_path = sock;
    fx.start();

    WireClientConfig ccfg;
    ccfg.unix_path = sock;
    ccfg.tenant = "default";
    ccfg.session = 1;
    ccfg.batch_windows = 32;
    WireClientReport rep;
    std::thread client([&]() {
        VectorSource src(stream);
        rep = WireClient(ccfg).stream(src);
    });

    ASSERT_EQ(fx.listener->awaitSessions(1, 10000.0), 1u);
    const std::vector<core::Sts> got = fx.drainSource();
    client.join();

    EXPECT_TRUE(rep.delivered_all) << rep.error;
    EXPECT_EQ(rep.windows_sent, stream->size());
    EXPECT_EQ(rep.reconnects, 0u);
    EXPECT_TRUE(streamsEqual(got, *stream));
    EXPECT_EQ(fx.listener->pipeAddress(), sock);
    fx.listener->drainAndClose();
    std::filesystem::remove(sock);
}

TEST(WireListener, ChaosClientStillConvergesBitIdentical)
{
    const auto stream =
        std::make_shared<const std::vector<core::Sts>>(
            eventfulStream(25));
    ListenerFixture fx;
    fx.start();

    WireClientConfig ccfg;
    ccfg.tcp = fx.listener->tcpAddress();
    ccfg.tenant = "default";
    ccfg.session = 1;
    ccfg.batch_windows = 8;
    ccfg.backoff.initial_ms = 2.0;
    ccfg.backoff.max_ms = 20.0;
    ccfg.chaos.seed = 0xC0FFEE;
    ccfg.chaos.tear_prob = 0.15;
    ccfg.chaos.disconnect_prob = 0.15;
    ccfg.chaos.duplicate_prob = 0.10;
    ccfg.chaos.reorder_prob = 0.10;
    ccfg.chaos.corrupt_prob = 0.10;
    ccfg.chaos.hostile_len_prob = 0.08;
    WireClientReport rep;
    std::thread client([&]() {
        VectorSource src(stream);
        rep = WireClient(ccfg).stream(src);
    });

    ASSERT_EQ(fx.listener->awaitSessions(1, 10000.0), 1u);
    const std::vector<core::Sts> got = fx.drainSource();
    client.join();

    // Every fault was either rejected or absorbed; what the monitor
    // would see is exactly the clean stream.
    EXPECT_TRUE(rep.delivered_all) << rep.error;
    EXPECT_TRUE(streamsEqual(got, *stream));
    const std::uint64_t faults =
        rep.torn_frames + rep.forced_disconnects +
        rep.duplicate_batches + rep.reordered_batches +
        rep.corrupted_frames + rep.hostile_lengths;
    EXPECT_GT(faults, 0u);
    EXPECT_GE(rep.reconnects, 1u);

    const WireListenerStats st = fx.listener->stats();
    EXPECT_GE(st.reattaches, rep.reconnects);
    EXPECT_GE(st.nacks_sent, rep.nacks_received);
    fx.listener->drainAndClose();
}

TEST(WireListener, DrainAndCloseUnblocksABlockedProducer)
{
    const std::vector<core::Sts> stream = eventfulStream(26);
    ListenerFixture fx;
    fx.cfg.source.recv_capacity = 2;
    fx.start();

    // A producer that outruns the (absent) consumer: the receive
    // window fills, the loop holds the refused tail and stops reading
    // the socket, TCP fills, and the client wedges in sendAll.
    std::thread producer([&]() {
        RawClient c(fx.listener->tcpAddress());
        if (!c.send(helloFrame("default", 1, 0)))
            return;
        if (c.read(5000.0).header.type != wire::FrameType::Ack)
            return;
        for (std::uint64_t seq = 0; seq < 2000; seq += 4) {
            const std::size_t at = std::size_t(seq) % 150;
            if (!c.send(batchFrame("default", 1, seq,
                                   slice(stream, at, at + 4))))
                return; // drain hung up on us — expected
        }
    });

    ASSERT_EQ(fx.listener->awaitSessions(1, 10000.0), 1u);
    ASSERT_TRUE(waitFor([&]() {
        return fx.listener->sources().at(0)->wireStats().ingested >=
               2;
    }));
    // Give the producer time to wedge against the full window.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    const auto t0 = std::chrono::steady_clock::now();
    fx.listener->drainAndClose();
    const double drain_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    producer.join();

    // The drain must not wait out the producer: closing the
    // connection and the receive window is what unblocks it.
    EXPECT_LT(drain_ms, 5000.0);
    const WireListenerStats st = fx.listener->stats();
    EXPECT_GE(st.connections_closed, 1u);
}

/** The event loop's primitives: a non-blocking accept that returns at
 *  once with nothing pending, a Poller that reports a pending
 *  connection and a readable socket under their tags, stays silent for
 *  an unwatched socket, and ends a wait with no time limit on a wake()
 *  from another thread. */
TEST(WireTransport, PollerReportsAcceptsReadsAndWakeups)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("eddie_wire_poller_" + std::to_string(::getpid()) + ".sock"))
            .string();
    for (const bool unix_socket : {false, true}) {
        wire::Listener listener = unix_socket
            ? wire::Listener::unixPath(path)
            : wire::Listener::tcp("127.0.0.1:0");
        EXPECT_FALSE(listener.accept().valid());
        EXPECT_EQ(listener.lastErrno(), EAGAIN);

        wire::Poller poller;
        ASSERT_TRUE(poller.add(listener.fd(), 1));
        std::vector<std::uint64_t> tags;
        poller.wait(0.0, tags);
        EXPECT_TRUE(tags.empty());

        wire::Conn client = unix_socket
            ? wire::connectUnix(path)
            : wire::connectTcp(listener.address());
        poller.wait(5000.0, tags);
        ASSERT_EQ(tags, std::vector<std::uint64_t>{1});
        wire::Conn server = listener.accept();
        ASSERT_TRUE(server.valid());

        // Readable under its tag; an unwatched socket reports nothing.
        ASSERT_TRUE(poller.add(server.fd(), 7));
        ASSERT_TRUE(client.sendAll("x", 1));
        poller.wait(5000.0, tags);
        EXPECT_EQ(tags, std::vector<std::uint64_t>{7});
        poller.remove(server.fd());
        poller.wait(0.0, tags);
        EXPECT_TRUE(tags.empty());

        const auto t0 = std::chrono::steady_clock::now();
        std::thread waker([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            poller.wake();
        });
        poller.wait(-1.0, tags);
        waker.join();
        EXPECT_EQ(tags, std::vector<std::uint64_t>{
                            wire::Poller::kWakeTag});
        EXPECT_LT(msSince(t0), 5000.0);
        listener.close();
        EXPECT_FALSE(listener.valid());
    }
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(WireListener, DrainAndCloseWhileAcceptIsPolling)
{
    ListenerFixture fx;
    fx.cfg.unix_path =
        (std::filesystem::temp_directory_path() /
         ("eddie_wire_drain_" + std::to_string(::getpid()) + ".sock"))
            .string();
    // With no connection the loop waits with no time limit: only the
    // drain's wakeup can end it in time.
    fx.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    const auto t0 = std::chrono::steady_clock::now();
    fx.listener->drainAndClose();
    const double drain_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(drain_ms, 5000.0);
    EXPECT_EQ(fx.listener->stats().connections_accepted, 0u);
    fx.listener->drainAndClose(); // idempotent
}

/** Threads of this process (entries of /proc/self/task). */
std::size_t
threadCount()
{
    std::size_t n = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)entry;
        ++n;
    }
    return n;
}

/** Memory mappings of this process (lines of /proc/self/maps). */
std::size_t
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    std::size_t n = 0;
    for (std::string line; std::getline(maps, line);)
        ++n;
    return n;
}

/** The listener's threads and mappings do not grow with its
 *  connections: 256 HELLO'd connections held open at once add no
 *  thread beyond the event loop, and one session reconnected 500
 *  times (each reconnect closing the previous connection) leaves
 *  neither a thread nor a mapping behind. */
TEST(WireListener, ConnectionChurnKeepsThreadsAndMappingsFlat)
{
    constexpr std::size_t kFanIn = 256;
    constexpr std::size_t kReconnects = 500;
    ListenerFixture fx;
    const std::size_t threads_before = threadCount();
    fx.start();
    const std::string address = fx.listener->tcpAddress();

    std::vector<std::unique_ptr<RawClient>> clients;
    for (std::size_t s = 0; s < kFanIn; ++s) {
        clients.push_back(std::make_unique<RawClient>(address));
        ASSERT_TRUE(clients.back()->send(helloFrame("default", s + 1, 0)));
    }
    for (const auto &c : clients)
        ASSERT_EQ(c->read(5000.0).header.type, wire::FrameType::Ack);
    ASSERT_EQ(fx.listener->awaitSessions(kFanIn, 5000.0), kFanIn);
    EXPECT_EQ(threadCount(), threads_before + 1);

    const std::size_t maps_before = mappingCount();
    for (std::size_t i = 0; i < kReconnects; ++i) {
        auto c = std::make_unique<RawClient>(address);
        ASSERT_TRUE(c->send(helloFrame("default", 1, 0)));
        const wire::Decoded ack = c->read(5000.0);
        ASSERT_EQ(ack.status, wire::DecodeStatus::Frame);
        ASSERT_EQ(ack.header.type, wire::FrameType::Ack);
        clients[0] = std::move(c);
    }
    EXPECT_EQ(threadCount(), threads_before + 1);
    EXPECT_LT(mappingCount(), maps_before + 50);

    const WireListenerStats st = fx.listener->stats();
    EXPECT_EQ(st.connections_accepted, kFanIn + kReconnects);
    EXPECT_EQ(st.reattaches, kReconnects);
    EXPECT_EQ(st.handshake_failures, 0u);
    fx.listener->drainAndClose();
    EXPECT_EQ(fx.listener->stats().connections_closed,
              kFanIn + kReconnects);
}

/** A connection that sends nothing is closed once its HELLO deadline
 *  passes and counted as a handshake failure. */
TEST(WireListener, HelloDeadlineClosesASilentConnection)
{
    ListenerFixture fx;
    fx.cfg.hello_deadline_ms = 100.0;
    fx.start();

    RawClient c(fx.listener->tcpAddress());
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(c.readClosed(5000.0));
    EXPECT_GE(msSince(t0), 50.0);
    ASSERT_TRUE(waitFor([&]() {
        return fx.listener->stats().connections_closed >= 1;
    }));
    const WireListenerStats st = fx.listener->stats();
    EXPECT_EQ(st.handshake_failures, 1u);
    EXPECT_EQ(st.idle_closes, 0u);
    EXPECT_EQ(st.nacks_sent, 0u);
    fx.listener->drainAndClose();
}

/** Half a HELLO and then silence: the bytes that did arrive do not
 *  extend the deadline, and the connection is closed and counted the
 *  same way. */
TEST(WireListener, HelloDeadlineClosesAHalfSentHello)
{
    ListenerFixture fx;
    fx.cfg.hello_deadline_ms = 100.0;
    fx.start();

    RawClient c(fx.listener->tcpAddress());
    const std::string hello = helloFrame("default", 1, 0);
    ASSERT_TRUE(c.send(hello.substr(0, hello.size() / 2)));
    EXPECT_TRUE(c.readClosed(5000.0));
    ASSERT_TRUE(waitFor([&]() {
        return fx.listener->stats().connections_closed >= 1;
    }));
    const WireListenerStats st = fx.listener->stats();
    EXPECT_EQ(st.handshake_failures, 1u);
    EXPECT_EQ(st.idle_closes, 0u);
    EXPECT_EQ(fx.listener->awaitSessions(1, 0.0), 0u);
    fx.listener->drainAndClose();
}

/** A connection paused on a full receive window waits for the
 *  consumer, not the peer: an idle timeout far shorter than the pause
 *  does not close it, and the stream then completes bit-identically
 *  on the same connection. */
TEST(WireListener, PausedOnAFullWindowIsNotIdleClosed)
{
    const std::vector<core::Sts> stream = eventfulStream(27);
    ListenerFixture fx;
    fx.cfg.idle_timeout_ms = 100.0;
    fx.cfg.source.recv_capacity = 2;
    fx.start();

    RawClient c(fx.listener->tcpAddress());
    ASSERT_TRUE(c.send(helloFrame("default", 1, 0)));
    ASSERT_EQ(c.read(5000.0).header.type, wire::FrameType::Ack);
    ASSERT_TRUE(c.send(batchFrame("default", 1, 0, stream)));
    ASSERT_TRUE(c.send(eofFrame("default", 1, stream.size())));
    ASSERT_TRUE(waitFor([&]() {
        return fx.listener->sources().at(0)->wireStats().refused_pushes >=
               1;
    }));
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    EXPECT_EQ(fx.listener->stats().idle_closes, 0u);
    EXPECT_EQ(fx.listener->stats().connections_closed, 0u);

    EXPECT_TRUE(streamsEqual(fx.drainSource(), stream));
    const wire::Decoded fin = c.read(5000.0);
    ASSERT_EQ(fin.status, wire::DecodeStatus::Frame);
    EXPECT_EQ(fin.header.type, wire::FrameType::Ack);
    EXPECT_EQ(fin.header.sequence, stream.size());
    const WireListenerStats st = fx.listener->stats();
    EXPECT_EQ(st.idle_closes, 0u);
    EXPECT_EQ(st.reattaches, 0u);
    EXPECT_EQ(st.batches, 1u);
    fx.listener->drainAndClose();
}

// ----------------------------------------------------------------
// Wire sessions on the serving engine.
// ----------------------------------------------------------------

/** One tenant with a model, so the admitted wire sessions can run on
 *  a Supervisor, plus the serial oracle of one stream. */
struct ServedFixture
{
    std::shared_ptr<const core::TrainedModel> model;
    std::shared_ptr<const std::vector<core::Sts>> stream;
    std::vector<core::StepRecord> oracle_records;
    std::vector<core::AnomalyReport> oracle_reports;
    TenantRegistry registry;
    WireListenerConfig cfg;

    explicit ServedFixture(std::uint64_t seed)
    {
        std::mt19937_64 rng(0xF1EE7);
        model = std::make_shared<const core::TrainedModel>(
            sharpModel(rng));
        stream = std::make_shared<const std::vector<core::Sts>>(
            eventfulStream(seed));
        core::Monitor oracle(*model, core::MonitorConfig{});
        for (const core::Sts &sts : *stream)
            oracle.step(sts);
        oracle_records = oracle.records();
        oracle_reports = oracle.reports();
        TenantSpec spec;
        spec.id = "default";
        spec.model = model;
        registry.addTenant(std::move(spec));
        cfg.tcp = "127.0.0.1:0";
    }

    WireClientReport send(const std::string &address,
                          std::uint64_t session) const
    {
        WireClientConfig cc;
        cc.tcp = address;
        cc.tenant = "default";
        cc.session = session;
        VectorSource src(stream);
        return WireClient(cc).stream(src);
    }
};

/** The order EDDIEBENCH and eddie_serve tear down in: the Supervisor
 *  (and with it every session, each its source's wake target) goes
 *  first, then the listener closes its sources. A source still
 *  pointing at a session would wake freed memory here: it locks a
 *  freed mutex and the test hangs into its timeout. */
TEST(WireListener, SupervisorDestroyedBeforeListenerLeavesNoDanglingWakeup)
{
    ServedFixture fx(31);
    WireListener listener(fx.registry, fx.cfg);
    listener.start();
    WireClientReport rep;
    std::thread client(
        [&] { rep = fx.send(listener.tcpAddress(), 1); });
    ASSERT_EQ(listener.awaitSessions(1, 10000.0), 1u);
    listener.freezeAdmission();
    {
        auto sup = std::make_unique<Supervisor>(ServeConfig{});
        const FleetResult fr = sup->runFleet(fx.registry);
        ASSERT_EQ(fr.sessions.size(), 1u);
        EXPECT_FALSE(fr.sessions[0].escalated);
        EXPECT_TRUE(
            sameRecords(fr.sessions[0].records, fx.oracle_records));
        EXPECT_TRUE(
            sameReports(fr.sessions[0].reports, fx.oracle_reports));
    }
    client.join();
    EXPECT_TRUE(rep.delivered_all) << rep.error;
    for (WireSource *src : listener.sources())
        src->closeIngest();
    listener.drainAndClose();
}

/** 256 wire sessions at ServeConfig defaults: a fixed worker pool,
 *  not a thread pair per device. Each session is shorter than the
 *  receive window, so every client has its EOF ACKed before the run
 *  starts and 8 client threads can serve all of them in turn. */
TEST(WireListener, FleetOf256SessionsAtDefaultsMatchesSerialOracle)
{
    constexpr std::size_t kSessions = 256;
    constexpr std::size_t kClients = 8;
    ServedFixture fx(41);
    ASSERT_LT(fx.stream->size(), fx.cfg.source.recv_capacity);
    WireListener listener(fx.registry, fx.cfg);
    listener.start();
    std::atomic<std::size_t> delivered{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            for (std::size_t s = c; s < kSessions; s += kClients)
                if (fx.send(listener.tcpAddress(), s + 1).delivered_all)
                    delivered.fetch_add(1);
        });
    for (std::thread &t : clients)
        t.join();
    ASSERT_EQ(delivered.load(), kSessions);
    ASSERT_EQ(listener.awaitSessions(kSessions, 10000.0), kSessions);
    listener.freezeAdmission();

    Supervisor sup(ServeConfig{});
    const FleetResult fr = sup.runFleet(fx.registry);
    ASSERT_EQ(fr.sessions.size(), kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
        ASSERT_FALSE(fr.sessions[s].escalated) << "session " << s;
        EXPECT_TRUE(
            sameRecords(fr.sessions[s].records, fx.oracle_records))
            << "session " << s;
        EXPECT_TRUE(
            sameReports(fr.sessions[s].reports, fx.oracle_reports))
            << "session " << s;
    }
    ASSERT_NE(sup.fleetScheduler(), nullptr);
    const SchedulerStats ss = sup.fleetScheduler()->schedulerStats();
    const std::size_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(ss.sessions, kSessions);
    EXPECT_LE(ss.workers, hw);
    listener.drainAndClose();
}

} // namespace
