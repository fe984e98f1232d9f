/**
 * @file
 * Client half of the wire protocol: streams a seekable SampleSource
 * to a WireListener, surviving disconnects the way RetryingSource
 * survives pull faults — capped-exponential backoff (serve/backoff.h)
 * plus replay from the server's last ACK. The server dedups the
 * replay overlap and refuses gaps, so delivery is exactly-once
 * in-order no matter how many times the link drops mid-batch.
 *
 * The client is also the chaos harness's byte-level fault injector:
 * WireChaosConfig draws a deterministic per-batch fate from
 * faults::fateMix (the same splitmix finalizer behind every other
 * fate stream in the repo) and mutates its OWN traffic — torn
 * frames, clean mid-stream disconnects, duplicated and skip-ahead
 * (reordered) replays, corrupted bytes, and hostile length fields.
 * Like serve/chaos.h, a per-sequence attempt cap forces a clean send
 * after max_consecutive faulted tries, so chaos delays delivery but
 * cannot livelock a stream. Every injected fault is counted in the
 * report; the invariant (proved by the chaos wire phase) is that the
 * server's verdicts stay bit-identical anyway.
 */

#ifndef EDDIE_SERVE_WIRE_CLIENT_H
#define EDDIE_SERVE_WIRE_CLIENT_H

#include <cstdint>
#include <map>
#include <string>

#include "backoff.h"
#include "sample_source.h"
#include "wire/frame.h"

namespace eddie::serve
{

/** Deterministic byte-level fault injection (all off by default). */
struct WireChaosConfig
{
    std::uint64_t seed = 1;
    /** Send a torn prefix of the frame, then drop the link. */
    double tear_prob = 0.0;
    /** Send the full batch, then drop the link (mid-stream cut). */
    double disconnect_prob = 0.0;
    /** Re-send the previous batch before the current one (duplicate
     *  the server must drop). */
    double duplicate_prob = 0.0;
    /** Send the batch with a skip-ahead sequence (a reorder the
     *  server must refuse as a gap). */
    double reorder_prob = 0.0;
    /** Flip one byte of the encoded frame (CRC must catch it). */
    double corrupt_prob = 0.0;
    /** Send a header whose length field exceeds the server's payload
     *  cap (valid CRCs — only the bound check can refuse it). */
    double hostile_len_prob = 0.0;
    /** Faulted sends tolerated per batch sequence before the send is
     *  forced clean (termination cap, as in serve/chaos.h). */
    std::uint64_t max_consecutive = 2;
};

struct WireClientConfig
{
    /** TCP "host:port" (used when non-empty, else unix_path). */
    std::string tcp;
    std::string unix_path;
    std::string tenant = "default";
    /** Client-chosen session key, stable across reconnects. */
    std::uint64_t session = 1;
    /** Windows per STS-BATCH frame. */
    std::size_t batch_windows = 32;
    BackoffConfig backoff;
    /** Handshake / final-ACK wait. */
    double ack_timeout_ms = 10000.0;
    /** Idle nap while the source itself stalls. */
    double stall_nap_ms = 10.0;
    WireChaosConfig chaos;
};

/** Everything one stream() call did — fault counters feed the chaos
 *  report, delivery counters feed the bench. */
struct WireClientReport
{
    /** The server ACKed the EOF at the full stream length. */
    bool delivered_all = false;
    /** Non-empty when the client gave up (fatal NACK, attempts
     *  exhausted, non-seekable source). */
    std::string error;

    std::uint64_t windows_sent = 0;
    std::uint64_t batches_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t connects = 0;
    std::uint64_t reconnects = 0;
    /** Windows re-sent below the resume point after a reconnect. */
    std::uint64_t windows_replayed = 0;
    std::uint64_t nacks_received = 0;

    /** Injected-fault counters (chaos accounting). */
    std::uint64_t torn_frames = 0;
    std::uint64_t forced_disconnects = 0;
    std::uint64_t duplicate_batches = 0;
    std::uint64_t reordered_batches = 0;
    std::uint64_t corrupted_frames = 0;
    std::uint64_t hostile_lengths = 0;
};

class WireClient
{
  public:
    explicit WireClient(WireClientConfig cfg);

    /**
     * Streams @p src to the configured endpoint until the server
     * ACKs EOF (delivered_all) or the client gives up (error set).
     * @p src must be seekable: every (re)connect seeks it to the
     * server's ACKed resume point.
     */
    WireClientReport stream(SampleSource &src);

  private:
    WireClientConfig cfg_;
};

} // namespace eddie::serve

#endif // EDDIE_SERVE_WIRE_CLIENT_H
