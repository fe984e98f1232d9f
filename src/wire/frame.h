/**
 * @file
 * EDDIEWIRE frame format (DESIGN.md §11): the versioned,
 * self-delimiting binary framing STS streams ride over sockets and
 * pipes into eddie_serve. Design constraints, in order:
 *
 *  - *Total over arbitrary bytes.* A peer is untrusted; every field a
 *    decoder interprets before trusting it is covered by a checksum
 *    it verifies first. Malformed input maps to a typed WireError
 *    (frame decoding never throws, allocates unboundedly, or reads
 *    past its buffer — see decoder.h).
 *  - *Self-delimiting.* Fixed 44-byte header carrying an explicit
 *    payload length, so a stream cut at any byte is detectably
 *    truncated rather than silently resynchronized.
 *  - *Cheap.* Checksums reuse the store layer's CRC32 kernel
 *    (common/crc32.h, PCLMUL-dispatched with a slice-by-8 table
 *    fallback); header fields are little-endian, written and read by
 *    the one byte codec (common/bytes.h), which decides the byte
 *    order for every format, so the format is identical across
 *    hosts.
 *
 * Frame grammar (all integers little-endian):
 *
 *   offset size field
 *        0    4 magic "EDW1"
 *        4    2 version (kWireVersion)
 *        6    1 frame type (FrameType)
 *        7    1 reserved, must be 0
 *        8    8 tenant hash (FNV-1a 64 of the tenant id; the full id
 *               string travels once, in the HELLO payload)
 *       16    8 session key (client-chosen, stable across reconnects)
 *       24    8 sequence number (meaning depends on type, see below)
 *       32    4 payload length (bytes; <= the decoder's cap)
 *       36    4 payload CRC32
 *       40    4 header CRC32 over bytes [0, 40)
 *       44    n payload
 *
 * Sequence semantics per type:
 *   Hello      first window index the client *wants* to send (hint;
 *              the server's Ack overrides it)
 *   Ack        resume point: index of the next window the server
 *              expects (everything below is acknowledged durable-in-
 *              order; the client replays from here after reconnect)
 *   StsBatch   index of the batch's first window
 *   Heartbeat  windows sent so far (liveness + progress telemetry)
 *   Eof        total windows in the stream
 *   Nack       echo of the offending sequence (0 when n/a)
 */

#ifndef EDDIE_WIRE_FRAME_H
#define EDDIE_WIRE_FRAME_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace eddie::wire
{

/** "EDW1" little-endian. */
constexpr std::uint32_t kMagic = 0x31574445u;
constexpr std::uint16_t kWireVersion = 1;
/** Fixed header size, bytes. */
constexpr std::size_t kHeaderSize = 44;
/** Default payload-size cap (decoder buffering bound). */
constexpr std::size_t kDefaultMaxPayload = 4u << 20;
/** HELLO payload: tenant ids longer than this are BadPayload. */
constexpr std::size_t kMaxTenantIdLen = 256;

/** Frame types; anything else is WireError::BadType. */
enum class FrameType : std::uint8_t
{
    Hello = 1,
    Ack = 2,
    StsBatch = 3,
    Heartbeat = 4,
    Eof = 5,
    Nack = 6,
};

/** Typed decode failures; every malformed input lands on exactly one
 *  of these and is counted in WireStats. */
enum class WireError : std::uint8_t
{
    /** First four bytes are not kMagic. */
    BadMagic = 0,
    /** Version field != kWireVersion. */
    BadVersion,
    /** Type byte outside FrameType, or reserved byte != 0. */
    BadType,
    /** payload_len exceeds the decoder's cap. */
    Oversized,
    /** Header CRC mismatch (a field in [0,40) is corrupt). */
    HeaderCrc,
    /** Payload CRC mismatch. */
    PayloadCrc,
    /** Stream ended inside a frame. */
    Truncated,
    /** STS-BATCH sequence opens a gap (ingestion-layer check). */
    SequenceGap,
    /** Payload failed semantic decode (STS codec, HELLO fields). */
    BadPayload,
    /** Frame valid but illegal for the connection state. */
    Protocol,
};

constexpr std::size_t kWireErrorCount = 10;

/** Human-readable error name (logs, NACK text, chaos reports). */
const char *name(WireError err);
const char *name(FrameType type);

/** Per-stream decode counters; every WireError increments exactly one
 *  bucket, so `sum(errors) == malformed inputs seen`. */
struct WireStats
{
    std::uint64_t frames_decoded = 0;
    std::uint64_t bytes_decoded = 0;
    std::uint64_t errors[kWireErrorCount] = {};

    void count(WireError err)
    {
        ++errors[static_cast<std::size_t>(err)];
    }
    std::uint64_t errorCount(WireError err) const
    {
        return errors[static_cast<std::size_t>(err)];
    }
    std::uint64_t totalErrors() const;
    /** Bucket-wise sum (listener aggregates per-connection stats). */
    void merge(const WireStats &other);
};

/** Decoded header fields (host integers; CRCs already verified by the
 *  decoder, so consumers never re-check them). */
struct FrameHeader
{
    FrameType type = FrameType::Heartbeat;
    std::uint64_t tenant = 0;
    std::uint64_t session = 0;
    std::uint64_t sequence = 0;
    std::uint32_t payload_len = 0;
};

/** FNV-1a 64 of the tenant id — the fixed-width form carried in every
 *  header so per-frame validation needs no string compare. */
std::uint64_t tenantHash(const std::string &tenant_id);

/** Encodes header + payload into a self-contained frame (computes
 *  both CRCs). The only frame serializer — tests that need hostile
 *  frames corrupt its output rather than hand-rolling bytes. */
std::string encodeFrame(const FrameHeader &header,
                        const std::string &payload);

/** Encodes ONLY the 44-byte header, trusting header.payload_len and
 *  @p payload_crc as given (no payload bytes follow). This is the
 *  hostile-peer construction kit for the chaos client and the fuzz
 *  tests: a frame whose length field lies must still carry valid
 *  CRCs, so nothing but the decoder's cap check can refuse it. */
std::string encodeHeaderRaw(const FrameHeader &header,
                            std::uint32_t payload_crc);

/** NACK payload reason codes (u32 on the wire). */
enum class NackCode : std::uint32_t
{
    None = 0,
    /** Decoder reported a WireError on this connection. */
    MalformedFrame = 1,
    /** STS-BATCH/EOF sequence opened a gap. */
    SequenceGap = 2,
    UnknownTenant = 3,
    TenantSessionLimit = 4,
    FleetSessionLimit = 5,
    BreakerOpen = 6,
    /** Admission frozen (run already started); reconnects of known
     *  sessions are still served. */
    AdmissionClosed = 7,
    /** Frame legal in form but not in this connection state. */
    ProtocolError = 8,
};

const char *name(NackCode code);

/** HELLO payload: u32 tenant-id length + tenant id bytes. */
std::string encodeHelloPayload(const std::string &tenant_id);
/** Returns false (and counts nothing) on a malformed payload. */
bool decodeHelloPayload(const char *payload, std::size_t size,
                        std::string &tenant_id);

/** NACK payload: u32 code + u32 message length + message bytes. */
std::string encodeNackPayload(NackCode code, const std::string &msg);
bool decodeNackPayload(const char *payload, std::size_t size,
                       NackCode &code, std::string &msg);

} // namespace eddie::wire

#endif // EDDIE_WIRE_FRAME_H
