#include "frame.h"

#include "common/bytes.h"

namespace eddie::wire
{

using common::load;

const char *
name(WireError err)
{
    switch (err) {
    case WireError::BadMagic:
        return "bad_magic";
    case WireError::BadVersion:
        return "bad_version";
    case WireError::BadType:
        return "bad_type";
    case WireError::Oversized:
        return "oversized";
    case WireError::HeaderCrc:
        return "header_crc";
    case WireError::PayloadCrc:
        return "payload_crc";
    case WireError::Truncated:
        return "truncated";
    case WireError::SequenceGap:
        return "sequence_gap";
    case WireError::BadPayload:
        return "bad_payload";
    case WireError::Protocol:
        return "protocol";
    }
    return "unknown";
}

const char *
name(FrameType type)
{
    switch (type) {
    case FrameType::Hello:
        return "hello";
    case FrameType::Ack:
        return "ack";
    case FrameType::StsBatch:
        return "sts_batch";
    case FrameType::Heartbeat:
        return "heartbeat";
    case FrameType::Eof:
        return "eof";
    case FrameType::Nack:
        return "nack";
    }
    return "unknown";
}

const char *
name(NackCode code)
{
    switch (code) {
    case NackCode::None:
        return "none";
    case NackCode::MalformedFrame:
        return "malformed_frame";
    case NackCode::SequenceGap:
        return "sequence_gap";
    case NackCode::UnknownTenant:
        return "unknown_tenant";
    case NackCode::TenantSessionLimit:
        return "tenant_session_limit";
    case NackCode::FleetSessionLimit:
        return "fleet_session_limit";
    case NackCode::BreakerOpen:
        return "breaker_open";
    case NackCode::AdmissionClosed:
        return "admission_closed";
    case NackCode::ProtocolError:
        return "protocol_error";
    }
    return "unknown";
}

std::uint64_t
WireStats::totalErrors() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kWireErrorCount; ++i)
        total += errors[i];
    return total;
}

void
WireStats::merge(const WireStats &other)
{
    frames_decoded += other.frames_decoded;
    bytes_decoded += other.bytes_decoded;
    for (std::size_t i = 0; i < kWireErrorCount; ++i)
        errors[i] += other.errors[i];
}

std::uint64_t
tenantHash(const std::string &tenant_id)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : tenant_id) {
        h ^= std::uint64_t(static_cast<unsigned char>(c));
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
encodeHeaderRaw(const FrameHeader &header, std::uint32_t payload_crc)
{
    std::string out;
    out.reserve(kHeaderSize);
    common::ByteWriter w(out);
    w.put(kMagic);
    w.put(kWireVersion);
    w.put(static_cast<std::uint8_t>(header.type));
    w.put<std::uint8_t>(0); // reserved
    w.put(header.tenant);
    w.put(header.session);
    w.put(header.sequence);
    w.put(header.payload_len);
    w.put(payload_crc);
    w.put(common::crc32(out.data(), out.size()));
    return out;
}

std::string
encodeFrame(const FrameHeader &header, const std::string &payload)
{
    FrameHeader h = header;
    h.payload_len = std::uint32_t(payload.size());
    std::string out = encodeHeaderRaw(
        h, common::crc32(payload.data(), payload.size()));
    out.reserve(kHeaderSize + payload.size());
    out.append(payload);
    return out;
}

std::string
encodeHelloPayload(const std::string &tenant_id)
{
    std::string out;
    common::ByteWriter w(out);
    w.put(std::uint32_t(tenant_id.size()));
    w.bytes(tenant_id);
    return out;
}

bool
decodeHelloPayload(const char *payload, std::size_t size,
                   std::string &tenant_id)
{
    if (size < 4)
        return false;
    const auto len = load<std::uint32_t>(payload);
    if (len > kMaxTenantIdLen || std::size_t(len) + 4 != size ||
        len == 0)
        return false;
    tenant_id.assign(payload + 4, len);
    return true;
}

std::string
encodeNackPayload(NackCode code, const std::string &msg)
{
    std::string out;
    common::ByteWriter w(out);
    w.put(static_cast<std::uint32_t>(code));
    w.put(std::uint32_t(msg.size()));
    w.bytes(msg);
    return out;
}

bool
decodeNackPayload(const char *payload, std::size_t size,
                  NackCode &code, std::string &msg)
{
    if (size < 8)
        return false;
    const auto raw = load<std::uint32_t>(payload);
    const auto len = load<std::uint32_t>(payload + 4);
    if (std::size_t(len) + 8 != size ||
        raw > static_cast<std::uint32_t>(NackCode::ProtocolError))
        return false;
    code = static_cast<NackCode>(raw);
    msg.assign(payload + 8, len);
    return true;
}

} // namespace eddie::wire
