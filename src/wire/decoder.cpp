#include "decoder.h"

#include "common/bytes.h"

namespace eddie::wire
{

using common::load;

FrameDecoder::FrameDecoder(FrameDecoderConfig cfg) : cfg_(cfg)
{
}

std::size_t
FrameDecoder::feed(const void *data, std::size_t size)
{
    if (poisoned_ || end_of_input_)
        return 0;
    // Consumed frames are compacted here, not in next(): the payload
    // pointer next() returned stays valid until this call.
    if (head_ > 0) {
        buf_.erase(buf_.begin(), buf_.begin() + std::ptrdiff_t(head_));
        head_ = 0;
    }
    const std::size_t room = capacity() - buf_.size();
    const std::size_t take = size < room ? size : room;
    if (take == 0)
        return 0;
    const char *p = static_cast<const char *>(data);
    buf_.insert(buf_.end(), p, p + take);
    return take;
}

Decoded
FrameDecoder::poison(WireError err)
{
    if (!poisoned_) {
        poisoned_ = true;
        error_ = err;
        stats_.count(err);
    }
    Decoded out;
    out.status = DecodeStatus::Error;
    out.error = error_;
    return out;
}

Decoded
FrameDecoder::next()
{
    Decoded out;
    if (poisoned_)
        return poison(error_);
    const std::size_t avail = buf_.size() - head_;
    if (avail < kHeaderSize) {
        if (end_of_input_ && avail > 0)
            return poison(WireError::Truncated);
        return out; // NeedMore
    }
    const char *p = buf_.data() + head_;
    if (load<std::uint32_t>(p) != kMagic)
        return poison(WireError::BadMagic);
    // Version precedes the CRC check on purpose: a future version may
    // move the header CRC, so its location can only be trusted for
    // versions this decoder knows.
    if (load<std::uint16_t>(p + 4) != kWireVersion)
        return poison(WireError::BadVersion);
    if (common::crc32(p, 40) != load<std::uint32_t>(p + 40))
        return poison(WireError::HeaderCrc);
    // Past here the header fields are CRC-verified.
    const std::uint8_t type = std::uint8_t(p[6]);
    const std::uint8_t reserved = std::uint8_t(p[7]);
    if (reserved != 0 ||
        type < static_cast<std::uint8_t>(FrameType::Hello) ||
        type > static_cast<std::uint8_t>(FrameType::Nack))
        return poison(WireError::BadType);
    const std::uint32_t payload_len = load<std::uint32_t>(p + 32);
    if (std::size_t(payload_len) > cfg_.max_payload)
        return poison(WireError::Oversized);
    const std::size_t total = kHeaderSize + payload_len;
    if (avail < total) {
        if (end_of_input_)
            return poison(WireError::Truncated);
        return out; // NeedMore
    }
    if (common::crc32(p + kHeaderSize, std::size_t(payload_len)) !=
        load<std::uint32_t>(p + 36))
        return poison(WireError::PayloadCrc);

    out.status = DecodeStatus::Frame;
    out.header.type = static_cast<FrameType>(type);
    out.header.tenant = load<std::uint64_t>(p + 8);
    out.header.session = load<std::uint64_t>(p + 16);
    out.header.sequence = load<std::uint64_t>(p + 24);
    out.header.payload_len = payload_len;
    out.payload = p + kHeaderSize;
    ++stats_.frames_decoded;
    stats_.bytes_decoded += total;
    head_ += total;
    return out;
}

void
FrameDecoder::endOfInput()
{
    end_of_input_ = true;
}

void
FrameDecoder::reset()
{
    buf_.clear();
    head_ = 0;
    poisoned_ = false;
    end_of_input_ = false;
    error_ = WireError::Truncated;
}

} // namespace eddie::wire
