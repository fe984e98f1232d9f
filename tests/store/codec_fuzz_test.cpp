/**
 * @file
 * Generative tests of every decoder EDDIE runs on outside input: the
 * model payload, capture, STS payload and stream, group snapshot,
 * delta segment, and the wire HELLO and NACK payloads (bare and inside
 * a wire frame). Each small encoded artifact is
 *
 *  - cut at every byte: the decode returns the identical value or
 *    throws core::Error (HELLO and NACK return false);
 *  - bit-flipped at every bit: a checksummed artifact decodes to the
 *    identical value or fails typed; a bare payload (model, STS,
 *    HELLO, NACK), whose checksum lives in its container, may decode
 *    to another value but still never fails any other way;
 *  - overwritten at every 8-byte window with 2^32 and with 2^63 and
 *    re-sealed, so a lying count or length passes every checksum: the
 *    decode returns some value or throws core::Error, and never
 *    std::bad_alloc, since no decoder allocates what its bytes cannot
 *    hold.
 *
 * The robustness label runs this under ASan+UBSan, which turns an
 * over-read into a failure too.
 */

#include <sys/resource.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "codec_samples.h"
#include "common/crc32.h"
#include "core/capture_io.h"
#include "core/errors.h"
#include "core/model.h"
#include "serve/checkpoint.h"
#include "wire/decoder.h"
#include "wire/frame.h"

namespace
{

using namespace eddie;
using codec_samples::poke;

/** How an artifact's checksum covers it, so a test can re-seal it. */
enum class Seal
{
    None,  ///< a bare payload
    Frame, ///< common::frame(): CRC-32 of the payload at the end
    Wire,  ///< a wire frame: payload and header CRCs
};

/**
 * One encoded artifact and its decoder. decode() returns the canonical
 * encoding of what it decoded, so "the identical value" is "the same
 * bytes"; std::nullopt stands for a decoder that answered false; a
 * malformed input throws core::Error.
 */
struct Artifact
{
    const char *name;
    std::string bytes;
    Seal seal;
    std::function<std::optional<std::string>(const std::string &)> decode;
};

serve::GroupCheckpoint
sampleGroup()
{
    serve::GroupCheckpoint group;
    group.epoch = 3;
    group.shards = {codec_samples::checkpoint(0),
                    codec_samples::checkpoint(1)};
    return group;
}

serve::DeltaSegment
sampleSegment()
{
    serve::DeltaSegment seg;
    seg.epoch = 3;
    seg.entries.resize(2);
    seg.entries[0].shard = 0;
    seg.entries[0].delta = codec_samples::delta();
    seg.entries[1].shard = 1;
    seg.entries[1].delta = codec_samples::delta();
    seg.entries[1].delta.history_tail.clear();
    return seg;
}

std::string
captureBytes(const cpu::RunResult &run)
{
    std::ostringstream os;
    core::saveCapture(run, os);
    return os.str();
}

std::string
stsStreamBytes(const std::vector<core::Sts> &stream)
{
    std::ostringstream os;
    core::saveStsStream(stream, os);
    return os.str();
}

/** The one frame @p in holds, or nullopt when the wire decoder refuses
 *  it or bytes follow it. */
std::optional<wire::Decoded>
oneFrame(wire::FrameDecoder &dec, const std::string &in)
{
    dec.feed(in.data(), in.size());
    dec.endOfInput();
    const wire::Decoded d = dec.next();
    if (d.status != wire::DecodeStatus::Frame || dec.buffered() != 0)
        return std::nullopt;
    return d;
}

std::optional<std::string>
decodeHello(const char *data, std::size_t size)
{
    std::string id;
    if (!wire::decodeHelloPayload(data, size, id))
        return std::nullopt;
    return wire::encodeHelloPayload(id);
}

std::optional<std::string>
decodeNack(const char *data, std::size_t size)
{
    wire::NackCode code = wire::NackCode::None;
    std::string msg;
    if (!wire::decodeNackPayload(data, size, code, msg))
        return std::nullopt;
    return wire::encodeNackPayload(code, msg);
}

/** A payload decoder behind the wire frame decoder. */
std::function<std::optional<std::string>(const std::string &)>
framed(std::optional<std::string> (*payload)(const char *, std::size_t))
{
    return [payload](const std::string &in) -> std::optional<std::string> {
        wire::FrameDecoder dec;
        const auto d = oneFrame(dec, in);
        if (!d)
            return std::nullopt;
        const auto value = payload(d->payload, d->header.payload_len);
        if (!value)
            return std::nullopt;
        return wire::encodeFrame(d->header, *value);
    };
}

std::vector<Artifact>
artifacts()
{
    wire::FrameHeader h;
    h.tenant = wire::tenantHash("fuzz");
    h.session = 5;
    h.type = wire::FrameType::Hello;
    const std::string hello = wire::encodeHelloPayload("fuzz-tenant");
    const std::string nack =
        wire::encodeNackPayload(wire::NackCode::BreakerOpen, "open");
    const std::string hello_frame = wire::encodeFrame(h, hello);
    h.type = wire::FrameType::Nack;
    const std::string nack_frame = wire::encodeFrame(h, nack);

    return {
        {"model", core::encodeModelBinary(codec_samples::model()),
         Seal::None,
         [](const std::string &in) -> std::optional<std::string> {
             return core::encodeModelBinary(
                 core::decodeModelBinary(in.data(), in.size()));
         }},
        {"capture", captureBytes(codec_samples::run()), Seal::Frame,
         [](const std::string &in) -> std::optional<std::string> {
             std::istringstream is(in);
             return captureBytes(core::loadCapture(is));
         }},
        {"sts payload", core::encodeStsPayload(codec_samples::stream()),
         Seal::None,
         [](const std::string &in) -> std::optional<std::string> {
             return core::encodeStsPayload(
                 core::decodeStsPayload(in.data(), in.size()));
         }},
        {"sts stream", stsStreamBytes(codec_samples::stream()),
         Seal::Frame,
         [](const std::string &in) -> std::optional<std::string> {
             std::istringstream is(in);
             return stsStreamBytes(core::loadStsStream(is));
         }},
        {"group snapshot", serve::encodeGroupCheckpoint(sampleGroup()),
         Seal::Frame,
         [](const std::string &in) -> std::optional<std::string> {
             return serve::encodeGroupCheckpoint(
                 serve::decodeGroupCheckpoint(in.data(), in.size()));
         }},
        {"delta segment", serve::encodeDeltaSegment(sampleSegment()),
         Seal::Frame,
         [](const std::string &in) -> std::optional<std::string> {
             return serve::encodeDeltaSegment(
                 serve::decodeDeltaSegment(in.data(), in.size()));
         }},
        {"hello payload", hello, Seal::None,
         [](const std::string &in) {
             return decodeHello(in.data(), in.size());
         }},
        {"nack payload", nack, Seal::None,
         [](const std::string &in) {
             return decodeNack(in.data(), in.size());
         }},
        {"hello frame", hello_frame, Seal::Wire, framed(decodeHello)},
        {"nack frame", nack_frame, Seal::Wire, framed(decodeNack)},
    };
}

/** Recomputes the checksums that cover @p bytes. */
void
reseal(Seal seal, std::string &bytes)
{
    switch (seal) {
    case Seal::None:
        break;
    case Seal::Frame:
        codec_samples::reseal(bytes);
        break;
    case Seal::Wire: {
        const std::uint32_t payload_crc =
            common::crc32(bytes.data() + wire::kHeaderSize,
                          bytes.size() - wire::kHeaderSize);
        std::memcpy(bytes.data() + 36, &payload_crc, 4);
        const std::uint32_t header_crc = common::crc32(bytes.data(), 40);
        std::memcpy(bytes.data() + 40, &header_crc, 4);
        break;
    }
    }
}

/** One decode of @p input: its value, or nullopt for a typed refusal
 *  (core::Error or false). Any other exception, std::bad_alloc above
 *  all, fails the test. */
std::optional<std::string>
attempt(const Artifact &a, const std::string &input,
        const std::string &where)
{
    try {
        return a.decode(input);
    } catch (const core::Error &) {
    } catch (const std::exception &e) {
        ADD_FAILURE() << a.name << ", " << where << ": untyped "
                      << typeid(e).name() << ": " << e.what();
    }
    return std::nullopt;
}

TEST(CodecFuzz, CutsAndBitFlipsDecodeIdenticallyOrFailTyped)
{
    for (const Artifact &a : artifacts()) {
        const auto whole = attempt(a, a.bytes, "whole");
        ASSERT_TRUE(whole.has_value()) << a.name;
        ASSERT_EQ(*whole, a.bytes) << a.name << " is not canonical";

        for (std::size_t cut = 0; cut < a.bytes.size(); ++cut) {
            const auto got = attempt(a, a.bytes.substr(0, cut),
                                     "cut at " + std::to_string(cut));
            EXPECT_FALSE(got.has_value())
                << a.name << " decoded from its first " << cut
                << " bytes";
        }
        for (std::size_t bit = 0; bit < a.bytes.size() * 8; ++bit) {
            std::string flipped = a.bytes;
            flipped[bit / 8] = char(flipped[bit / 8] ^ (1 << (bit % 8)));
            const auto got =
                attempt(a, flipped, "bit " + std::to_string(bit));
            if (a.seal != Seal::None && got.has_value()) {
                EXPECT_EQ(*got, a.bytes)
                    << a.name << ": flipped bit " << bit
                    << " decoded to another value";
            }
        }
    }
}

TEST(CodecFuzz, HugeFieldsNeverAllocateWhatTheBytesCannotHold)
{
    for (const Artifact &a : artifacts())
        for (const std::uint64_t huge :
             {std::uint64_t(1) << 32, std::uint64_t(1) << 63})
            for (std::size_t at = 0; at + 8 <= a.bytes.size(); ++at) {
                std::string lying = a.bytes;
                poke(lying, at, huge);
                reseal(a.seal, lying);
                (void)attempt(a, lying,
                              std::to_string(huge) + " at byte " +
                                  std::to_string(at));
            }
}

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** A frame whose length field claims far more than the few payload
 *  bytes behind it is a short input, refused without allocating the
 *  claim: the 1 GiB claim must leave the peak RSS within 64 MB. */
TEST(CodecFuzz, LyingFrameLengthsFailTypedWithoutAllocating)
{
    const std::function<void(const std::string &)> loads[] = {
        [](const std::string &in) {
            std::istringstream is(in);
            (void)core::loadCapture(is);
        },
        [](const std::string &in) {
            std::istringstream is(in);
            (void)core::loadStsStream(is);
        },
        [](const std::string &in) {
            (void)serve::decodeGroupCheckpoint(in.data(), in.size());
        },
        [](const std::string &in) {
            (void)serve::decodeDeltaSegment(in.data(), in.size());
        },
    };
    const std::string heads[] = {
        captureBytes(codec_samples::run()).substr(0, 12),
        stsStreamBytes(codec_samples::stream()).substr(0, 12),
        serve::encodeGroupCheckpoint(sampleGroup()).substr(0, 12),
        serve::encodeDeltaSegment(sampleSegment()).substr(0, 12),
    };
    const std::string payload = "abc";
    for (std::size_t i = 0; i < 4; ++i)
        for (const int log2 : {30, 33, 36}) {
            // magic and version, the lying length, a 3-byte payload
            // and its CRC.
            std::string lying = heads[i] + std::string(8, '\0') + payload;
            poke(lying, 12, std::uint64_t(1) << log2);
            const std::uint32_t crc = common::crc32(payload);
            lying.append(reinterpret_cast<const char *>(&crc), 4);

            const long before = peakRssKb();
            try {
                loads[i](lying);
                ADD_FAILURE() << heads[i].substr(0, 8) << " with a 2^"
                              << log2 << " length decoded";
            } catch (const core::Error &) {
            } catch (const std::exception &e) {
                ADD_FAILURE() << heads[i].substr(0, 8) << " with a 2^"
                              << log2 << " length: untyped "
                              << typeid(e).name() << ": " << e.what();
            }
            if (log2 == 30) {
                EXPECT_LE(peakRssKb() - before, 64 * 1024)
                    << heads[i].substr(0, 8)
                    << ": a 1 GiB claim raised the peak RSS";
            }
        }
}

} // namespace
