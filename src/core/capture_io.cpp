#include "capture_io.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/crc32.h"
#include "errors.h"

namespace eddie::core
{

namespace
{

constexpr char kMagic[8] = {'E', 'D', 'D', 'I', 'E', 'C', 'A', 'P'};
constexpr char kStsMagic[8] = {'E', 'D', 'D', 'I', 'E', 'S', 'T', 'S'};

/**
 * Version 2 (both formats) carries integrity framing after the magic
 * and version: u64 payload length, the payload bytes, then a CRC-32
 * of the payload. A flipped bit fails the checksum and a short file
 * fails the length, so a corrupt artifact is a typed error instead of
 * silently-wrong samples. Version-1 files (unframed) fail as
 * FormatError.
 */
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kStsVersion = 2;

/** Smallest encoded STS: t_start, t_end, true_region, injected,
 *  window_energy, peak_energy_frac, faulted and the peak count. */
constexpr std::size_t kMinStsBytes = 8 + 8 + 8 + 1 + 8 + 8 + 1 + 8;
/** Bytes per capture sample: power (f64), region id (u64), injection
 *  flag (u8). */
constexpr std::size_t kCaptureSampleBytes = 8 + 8 + 1;

/** Payloads are capped before allocation; a capture is bounded by
 *  hours of f64 samples. */
constexpr std::uint64_t kMaxPayloadBytes = std::uint64_t(1) << 37;

template <typename T>
void
writeRaw(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof value);
}

template <typename T>
T
readRaw(std::istream &is, const char *what)
{
    T value{};
    is.read(reinterpret_cast<char *>(&value), sizeof value);
    if (!is)
        throw IoError(std::string(what) + ": truncated input");
    return value;
}

void
writeCapturePayload(const cpu::RunResult &run, std::ostream &os)
{
    writeRaw(os, run.sample_rate);
    const std::uint64_t n = run.power.size();
    writeRaw(os, n);
    os.write(reinterpret_cast<const char *>(run.power.data()),
             std::streamsize(n * sizeof(double)));

    // Region ids (kNoRegion encodes as ~0).
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t r =
            i < run.region.size() ? run.region[i] : ~std::uint64_t(0);
        writeRaw(os, r);
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint8_t f =
            i < run.injected.size() ? run.injected[i] : 0;
        writeRaw(os, f);
    }
}

cpu::RunResult
readCapturePayload(const std::string &payload)
{
    std::istringstream is(payload, std::ios::binary);
    cpu::RunResult run;
    run.sample_rate = readRaw<double>(is, "capture");
    if (!(run.sample_rate > 0.0))
        throw FormatError("capture: bad sample rate");
    const auto n = readRaw<std::uint64_t>(is, "capture");
    // A count the payload cannot hold is refused before allocating.
    if (n > (payload.size() - 16) / kCaptureSampleBytes)
        throw FormatError("capture: implausible size");

    run.power.resize(n);
    is.read(reinterpret_cast<char *>(run.power.data()),
            std::streamsize(n * sizeof(double)));
    if (!is)
        throw IoError("capture: truncated samples");

    run.region.resize(n);
    for (std::uint64_t i = 0; i < n; ++i)
        run.region[i] = readRaw<std::uint64_t>(is, "capture");
    run.injected.resize(n);
    for (std::uint64_t i = 0; i < n; ++i)
        run.injected[i] = readRaw<std::uint8_t>(is, "capture");
    return run;
}

} // namespace

void
writeFramed(std::ostream &os, const char (&magic)[8],
            std::uint32_t version, const std::string &payload)
{
    os.write(magic, sizeof magic);
    writeRaw(os, version);
    writeRaw(os, std::uint64_t(payload.size()));
    os.write(payload.data(), std::streamsize(payload.size()));
    writeRaw(os, common::crc32(payload));
}

void
readFramed(std::istream &is, const char (&magic)[8],
           std::uint32_t version, const char *what, std::string &payload)
{
    char stored[8];
    is.read(stored, sizeof stored);
    if (!is)
        throw IoError(std::string(what) + ": truncated input");
    if (std::memcmp(stored, magic, sizeof stored) != 0)
        throw FormatError(std::string(what) + ": bad magic");
    if (readRaw<std::uint32_t>(is, what) != version)
        throw FormatError(std::string(what) + ": unsupported version");

    const auto size = readRaw<std::uint64_t>(is, what);
    if (size > kMaxPayloadBytes)
        throw FormatError(std::string(what) + ": implausible size");
    payload.resize(std::size_t(size));
    is.read(payload.data(), std::streamsize(payload.size()));
    if (!is)
        throw IoError(std::string(what) + ": truncated payload");
    const auto stored_crc = readRaw<std::uint32_t>(is, what);
    if (stored_crc != common::crc32(payload))
        throw FormatError(std::string(what) + ": checksum mismatch");
}

void
saveCapture(const cpu::RunResult &run, std::ostream &os)
{
    std::ostringstream payload(std::ios::binary);
    writeCapturePayload(run, payload);
    writeFramed(os, kMagic, kVersion, payload.str());
}

cpu::RunResult
loadCapture(std::istream &is)
{
    std::string payload;
    readFramed(is, kMagic, kVersion, "capture", payload);
    return readCapturePayload(payload);
}

void
saveStsStream(const std::vector<Sts> &stream, std::ostream &os)
{
    // Same bytes writeStsPayload would produce, via the buffer
    // encoder the wire hot path uses (one shared v2 serializer).
    writeFramed(os, kStsMagic, kStsVersion,
                encodeStsPayload(stream));
}

std::vector<Sts>
loadStsStream(std::istream &is)
{
    std::string payload;
    readFramed(is, kStsMagic, kStsVersion, "sts stream", payload);
    return decodeStsPayload(payload.data(), payload.size());
}

namespace
{

template <typename T>
void
appendRaw(std::string &out, const T &value)
{
    out.append(reinterpret_cast<const char *>(&value), sizeof value);
}

template <typename T>
T
takeRaw(const char *&p, const char *end)
{
    if (std::size_t(end - p) < sizeof(T))
        throw IoError("sts stream: truncated input");
    T value;
    std::memcpy(&value, p, sizeof value);
    p += sizeof value;
    return value;
}

} // namespace

// The buffer codecs below produce/consume exactly the version-2 STS
// payload byte stream, without per-field ostream/istream dispatch:
// they sit on the wire ingestion hot path (one encode + one decode
// per streamed batch), where the stream codec's ~0.5 us/window was
// the single largest per-window cost.

std::string
encodeStsPayload(const std::vector<Sts> &stream)
{
    std::size_t bytes = sizeof(std::uint64_t);
    for (const auto &sts : stream)
        bytes += 4 * sizeof(double) + 2 * sizeof(std::uint64_t) + 2 +
                 sts.peak_freqs.size() * sizeof(double);
    std::string out;
    out.reserve(bytes);
    appendRaw(out, std::uint64_t(stream.size()));
    for (const auto &sts : stream) {
        appendRaw(out, sts.t_start);
        appendRaw(out, sts.t_end);
        appendRaw(out, std::uint64_t(sts.true_region));
        appendRaw(out, std::uint8_t(sts.injected ? 1 : 0));
        appendRaw(out, sts.window_energy);
        appendRaw(out, sts.peak_energy_frac);
        appendRaw(out, std::uint8_t(sts.faulted ? 1 : 0));
        appendRaw(out, std::uint64_t(sts.peak_freqs.size()));
        out.append(reinterpret_cast<const char *>(
                       sts.peak_freqs.data()),
                   sts.peak_freqs.size() * sizeof(double));
    }
    return out;
}

std::vector<Sts>
decodeStsPayload(const char *data, std::size_t size)
{
    const char *p = data;
    const char *const end = data + size;
    const auto count = takeRaw<std::uint64_t>(p, end);
    // Refused before allocating: a count the bytes left cannot hold
    // (a hostile frame could otherwise ask for hundreds of GiB).
    if (count > std::uint64_t(end - p) / kMinStsBytes)
        throw FormatError("sts stream: implausible size");

    std::vector<Sts> stream{};
    stream.resize(std::size_t(count));
    for (auto &sts : stream) {
        sts.t_start = takeRaw<double>(p, end);
        sts.t_end = takeRaw<double>(p, end);
        sts.true_region =
            std::size_t(takeRaw<std::uint64_t>(p, end));
        sts.injected = takeRaw<std::uint8_t>(p, end) != 0;
        sts.window_energy = takeRaw<double>(p, end);
        sts.peak_energy_frac = takeRaw<double>(p, end);
        sts.faulted = takeRaw<std::uint8_t>(p, end) != 0;
        const auto peaks = takeRaw<std::uint64_t>(p, end);
        if (peaks > (std::uint64_t(1) << 20))
            throw FormatError("sts stream: implausible peaks");
        const std::size_t peak_bytes =
            std::size_t(peaks) * sizeof(double);
        if (std::size_t(end - p) < peak_bytes)
            throw IoError("sts stream: truncated input");
        sts.peak_freqs.resize(std::size_t(peaks));
        if (peak_bytes != 0) // data() may be null for no peaks
            std::memcpy(sts.peak_freqs.data(), p, peak_bytes);
        p += peak_bytes;
    }
    if (p != end)
        throw FormatError("sts stream: trailing payload bytes");
    return stream;
}

void
saveCaptureFile(const cpu::RunResult &run, const std::string &path)
{
    errno = 0;
    std::ofstream os(path, std::ios::binary);
    if (!os)
        throw ioErrorErrno("capture: open for write", path);
    saveCapture(run, os);
    os.flush();
    if (!os)
        throw ioErrorErrno("capture: write", path);
}

cpu::RunResult
loadCaptureFile(const std::string &path)
{
    errno = 0;
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw ioErrorErrno("capture: open", path);
    return loadCapture(is);
}

} // namespace eddie::core
