#include "capture_io.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/bytes.h"
#include "errors.h"

namespace eddie::core
{

namespace
{

constexpr char kMagic[8] = {'E', 'D', 'D', 'I', 'E', 'C', 'A', 'P'};
constexpr char kStsMagic[8] = {'E', 'D', 'D', 'I', 'E', 'S', 'T', 'S'};

/**
 * Version 2 (both formats) carries integrity framing after the magic
 * and version (common::frame()): u64 payload length, the payload
 * bytes, then a CRC-32 of the payload. A flipped bit fails the
 * checksum and a short file fails the length, so a corrupt artifact
 * is a typed error instead of silently-wrong samples. Version-1 files
 * (unframed) fail as FormatError.
 */
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kStsVersion = 2;

/** Smallest encoded STS: t_start, t_end, true_region, injected,
 *  window_energy, peak_energy_frac, faulted and the peak count. */
constexpr std::size_t kMinStsBytes = 8 + 8 + 8 + 1 + 8 + 8 + 1 + 8;
/** Peaks per STS; the peak rule keeps far fewer. */
constexpr std::uint64_t kMaxPeaks = std::uint64_t(1) << 20;
/** Bytes per capture sample: power (f64), region id (u64), injection
 *  flag (u8). */
constexpr std::size_t kCaptureSampleBytes = 8 + 8 + 1;

/** All of @p is: a frame's length is checked against the bytes that
 *  are there, never allocated up front. */
std::string
readAll(std::istream &is)
{
    std::ostringstream all;
    all << is.rdbuf();
    return std::move(all).str();
}

} // namespace

void
saveCapture(const cpu::RunResult &run, std::ostream &os)
{
    std::string payload;
    common::ByteWriter w(payload);
    const std::uint64_t n = run.power.size();
    w.put(run.sample_rate);
    w.put(n);
    w.array(run.power.data(), run.power.size());
    // Region ids (kNoRegion encodes as ~0).
    for (std::uint64_t i = 0; i < n; ++i)
        w.put<std::uint64_t>(i < run.region.size() ? run.region[i]
                                                   : ~std::uint64_t(0));
    for (std::uint64_t i = 0; i < n; ++i)
        w.put<std::uint8_t>(i < run.injected.size() ? run.injected[i] : 0);
    const std::string framed = common::frame(kMagic, kVersion, payload);
    os.write(framed.data(), std::streamsize(framed.size()));
}

cpu::RunResult
loadCapture(std::istream &is)
{
    const std::string file = readAll(is);
    const std::string_view payload = common::unframe(
        file.data(), file.size(), kMagic, kVersion, "capture");
    common::ByteReader r(payload.data(), payload.size(), "capture");
    cpu::RunResult run;
    run.sample_rate = r.get<double>("sample rate");
    if (!(run.sample_rate > 0.0))
        throw FormatError("capture: bad sample rate");
    const std::size_t n =
        r.items("sample count", common::kAnyCount, kCaptureSampleBytes);
    r.array(run.power, n, "power samples");
    r.array(run.region, n, "region ids");
    r.array(run.injected, n, "injection flags");
    r.finish();
    return run;
}

void
saveStsStream(const std::vector<Sts> &stream, std::ostream &os)
{
    const std::string framed =
        common::frame(kStsMagic, kStsVersion, encodeStsPayload(stream));
    os.write(framed.data(), std::streamsize(framed.size()));
}

std::vector<Sts>
loadStsStream(std::istream &is)
{
    const std::string file = readAll(is);
    const std::string_view payload = common::unframe(
        file.data(), file.size(), kStsMagic, kStsVersion, "sts stream");
    return decodeStsPayload(payload.data(), payload.size());
}

// The payload codecs sit on the wire ingestion hot path (one encode
// and one decode per streamed batch), so they work on buffers, with
// one bounds check per field and no stream dispatch.

std::string
encodeStsPayload(const std::vector<Sts> &stream)
{
    std::size_t bytes = sizeof(std::uint64_t);
    for (const auto &sts : stream)
        bytes += kMinStsBytes + sts.peak_freqs.size() * sizeof(double);
    std::string out;
    out.reserve(bytes);
    common::ByteWriter w(out);
    w.put<std::uint64_t>(stream.size());
    for (const auto &sts : stream) {
        w.put(sts.t_start);
        w.put(sts.t_end);
        w.put<std::uint64_t>(sts.true_region);
        w.put<std::uint8_t>(sts.injected ? 1 : 0);
        w.put(sts.window_energy);
        w.put(sts.peak_energy_frac);
        w.put<std::uint8_t>(sts.faulted ? 1 : 0);
        w.put<std::uint64_t>(sts.peak_freqs.size());
        w.array(sts.peak_freqs.data(), sts.peak_freqs.size());
    }
    return out;
}

std::vector<Sts>
decodeStsPayload(const char *data, std::size_t size)
{
    common::ByteReader r(data, size, "sts stream");
    std::vector<Sts> stream(
        r.items("window count", common::kAnyCount, kMinStsBytes));
    for (auto &sts : stream) {
        sts.t_start = r.get<double>("t_start");
        sts.t_end = r.get<double>("t_end");
        sts.true_region = r.get<std::uint64_t>("true region");
        sts.injected = r.get<std::uint8_t>("injected flag") != 0;
        sts.window_energy = r.get<double>("window energy");
        sts.peak_energy_frac = r.get<double>("peak energy fraction");
        sts.faulted = r.get<std::uint8_t>("faulted flag") != 0;
        const std::uint64_t peaks = r.count("peak count", kMaxPeaks);
        r.array(sts.peak_freqs, peaks, "peak frequencies");
    }
    r.finish();
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
