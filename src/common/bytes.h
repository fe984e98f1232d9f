/**
 * @file
 * The one byte codec of every artifact and frame EDDIE writes or
 * reads (DESIGN.md §6): models, captures, STS payloads and streams,
 * checkpoint snapshots and delta segments, archive headers and wire
 * frames all encode and decode through the four parts below.
 *
 *  - ByteWriter appends fixed-width fields in host byte order, which
 *    the static_assert pins to little-endian: the byte order of every
 *    format is decided here and nowhere else.
 *  - ByteReader is the bounds-checked reader. A read past the end is a
 *    short input (IoError); a field whose value cannot be true is a
 *    lie (FormatError). items() refuses a count that the bytes left
 *    cannot hold before the caller allocates anything for it, and
 *    array() checks a run's bytes before its vector grows, so no
 *    decoder allocates more than its input can back.
 *  - load<T>() is the unchecked read for fixed layouts whose size the
 *    caller has already checked (archive and wire headers), so the
 *    wire decoder keeps its never-throws contract.
 *  - frame()/unframe() wrap a payload as magic | u32 version | u64
 *    length | payload | CRC-32 of the payload: the framing of
 *    captures, STS streams, group snapshots and delta segments. The
 *    length is checked against the bytes actually present, never
 *    allocated.
 *
 * Header-only: core/errors.h is header-only too, so the wire and
 * store layers use the codec without linking the pipeline libraries.
 */

#ifndef EDDIE_COMMON_BYTES_H
#define EDDIE_COMMON_BYTES_H

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/crc32.h"
#include "core/errors.h"

namespace eddie::common
{

static_assert(std::endian::native == std::endian::little,
              "every EDDIE format is little-endian and the codec "
              "writes host byte order");

/** Cap on a framed payload and an archive value: a capture is
 *  bounded by hours of f64 samples. */
inline constexpr std::uint64_t kMaxPayloadBytes = std::uint64_t(1) << 37;

/** The max of a count bounded only by the bytes left (items()). */
inline constexpr std::uint64_t kAnyCount = ~std::uint64_t(0);

/** Unchecked read of a fixed-width field at @p p; the caller has
 *  checked that sizeof(T) bytes are there. */
template <typename T>
T
load(const char *p)
{
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, p, sizeof value);
    return value;
}

/** Appends fixed-width little-endian fields to a buffer it does not
 *  own. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::string &out) : out_(out) {}

    template <typename T>
    void put(T value)
    {
        static_assert(std::is_arithmetic_v<T>);
        out_.append(reinterpret_cast<const char *>(&value), sizeof value);
    }

    /** @p n values in a row (the payload of a counted array). */
    template <typename T>
    void array(const T *values, std::size_t n)
    {
        static_assert(std::is_arithmetic_v<T>);
        out_.append(reinterpret_cast<const char *>(values),
                    n * sizeof(T));
    }

    void bytes(std::string_view b) { out_.append(b); }

  private:
    std::string &out_;
};

/**
 * Bounds-checked reader over [data, data + size). @p prefix names the
 * decoder in every message ("model", "checkpoint", ...), @p what the
 * field: "model: truncated rank count", "checkpoint: record exceeds
 * the payload".
 */
class ByteReader
{
  public:
    ByteReader(const char *data, std::size_t size, const char *prefix)
        : p_(data), end_(data + size), prefix_(prefix)
    {
    }

    template <typename T>
    T get(const char *what)
    {
        if (left() < sizeof(T))
            truncated(what);
        const T value = load<T>(p_);
        p_ += sizeof(T);
        return value;
    }

    /** A double that must be finite. */
    double f64(const char *what)
    {
        const double v = get<double>(what);
        if (!std::isfinite(v))
            lie(what, " is not finite");
        return v;
    }

    /** A u64 count that must not exceed @p max. */
    std::uint64_t count(const char *what, std::uint64_t max)
    {
        const auto n = get<std::uint64_t>(what);
        if (n > max)
            lie(what, " out of range");
        return n;
    }

    /** A count of items that each take at least @p min_item_bytes of
     *  the input: one above @p max, or one the bytes left cannot hold,
     *  is refused before anything is allocated for it. */
    std::size_t items(const char *what, std::uint64_t max,
                      std::size_t min_item_bytes)
    {
        const std::uint64_t n = count(what, max);
        fits(what, n, min_item_bytes);
        return std::size_t(n);
    }

    /** Refuses @p n items of @p item_bytes each when the bytes left
     *  cannot hold them. An item of no bytes counts as one, so a
     *  count of empty items is bounded too. */
    void fits(const char *what, std::uint64_t n,
              std::uint64_t item_bytes) const
    {
        if (n > left() / (item_bytes == 0 ? 1 : item_bytes))
            lie(what, " exceeds the payload");
    }

    /** The next @p n bytes, in place. */
    std::string_view bytes(std::uint64_t n, const char *what)
    {
        if (left() < n)
            truncated(what);
        const std::string_view out(p_, std::size_t(n));
        p_ += n;
        return out;
    }

    /** Replaces @p out by the next @p n values. Their bytes are
     *  checked before @p out grows. */
    template <typename T>
    void array(std::vector<T> &out, std::uint64_t n, const char *what)
    {
        static_assert(std::is_arithmetic_v<T>);
        if (n > left() / sizeof(T))
            truncated(what);
        out.resize(std::size_t(n));
        if (n != 0) // data() may be null for an empty vector
            std::memcpy(out.data(), p_, std::size_t(n) * sizeof(T));
        p_ += std::size_t(n) * sizeof(T);
    }

    std::size_t left() const { return std::size_t(end_ - p_); }
    bool exhausted() const { return p_ == end_; }

    /** Refuses bytes after the last field. */
    void finish() const
    {
        if (!exhausted())
            throw core::FormatError(std::string(prefix_) +
                                    ": trailing payload bytes");
    }

    [[noreturn]] void truncated(const char *what) const
    {
        throw core::IoError(std::string(prefix_) + ": truncated " + what);
    }

    [[noreturn]] void lie(const char *what, const char *rule) const
    {
        throw core::FormatError(std::string(prefix_) + ": " + what +
                                rule);
    }

  private:
    const char *p_;
    const char *end_;
    const char *prefix_;
};

/** @p payload framed as magic | u32 version | u64 length | payload |
 *  CRC-32 of the payload. */
inline std::string
frame(const char (&magic)[8], std::uint32_t version,
      std::string_view payload)
{
    std::string out;
    out.reserve(sizeof magic + 4 + 8 + payload.size() + 4);
    ByteWriter w(out);
    w.bytes(std::string_view(magic, sizeof magic));
    w.put(version);
    w.put<std::uint64_t>(payload.size());
    w.bytes(payload);
    w.put(crc32(payload.data(), payload.size()));
    return out;
}

/**
 * The payload of the one frame of exactly @p version that fills
 * [data, data + size), in place. Throws IoError when the bytes end
 * before the frame does (a length is never allocated, only checked
 * against the bytes present), FormatError on bad magic, any other
 * version, a length above kMaxPayloadBytes, a CRC mismatch or bytes
 * after the frame. @p what names the artifact in messages.
 */
inline std::string_view
unframe(const char *data, std::size_t size, const char (&magic)[8],
        std::uint32_t version, const char *what)
{
    ByteReader r(data, size, what);
    if (r.bytes(sizeof magic, "magic") !=
        std::string_view(magic, sizeof magic))
        throw core::FormatError(std::string(what) + ": bad magic");
    if (r.get<std::uint32_t>("version") != version)
        throw core::FormatError(std::string(what) +
                                ": unsupported version");
    const std::uint64_t length = r.get<std::uint64_t>("payload length");
    if (length > kMaxPayloadBytes)
        r.lie("payload length", " out of range");
    const std::string_view payload = r.bytes(length, "payload");
    if (r.get<std::uint32_t>("checksum") !=
        crc32(payload.data(), payload.size()))
        throw core::FormatError(std::string(what) +
                                ": checksum mismatch");
    r.finish();
    return payload;
}

} // namespace eddie::common

#endif // EDDIE_COMMON_BYTES_H
