/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for the
 * persistence layer's integrity framing: models, captures, STS
 * streams and checkpoints all carry a checksum over their payload so
 * a bit-flipped or short artifact is detected before it can poison a
 * cache or train a model (see docs/ALGORITHM.md §10).
 */

#ifndef EDDIE_COMMON_CRC32_H
#define EDDIE_COMMON_CRC32_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace eddie::common
{

/** CRC-32 of @p data; @p seed chains incremental updates (pass a
 *  previous result to continue a running checksum). */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t seed = 0);

/** Convenience overload for whole byte strings. */
std::uint32_t crc32(const std::string &bytes, std::uint32_t seed = 0);

/**
 * CRC-32 of a whole file's bytes, streamed in fixed-size chunks;
 * nullopt when the file cannot be opened or read. The serving
 * runtime's hot model reload polls this to detect a changed model
 * artifact without parsing it.
 */
std::optional<std::uint32_t> crc32File(const std::string &path);

} // namespace eddie::common

#endif // EDDIE_COMMON_CRC32_H
