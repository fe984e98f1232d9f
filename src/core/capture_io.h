/**
 * @file
 * Capture files: persist a monitored run's sampled signal and
 * annotations so captures can be analyzed offline, shared, and
 * re-scored against different models — the workflow of a real
 * SDR-based deployment (capture once, analyze many times).
 */

#ifndef EDDIE_CORE_CAPTURE_IO_H
#define EDDIE_CORE_CAPTURE_IO_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cpu/run_result.h"
#include "sts.h"

namespace eddie::core
{

/**
 * Writes a run (power trace + ground-truth annotations) in the
 * binary capture format.
 *
 * Layout: a v2 frame (writeFramed, magic "EDDIECAP") whose payload
 * is the f64 sample rate, the u64 sample count, then the power
 * samples (f64), region ids (u64) and injection flags (u8).
 */
void saveCapture(const cpu::RunResult &run, std::ostream &os);

/** Reads a capture written by saveCapture(). Throws on malformed
 *  input, a version-1 file included (FormatError). Only
 *  signal-related fields of RunResult are populated. */
cpu::RunResult loadCapture(std::istream &is);

/** Convenience file wrappers; throw std::runtime_error on I/O
 *  failure. */
void saveCaptureFile(const cpu::RunResult &run, const std::string &path);
cpu::RunResult loadCaptureFile(const std::string &path);

/**
 * Writes an extracted STS stream in the binary capture format
 * (magic "EDDIESTS"); the capture cache's disk spill and offline STS
 * analysis use this.
 *
 * Layout: a v2 frame (writeFramed, magic "EDDIESTS") around the
 * encodeStsPayload() bytes.
 */
void saveStsStream(const std::vector<Sts> &stream, std::ostream &os);

/** Reads an STS stream written by saveStsStream(). Throws on
 *  malformed input, a version-1 file included (FormatError). */
std::vector<Sts> loadStsStream(std::istream &is);

/**
 * Encodes an STS stream as the raw (unframed) v2 payload — the value
 * format of archive-resident streams, e.g. the capture cache's spill
 * segments; integrity comes from the container's per-sector CRCs
 * instead of the stream framing.
 *
 * Layout: u64 STS count, then per STS: t_start, t_end (f64), u64
 * true_region, u8 injected, window_energy, peak_energy_frac (f64),
 * u8 faulted, u64 peak count and the peak frequencies (f64).
 */
std::string encodeStsPayload(const std::vector<Sts> &stream);

/** Decodes encodeStsPayload() output straight from a span (zero-copy
 *  from an archive mapping). Throws IoError on truncation and
 *  FormatError on a malformed payload, including any STS or peak
 *  count the bytes left cannot hold (refused before allocating). */
std::vector<Sts> decodeStsPayload(const char *data, std::size_t size);

/**
 * Shared v2 integrity framing (capture, STS stream, checkpoint
 * files): magic, u32 version, u64 payload length, payload bytes,
 * CRC-32 of the payload. A flipped bit fails the checksum and a short
 * file fails the length, so a corrupt artifact is a typed error
 * instead of silently-wrong state.
 */
void writeFramed(std::ostream &os, const char (&magic)[8],
                 std::uint32_t version, const std::string &payload);

/**
 * Reads and verifies one framed artifact of exactly @p version into
 * @p payload. Throws IoError on truncation, FormatError on bad
 * magic, any other version (an unframed v1 file included) or a CRC
 * mismatch. @p what names the artifact in error messages.
 */
void readFramed(std::istream &is, const char (&magic)[8],
                std::uint32_t version, const char *what,
                std::string &payload);

} // namespace eddie::core

#endif // EDDIE_CORE_CAPTURE_IO_H
