/**
 * @file
 * Capture files: persist a monitored run's sampled signal and
 * annotations so captures can be analyzed offline, shared, and
 * re-scored against different models — the workflow of a real
 * SDR-based deployment (capture once, analyze many times).
 */

#ifndef EDDIE_CORE_CAPTURE_IO_H
#define EDDIE_CORE_CAPTURE_IO_H

#include <cstddef>
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
 * Layout: a v2 frame (common::frame(), magic "EDDIECAP": magic, u32
 * version, u64 payload length, payload, CRC-32 of the payload) whose
 * payload is the f64 sample rate, the u64 sample count, then the
 * power samples (f64), region ids (u64) and injection flags (u8).
 */
void saveCapture(const cpu::RunResult &run, std::ostream &os);

/**
 * Reads a capture written by saveCapture(). Reads all of @p is first,
 * so a frame or sample count is checked against the bytes present and
 * never allocated. Throws IoError when the input ends early and
 * FormatError on a malformed frame or payload (bad magic, any other
 * version, a version-1 file included, a CRC mismatch, a count the
 * bytes cannot hold, trailing bytes). Only signal-related fields of
 * RunResult are populated.
 */
cpu::RunResult loadCapture(std::istream &is);

/** File wrappers; an open or write failure throws IoError. */
void saveCaptureFile(const cpu::RunResult &run, const std::string &path);
cpu::RunResult loadCaptureFile(const std::string &path);

/**
 * Writes an extracted STS stream in the binary capture format; offline
 * STS analysis and eddie_capture --sts use this.
 *
 * Layout: a v2 frame (common::frame(), magic "EDDIESTS") around the
 * encodeStsPayload() bytes.
 */
void saveStsStream(const std::vector<Sts> &stream, std::ostream &os);

/** Reads an STS stream written by saveStsStream(), with the same
 *  whole-input read and throw contract as loadCapture(). */
std::vector<Sts> loadStsStream(std::istream &is);

/**
 * Encodes an STS stream as the raw (unframed) v2 payload: the value
 * format of wire STS-BATCH frames, whose integrity comes from the
 * frame's CRC.
 *
 * Layout: u64 STS count, then per STS: t_start, t_end (f64), u64
 * true_region, u8 injected, window_energy, peak_energy_frac (f64),
 * u8 faulted, u64 peak count and the peak frequencies (f64).
 */
std::string encodeStsPayload(const std::vector<Sts> &stream);

/** Decodes encodeStsPayload() output straight from a byte range (a
 *  wire frame's payload, without a copy). Throws IoError when the bytes end inside
 *  a field or a peak run, FormatError on a malformed payload: an STS
 *  count the bytes left cannot hold or a peak count above its cap
 *  (both refused before allocating), or trailing bytes. */
std::vector<Sts> decodeStsPayload(const char *data, std::size_t size);

} // namespace eddie::core

#endif // EDDIE_CORE_CAPTURE_IO_H
