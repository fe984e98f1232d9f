/**
 * @file
 * Small fixed artifacts of every encoded format (model, capture, STS
 * stream, checkpoint state and delta), shared by the byte-identity
 * golden test and the decoder tests, plus the tools those tests damage
 * them with. Every field is set by hand, so the encodings depend only
 * on the codecs, never on the simulator, the trainer or the monitor.
 */

#ifndef EDDIE_TESTS_STORE_CODEC_SAMPLES_H
#define EDDIE_TESTS_STORE_CODEC_SAMPLES_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/model.h"
#include "core/monitor.h"
#include "core/sts.h"
#include "cpu/run_result.h"
#include "serve/checkpoint.h"

namespace codec_samples
{

using namespace eddie;

inline core::TrainedModel
model()
{
    core::TrainedModel m;
    m.alpha = 0.01;
    m.sentinel = 2e7;
    m.entry_region = 1;
    m.num_loops = 2;
    core::RegionModel r0;
    r0.name = "L0";
    r0.trained = true;
    r0.num_peaks = 2;
    r0.group_n = 16;
    r0.ref = {{1.0, 2.0, 3.0}, {4.0, 5.0}};
    r0.succs = {1};
    core::RegionModel r1;
    r1.name = "L1";
    r1.trained = false;
    m.regions = {r0, r1};
    m.finalize();
    return m;
}

inline cpu::RunResult
run()
{
    cpu::RunResult r;
    r.sample_rate = 1.25e6;
    r.power = {0.5, 1.5, -2.25, 3.0, 0.125};
    r.region = {0, 1, std::size_t(-1), 2, 7};
    r.injected = {0, 1, 0, 1, 0};
    return r;
}

inline std::vector<core::Sts>
stream()
{
    std::vector<core::Sts> s(3);
    s[0].t_start = 0.0;
    s[0].t_end = 1e-4;
    s[0].peak_freqs = {1.5e6, 3.0e6};
    s[0].true_region = 0;
    s[0].window_energy = 12.5;
    s[0].peak_energy_frac = 0.75;
    s[1].t_start = 5e-5;
    s[1].t_end = 1.5e-4;
    s[1].true_region = std::size_t(-1);
    s[1].injected = true;
    s[1].faulted = true;
    s[2].t_start = 1e-4;
    s[2].t_end = 2e-4;
    s[2].peak_freqs = {2.25e6};
    s[2].true_region = 3;
    s[2].window_energy = 0.5;
    s[2].peak_energy_frac = 0.125;
    return s;
}

/** A full monitor state with every section non-empty; @p salt varies
 *  the values between shards. */
inline serve::CheckpointData
checkpoint(std::uint64_t salt)
{
    serve::CheckpointData c;
    core::MonitorState &m = c.monitor;
    c.source_pos = 40 + salt;
    m.current = 1;
    m.steps_since_change = 3 + salt;
    m.anomaly_count = 2;
    m.step_index = 40 + salt;
    m.test_calls = 17;
    m.outage_len = 1;
    m.resync_pending = salt % 2 == 1;
    m.degraded.quarantined = 4;
    m.degraded.outages = 1;
    m.degraded.resyncs = 1;
    m.degraded.longest_outage = 3;
    for (std::size_t i = 0; i < m.degraded.by_kind.size(); ++i)
        m.degraded.by_kind[i] = i + salt;
    m.gate_energies = {1.0, 2.5, 0.25 * double(salt + 1)};
    m.history = {{1.0, 2.0}, {3.0, 4.0 + double(salt)}, {5.0, 6.0}};
    m.reports = {{7, 7e-4, 1}, {12, 1.2e-3, 0}};
    m.records.resize(4);
    m.records[0].region = 1;
    m.records[0].tested = true;
    m.records[1].region = 0;
    m.records[1].rejected = true;
    m.records[1].reported = true;
    m.records[2].region = 2;
    m.records[2].transitioned = true;
    m.records[3].region = 1;
    m.records[3].degraded = true;
    return c;
}

/** A delta that chains onto checkpoint(0) and touches every section. */
inline core::MonitorStateDelta
delta()
{
    core::MonitorStateDelta d;
    d.base_step = 40;
    d.step = 42;
    d.current = 1;
    d.steps_since_change = 5;
    d.anomaly_count = 0;
    d.test_calls = 19;
    d.outage_len = 0;
    d.resync_pending = false;
    d.degraded.quarantined = 4;
    d.degraded.longest_outage = 3;
    d.gate_energies = {2.5, 0.25, 3.75};
    d.history_pushes = 9;
    d.history_count = 3;
    d.history_tail = {{7.0, 8.0}, {9.0, 10.0}};
    d.records_from = 3;
    d.records.resize(3);
    d.records[0].region = 1;
    d.records[1].region = 1;
    d.records[1].tested = true;
    d.records[2].region = 0;
    d.records[2].rejected = true;
    d.reports_from = 2;
    d.reports = {{41, 4.1e-3, 1}};
    return d;
}

/** Overwrites the u64 at byte @p at of @p bytes (little-endian). */
inline void
poke(std::string &bytes, std::size_t at, std::uint64_t value)
{
    std::memcpy(bytes.data() + at, &value, sizeof value);
}

/** Re-seals a frame (magic, u32 version, u64 length, payload, CRC-32)
 *  after its payload bytes were changed: the CRC is recomputed over
 *  the bytes between the 20-byte head and the 4-byte CRC. */
inline void
reseal(std::string &framed)
{
    const std::uint32_t crc =
        common::crc32(framed.data() + 20, framed.size() - 24);
    std::memcpy(framed.data() + framed.size() - 4, &crc, sizeof crc);
}

/** First byte at which @p a and @p b differ: where two encodings that
 *  differ in one count place that count. */
inline std::size_t
firstDifference(const std::string &a, const std::string &b)
{
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    return i;
}

} // namespace codec_samples

#endif // EDDIE_TESTS_STORE_CODEC_SAMPLES_H
