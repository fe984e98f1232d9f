#include "model.h"

#include <cstdint>
#include <cstdio>
#include <limits>

#include "common/bytes.h"
#include "errors.h"
#include "store/archive.h"

namespace eddie::core
{

namespace
{

/** Caps: beyond these the counts describe no model this pipeline can
 *  produce, so the file is corrupt however plausible each field. */
constexpr std::size_t kMaxRegions = std::size_t(1) << 20;
constexpr std::size_t kMaxRanks = std::size_t(1) << 12;
constexpr std::size_t kMaxRankValues = std::size_t(1) << 24;
constexpr std::size_t kMaxNameLen = std::size_t(1) << 16;

/** Smallest encoding of a region: name length, a 1-byte name, the
 *  trained flag, peak count, group size, successor and rank counts. */
constexpr std::size_t kMinRegionBytes = 8 + 1 + 1 + 8 + 8 + 8 + 8;

/** Binary payload layout version (independent of the archive
 *  container version). */
constexpr std::uint32_t kBinaryVersion = 1;
/** Archive key the model artifact lives under. */
constexpr const char *kModelKey = "model";

} // namespace

void
SortedReference::build(const std::vector<std::vector<double>> &ranks)
{
    offsets_.assign(1, 0);
    offsets_.reserve(ranks.size() + 1);
    std::size_t total = 0;
    for (const auto &r : ranks)
        total += r.size();
    values_.clear();
    values_.reserve(total);
    for (const auto &r : ranks) {
        values_.insert(values_.end(), r.begin(), r.end());
        offsets_.push_back(values_.size());
    }
}

void
TrainedModel::finalize()
{
    for (auto &r : regions)
        r.sorted.build(r.ref);
}

TrainedModel
withGroupSize(const TrainedModel &model, std::size_t n)
{
    TrainedModel out = model;
    for (auto &r : out.regions)
        if (r.trained)
            r.group_n = n;
    return out;
}

TrainedModel
withAlpha(const TrainedModel &model, double alpha)
{
    TrainedModel out = model;
    out.alpha = alpha;
    return out;
}

std::string
encodeModelBinary(const TrainedModel &model)
{
    std::string out;
    // Rough reserve: counts dominate small models, doubles big ones.
    std::size_t doubles = 0;
    for (const auto &r : model.regions)
        for (const auto &rank : r.ref)
            doubles += rank.size();
    out.reserve(64 + model.regions.size() * 96 + doubles * 8);

    common::ByteWriter w(out);
    w.put(kBinaryVersion);
    w.put(model.alpha);
    w.put(model.sentinel);
    w.put<std::uint64_t>(model.entry_region);
    w.put<std::uint64_t>(model.num_loops);
    w.put<std::uint64_t>(model.regions.size());
    for (const auto &r : model.regions) {
        w.put<std::uint64_t>(r.name.size());
        w.bytes(r.name);
        w.put<std::uint8_t>(r.trained ? 1 : 0);
        w.put<std::uint64_t>(r.num_peaks);
        w.put<std::uint64_t>(r.group_n);
        w.put<std::uint64_t>(r.succs.size());
        for (auto s : r.succs)
            w.put<std::uint64_t>(s);
        w.put<std::uint64_t>(r.ref.size());
        for (const auto &rank : r.ref) {
            w.put<std::uint64_t>(rank.size());
            w.array(rank.data(), rank.size());
        }
    }
    return out;
}

TrainedModel
decodeModelBinary(const char *data, std::size_t size)
{
    common::ByteReader c(data, size, "model");
    if (c.get<std::uint32_t>("format version") != kBinaryVersion)
        throw FormatError("model: unsupported binary version");

    TrainedModel m;
    m.alpha = c.f64("alpha");
    if (!(m.alpha > 0.0 && m.alpha < 1.0))
        throw FormatError("model: alpha outside (0, 1)");
    m.sentinel = c.f64("sentinel");
    if (!(m.sentinel > 0.0))
        throw FormatError("model: sentinel must be positive");
    m.entry_region = c.count("entry region", kMaxRegions);
    m.num_loops = c.count("loop count", kMaxRegions);
    const std::size_t num_regions =
        c.items("region count", kMaxRegions, kMinRegionBytes);
    if (num_regions > 0 && m.entry_region >= num_regions)
        throw FormatError("model: entry region out of range");
    if (m.num_loops > num_regions)
        throw FormatError("model: loop count exceeds region count");

    m.regions.resize(num_regions);
    for (auto &r : m.regions) {
        const std::size_t name_len =
            c.count("region name length", kMaxNameLen);
        if (name_len == 0)
            throw FormatError("model: empty region name");
        r.name = c.bytes(name_len, "region name");
        r.trained = c.get<std::uint8_t>("trained flag") != 0;
        r.num_peaks = c.count("peak count", kMaxRanks);
        r.group_n = c.count("group size", kMaxRankValues);
        if (r.trained && r.group_n == 0)
            throw FormatError(
                "model: trained region with zero group size");
        const std::size_t num_succs =
            c.items("successor count", kMaxRegions, 8);
        r.succs.resize(num_succs);
        for (auto &s : r.succs) {
            s = c.count("successor id", kMaxRegions);
            if (s >= num_regions)
                throw FormatError(
                    "model: successor id out of range");
        }
        const std::size_t num_ranks =
            c.items("rank count", kMaxRanks, 8);
        if (r.num_peaks > num_ranks)
            throw FormatError(
                "model: peak count exceeds rank count");
        r.ref.resize(num_ranks);
        for (std::size_t rank_idx = 0; rank_idx < num_ranks;
             ++rank_idx) {
            auto &rank = r.ref[rank_idx];
            rank.resize(c.items("rank size", kMaxRankValues, 8));
            double prev = -std::numeric_limits<double>::infinity();
            for (auto &v : rank) {
                v = c.f64("reference value");
                if (v < prev)
                    throw FormatError(
                        "model: reference values not sorted");
                prev = v;
            }
            if (r.trained && rank_idx < r.num_peaks && rank.empty())
                throw FormatError(
                    "model: trained region with empty peak rank");
        }
    }
    c.finish();
    m.finalize();
    return m;
}

void
saveModelFile(const TrainedModel &model, const std::string &path)
{
    const std::string tmp = path + ".tmp";
    std::remove(tmp.c_str());
    {
        store::Archive arc(tmp);
        if (!arc.put(kModelKey, encodeModelBinary(model)))
            throw IoError("model: archive write failed for " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw IoError("model: cannot rename " + tmp + " to " + path);
    }
}

TrainedModel
loadModelFile(const std::string &path)
{
    std::string value;
    switch (store::Archive::readValue(path, kModelKey, value)) {
    case store::GetStatus::Ok:
        return decodeModelBinary(value.data(), value.size());
    case store::GetStatus::Missing:
        throw FormatError("model: archive " + path +
                          " has no model artifact");
    case store::GetStatus::Corrupt:
    default:
        throw FormatError("model: archive " + path +
                          " failed sector checksum");
    }
}

} // namespace eddie::core
