#include "model.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>

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

template <typename T>
void
putRaw(std::string &out, T value)
{
    out.append(reinterpret_cast<const char *>(&value), sizeof value);
}

/** Bounds-checked reader over the binary model payload. Underruns
 *  are format errors: the container's CRC already passed, so a lying
 *  length field is corruption the checksum cannot see. */
class BinCursor
{
  public:
    BinCursor(const char *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    template <typename T>
    T get(const char *what)
    {
        T value;
        if (size_ - off_ < sizeof value)
            throw FormatError(std::string("model: truncated ") +
                              what);
        std::memcpy(&value, data_ + off_, sizeof value);
        off_ += sizeof value;
        return value;
    }

    std::size_t count(const char *what, std::size_t max)
    {
        const auto n = get<std::uint64_t>(what);
        if (n > max)
            throw FormatError(std::string("model: ") + what +
                              " out of range");
        return std::size_t(n);
    }

    /** A count of items that each take at least @p item_bytes of
     *  the payload: one the bytes left cannot hold is corrupt, and is
     *  refused before anything is allocated for it. */
    std::size_t items(const char *what, std::size_t max,
                      std::size_t item_bytes)
    {
        const std::size_t n = count(what, max);
        if (n > (size_ - off_) / item_bytes)
            throw FormatError(std::string("model: ") + what +
                              " exceeds the payload");
        return n;
    }

    double f64(const char *what)
    {
        const double v = get<double>(what);
        if (!std::isfinite(v))
            throw FormatError(std::string("model: ") + what +
                              " is not finite");
        return v;
    }

    std::string bytes(const char *what, std::size_t n)
    {
        if (size_ - off_ < n)
            throw FormatError(std::string("model: truncated ") +
                              what);
        std::string out(data_ + off_, n);
        off_ += n;
        return out;
    }

    bool exhausted() const { return off_ == size_; }

  private:
    const char *data_;
    std::size_t size_;
    std::size_t off_ = 0;
};

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

    putRaw<std::uint32_t>(out, kBinaryVersion);
    putRaw<double>(out, model.alpha);
    putRaw<double>(out, model.sentinel);
    putRaw<std::uint64_t>(out, model.entry_region);
    putRaw<std::uint64_t>(out, model.num_loops);
    putRaw<std::uint64_t>(out, model.regions.size());
    for (const auto &r : model.regions) {
        putRaw<std::uint64_t>(out, r.name.size());
        out.append(r.name);
        putRaw<std::uint8_t>(out, r.trained ? 1 : 0);
        putRaw<std::uint64_t>(out, r.num_peaks);
        putRaw<std::uint64_t>(out, r.group_n);
        putRaw<std::uint64_t>(out, r.succs.size());
        for (auto s : r.succs)
            putRaw<std::uint64_t>(out, s);
        putRaw<std::uint64_t>(out, r.ref.size());
        for (const auto &rank : r.ref) {
            putRaw<std::uint64_t>(out, rank.size());
            out.append(
                reinterpret_cast<const char *>(rank.data()),
                rank.size() * sizeof(double));
        }
    }
    return out;
}

TrainedModel
decodeModelBinary(const char *data, std::size_t size)
{
    BinCursor c(data, size);
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
        r.name = c.bytes("region name", name_len);
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
    if (!c.exhausted())
        throw FormatError("model: trailing payload bytes");
    m.finalize();
    return m;
}

void
saveModelFile(const TrainedModel &model, const std::string &path)
{
    const std::string tmp = path + ".tmp";
    std::remove(tmp.c_str());
    {
        store::ArchiveConfig cfg;
        cfg.path = tmp;
        store::Archive arc(cfg);
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
