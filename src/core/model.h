/**
 * @file
 * EDDIE's trained model: per region, the reference peak-frequency
 * distributions (one per peak rank) and the region-specific K-S group
 * size n, plus the region state machine (paper Sec. 4.1).
 */

#ifndef EDDIE_CORE_MODEL_H
#define EDDIE_CORE_MODEL_H

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace eddie::core
{

/**
 * Cache-friendly presorted reference layout: every rank's ascending
 * reference values packed into one contiguous buffer, addressed by a
 * rank offset table. Built once at training/model-load time so the
 * monitoring hot path K-S-tests against immutable spans with zero
 * per-call allocation or sorting (stats::ksStatisticSorted).
 */
class SortedReference
{
  public:
    /** Packs @p ranks (each already ascending-sorted) contiguously. */
    void build(const std::vector<std::vector<double>> &ranks);

    /** Number of packed ranks (0 when never built). */
    std::size_t numRanks() const
    {
        return offsets_.empty() ? 0 : offsets_.size() - 1;
    }

    /** Ascending values of rank @p p. */
    std::span<const double> rank(std::size_t p) const
    {
        return {values_.data() + offsets_[p],
                offsets_[p + 1] - offsets_[p]};
    }

  private:
    std::vector<double> values_;
    /** numRanks() + 1 offsets into values_. */
    std::vector<std::size_t> offsets_;
};

/** Model of one region. */
struct RegionModel
{
    /** Region name from the region graph (e.g. "L2"). */
    std::string name;
    /** False when the region never gathered enough training STSs. */
    bool trained = false;
    /** Number of peak ranks tested for this region. */
    std::size_t num_peaks = 0;
    /** K-S group size n selected for this region (paper Sec. 4.3). */
    std::size_t group_n = 8;
    /** Reference peak frequencies per rank, each ascending-sorted. */
    std::vector<std::vector<double>> ref;
    /** Presorted contiguous view of ref — derived, not serialized;
     *  rebuilt by TrainedModel::finalize() (train() and
     *  decodeModelBinary() call it; hand-assembled models should too, and the Monitor
     *  builds a private copy when a region was left unfinalized). */
    SortedReference sorted;
    /** Successor region ids in the state machine. */
    std::vector<std::size_t> succs;
};

/** The complete trained model. */
struct TrainedModel
{
    std::vector<RegionModel> regions;
    /** Significance level used in the K-S tests. */
    double alpha = 0.01;
    /** Sentinel used for missing peak ranks (see sts.h). */
    double sentinel = 0.0;
    /** Region the monitor assumes at start-up. */
    std::size_t entry_region = 0;
    /** Number of loop regions (ids [0, num_loops)). */
    std::size_t num_loops = 0;

    std::size_t numRegions() const { return regions.size(); }

    /** Rebuilds every region's SortedReference from its ref ranks.
     *  Call after mutating any region's ref. */
    void finalize();
};

/**
 * Returns a copy of @p model with every trained region's group size
 * forced to @p n — used by the latency/accuracy trade-off sweeps
 * (paper Figures 6, 8, 9, 10, where the x axis is the detection
 * latency implied by n).
 */
TrainedModel withGroupSize(const TrainedModel &model, std::size_t n);

/** Returns a copy with the K-S significance level set to @p alpha
 *  (confidence-level sweep of Fig. 9). */
TrainedModel withAlpha(const TrainedModel &model, double alpha);

/**
 * Binary model codec — the payload stored under the "model" key of
 * an EDDIEARC archive (store/archive.h). Fixed-width little-endian
 * fields in the one byte codec (common/bytes.h); integrity comes from
 * the archive's per-sector CRCs.
 */
std::string encodeModelBinary(const TrainedModel &model);

/** Decodes encodeModelBinary() output: rejects a count larger than
 *  the bytes left can hold, non-finite or out-of-range scalars,
 *  unsorted ranks and trailing bytes, then finalizes the presorted
 *  references. Throws IoError when the payload ends inside a field,
 *  FormatError on any other malformed payload. */
TrainedModel decodeModelBinary(const char *data, std::size_t size);

/**
 * Writes @p path atomically (tmp + rename) as an EDDIEARC archive
 * holding one binary "model" artifact. Throws IoError.
 */
void saveModelFile(const TrainedModel &model, const std::string &path);

/**
 * Loads a model written by saveModelFile(), read-only
 * (store::Archive::readValue: CRC-verify + binary decode; the file
 * is never written, so read permission suffices). A file whose model
 * segment is torn or missing throws FormatError. This is the loader
 * every tool and the serving runtime's hot reload go through.
 */
TrainedModel loadModelFile(const std::string &path);

} // namespace eddie::core

#endif // EDDIE_CORE_MODEL_H
