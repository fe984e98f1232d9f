/**
 * @file
 * Fixed-capacity ring buffer: PeakHistory, the monitor's history of
 * observed peak vectors (fixed-width double rows, one contiguous
 * allocation, zero allocation per step, rank-major reads that stay in
 * cache while the K-S loop gathers groups).
 */

#ifndef EDDIE_CORE_RING_BUFFER_H
#define EDDIE_CORE_RING_BUFFER_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace eddie::core
{

/**
 * Ring of up to `capacity` rows of `width` doubles, oldest evicted
 * first. Rows shorter than `width` are padded with the fill value
 * (the missing-peak sentinel), mirroring how the monitor treats
 * absent peak ranks; longer rows are truncated — the monitor never
 * reads ranks beyond the widest trained reference.
 */
class PeakHistory
{
  public:
    /** Re-shapes the ring and drops all rows. */
    void reset(std::size_t capacity, std::size_t width, double fill)
    {
        cap_ = std::max<std::size_t>(capacity, 1);
        width_ = std::max<std::size_t>(width, 1);
        fill_ = fill;
        data_.assign(cap_ * width_, fill_);
        head_ = 0;
        count_ = 0;
        pushes_ = 0;
    }

    /** Appends one row (newest), evicting the oldest when full. */
    void push(const std::vector<double> &row)
    {
        double *dst = data_.data() + head_ * width_;
        const std::size_t n = std::min(width_, row.size());
        std::copy_n(row.data(), n, dst);
        std::fill(dst + n, dst + width_, fill_);
        head_ = (head_ + 1) % cap_;
        count_ = std::min(count_ + 1, cap_);
        ++pushes_;
    }

    /** Rows currently held (<= capacity). */
    std::size_t size() const { return count_; }

    /**
     * Total rows pushed since reset() — a monotonic sequence number
     * that keeps counting across clear() (a resync drops the rows but
     * not the stream position). Two snapshots of this counter bound
     * exactly which rows were appended between them, which is what
     * the delta-checkpoint exporter (monitor.h) iterates over.
     */
    std::uint64_t pushes() const { return pushes_; }

    /** Values per row (the padded rank count). */
    std::size_t width() const { return width_; }

    /** Value at rank @p p of the @p i-th oldest held row. */
    double at(std::size_t i, std::size_t p) const
    {
        const std::size_t row = (head_ + cap_ - count_ + i) % cap_;
        return data_[row * width_ + p];
    }

    /** Drops all rows; capacity and width are kept. */
    void clear() { count_ = 0; }

  private:
    std::vector<double> data_;
    std::size_t cap_ = 0;
    std::size_t width_ = 0;
    std::size_t head_ = 0; ///< slot the next push writes
    std::size_t count_ = 0;
    std::uint64_t pushes_ = 0;
    double fill_ = 0.0;
};

} // namespace eddie::core

#endif // EDDIE_CORE_RING_BUFFER_H
