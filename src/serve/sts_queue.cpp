#include "sts_queue.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace eddie::serve
{

std::size_t
stsBytes(const core::Sts &sts)
{
    return sizeof(core::Sts) +
           sts.peak_freqs.size() * sizeof(double);
}

StsQueue::StsQueue(const StsQueueConfig &cfg)
    : cfg_(cfg), ring_(std::max<std::size_t>(cfg.capacity, 1))
{
    if (cfg.capacity == 0)
        throw std::invalid_argument("sts queue: zero capacity");
}

bool
StsQueue::waitNotFullFor(double timeout_ms)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(
                std::max(timeout_ms, 0.0)));
    std::unique_lock<std::mutex> lock(mu_);
    // Same saturation notion as pushBatch(), minus the per-window cost
    // (unknown here): the caller's retry applies the exact bound.
    const auto saturated = [this] {
        return ring_.full() ||
               (cfg_.max_bytes != 0 && !ring_.empty() &&
                bytes_ >= cfg_.max_bytes);
    };
    while (saturated() && !closed_) {
        if (not_full_.wait_until(lock, deadline) ==
            std::cv_status::timeout)
            break;
    }
    return !saturated() || closed_;
}

std::size_t
StsQueue::popBatch(std::vector<core::Sts> &out, std::size_t max_items,
                   double timeout_ms)
{
    out.clear();
    if (max_items == 0)
        return 0;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(
                std::max(timeout_ms, 0.0)));
    std::unique_lock<std::mutex> lock(mu_);
    while (ring_.empty() && !closed_) {
        if (not_empty_.wait_until(lock, deadline) ==
            std::cv_status::timeout)
            break;
    }
    while (!ring_.empty() && out.size() < max_items) {
        out.push_back(ring_.popFront());
        bytes_ -= stsBytes(out.back());
        ++stats_.popped;
    }
    lock.unlock();
    if (!out.empty())
        not_full_.notify_one();
    return out.size();
}

std::size_t
StsQueue::pushBatch(std::vector<core::Sts> &in)
{
    if (in.empty())
        return 0;
    std::size_t pushed = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (core::Sts &sts : in) {
            if (closed_)
                break;
            const std::size_t cost = stsBytes(sts);
            if (ring_.full() ||
                (cfg_.max_bytes != 0 && !ring_.empty() &&
                 bytes_ + cost > cfg_.max_bytes)) {
                // The producer holds the rest and waits for room.
                ++stats_.blocked_pushes;
                break;
            }
            ring_.pushBack(std::move(sts));
            bytes_ += cost;
            ++stats_.pushed;
            ++pushed;
            stats_.max_depth = std::max<std::uint64_t>(
                stats_.max_depth, ring_.size());
            stats_.max_queued_bytes = std::max<std::uint64_t>(
                stats_.max_queued_bytes, bytes_);
        }
    }
    if (pushed != 0)
        not_empty_.notify_one();
    in.erase(in.begin(),
             in.begin() + static_cast<std::ptrdiff_t>(pushed));
    return pushed;
}

void
StsQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
}

bool
StsQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

bool
StsQueue::drained() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_ && ring_.empty();
}

QueueStats
StsQueue::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    QueueStats s = stats_;
    s.queued_bytes = bytes_;
    return s;
}

} // namespace eddie::serve
