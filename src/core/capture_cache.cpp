#include "capture_cache.h"

namespace eddie::core
{

std::shared_ptr<const std::vector<Sts>>
CaptureCache::getOrComputeShared(
    const std::string &key,
    const std::function<std::vector<Sts>()> &compute)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = index_.find(key);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++stats_.hits;
            return it->second->second;
        }
    }

    auto value =
        std::make_shared<const std::vector<Sts>>(compute());
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.misses;
        // A racing thread may have inserted the same key while we
        // computed; the values are identical, so keep the first.
        if (index_.find(key) == index_.end()) {
            lru_.emplace_front(key, value);
            index_[key] = lru_.begin();
            while (lru_.size() > kCapacity) {
                ++stats_.evictions;
                index_.erase(lru_.back().first);
                lru_.pop_back();
            }
            stats_.entries = lru_.size();
        }
    }
    return value;
}

CaptureCacheStats
CaptureCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace eddie::core
