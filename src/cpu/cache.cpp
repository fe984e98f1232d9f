#include "cache.h"

#include <bit>
#include <stdexcept>

namespace eddie::cpu
{

namespace
{

bool
isPow2(std::size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheConfig &config) : config_(config)
{
    if (config_.line_bytes == 0 || !isPow2(config_.line_bytes))
        throw std::invalid_argument("Cache: line size must be power of 2");
    if (config_.assoc == 0)
        throw std::invalid_argument("Cache: associativity must be > 0");
    const std::size_t lines = config_.size_bytes / config_.line_bytes;
    if (lines == 0 || lines % config_.assoc != 0)
        throw std::invalid_argument("Cache: bad geometry");
    num_sets_ = lines / config_.assoc;
    if (!isPow2(num_sets_))
        throw std::invalid_argument("Cache: set count must be power of 2");
    line_shift_ = unsigned(std::countr_zero(config_.line_bytes));
    set_shift_ = unsigned(std::countr_zero(num_sets_));
    lines_.assign(lines, Line{});
}

bool
Cache::access(std::uint64_t addr)
{
    const std::uint64_t line_addr = addr >> line_shift_;
    const std::size_t set = std::size_t(line_addr) & (num_sets_ - 1);
    const std::uint64_t tag = line_addr >> set_shift_;
    Line *base = &lines_[set * config_.assoc];
    ++tick_;

    for (std::size_t w = 0; w < config_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lru = tick_;
            ++hits_;
            return true;
        }
    }
    ++misses_;
    // Victim: invalid way, else least recently used.
    std::size_t victim = 0;
    std::uint64_t best = std::uint64_t(-1);
    for (std::size_t w = 0; w < config_.assoc; ++w) {
        if (!base[w].valid) {
            victim = w;
            break;
        }
        if (base[w].lru < best) {
            best = base[w].lru;
            victim = w;
        }
    }
    base[victim].valid = true;
    base[victim].tag = tag;
    base[victim].lru = tick_;
    return false;
}

void
Cache::flush()
{
    for (auto &l : lines_)
        l.valid = false;
    tick_ = 0;
}

CacheHierarchy::CacheHierarchy(const CacheConfig &l1, const CacheConfig &l2)
    : l1_(l1), l2_(l2)
{
}

MemLevel
CacheHierarchy::access(std::uint64_t addr)
{
    if (l1_.access(addr))
        return MemLevel::L1;
    if (l2_.access(addr))
        return MemLevel::L2;
    return MemLevel::Dram;
}

void
CacheHierarchy::flush()
{
    l1_.flush();
    l2_.flush();
}

} // namespace eddie::cpu
