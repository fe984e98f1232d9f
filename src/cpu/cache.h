/**
 * @file
 * Set-associative cache with LRU replacement, and a two-level
 * hierarchy returning the level that serviced each access.
 */

#ifndef EDDIE_CPU_CACHE_H
#define EDDIE_CPU_CACHE_H

#include <cstdint>
#include <vector>

namespace eddie::cpu
{

/** Geometry of one cache level. */
struct CacheConfig
{
    std::size_t size_bytes = 32 * 1024;
    std::size_t assoc = 4;
    std::size_t line_bytes = 64;
};

/** A single set-associative cache level. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /** Looks up @p addr (byte address); inserts on miss.
     *  @return true on hit. */
    bool access(std::uint64_t addr);

    /** Drops all contents (used between simulated runs). */
    void flush();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    const CacheConfig &config() const { return config_; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    CacheConfig config_;
    std::size_t num_sets_;
    /** log2 of line_bytes and of num_sets_ (both validated powers of
     *  two), so a lookup shifts instead of dividing. */
    unsigned line_shift_;
    unsigned set_shift_;
    std::vector<Line> lines_; // num_sets_ * assoc
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** Which level serviced a memory access. */
enum class MemLevel
{
    L1,
    L2,
    Dram,
};

/** L1 + L2 hierarchy. */
class CacheHierarchy
{
  public:
    CacheHierarchy(const CacheConfig &l1, const CacheConfig &l2);

    /** Accesses the hierarchy; allocates in both levels on miss. */
    MemLevel access(std::uint64_t addr);

    void flush();

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }

  private:
    Cache l1_;
    Cache l2_;
};

} // namespace eddie::cpu

#endif // EDDIE_CPU_CACHE_H
