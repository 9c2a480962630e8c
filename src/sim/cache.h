/**
 * @file
 * Set-associative last-level cache with LRU replacement and write-back
 * write-allocate policy (Table 2: 8 MB, 16-way, 64 B lines).
 */

#ifndef REAPER_SIM_CACHE_H
#define REAPER_SIM_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/timing.h"

namespace reaper {
namespace sim {

/** Cache configuration. */
struct CacheConfig
{
    uint64_t sizeBytes = 8ull * 1024 * 1024;
    uint32_t ways = 16;
    uint32_t lineBytes = 64;
    Cycle hitLatency = 12; ///< controller cycles (~30 CPU cycles)
};

/** Result of one cache access. */
struct CacheAccess
{
    bool hit = false;
    bool writeback = false;    ///< a dirty victim must be written back
    uint64_t writebackAddr = 0;
};

/** Cache statistics. */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;

    double
    missRate() const
    {
        uint64_t total = hits + misses;
        return total ? static_cast<double>(misses) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** LRU set-associative cache model (tags only; no data payload). */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /** lookup() result for a line that is not cached. */
    static constexpr size_t kNoLine = static_cast<size_t>(-1);

    /**
     * Access one line: lookup(), then touch() on a hit or allocate()
     * on a miss.
     * @return hit/miss plus any dirty victim writeback.
     */
    CacheAccess access(uint64_t addr, bool is_write);

    /** Index of the way holding the line, or kNoLine (no LRU or
     *  statistics side effects). */
    size_t lookup(uint64_t addr) const;

    /** Count a hit on a line found by lookup() and make it MRU. */
    void touch(size_t line, bool is_write);

    /**
     * Count a miss and allocate the (absent) line over the first
     * empty way, or else the LRU one. Write misses allocate without fetching: the whole
     * line is overwritten.
     * @return the miss plus any dirty victim writeback.
     */
    CacheAccess allocate(uint64_t addr, bool is_write);

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return cfg_; }
    uint64_t numSets() const { return sets_; }

  private:
    /** tags_ value of an empty way. A tag is a line address over
     *  the set count, so with lines of 2+ bytes none reaches it. */
    static constexpr uint64_t kEmpty = ~uint64_t{0};

    uint64_t setOf(uint64_t addr) const;
    uint64_t tagOf(uint64_t addr) const;

    CacheConfig cfg_;
    uint64_t sets_;
    // Per-way state, sets_ x ways row-major; tags apart so a lookup
    // reads only them.
    std::vector<uint64_t> tags_;
    std::vector<uint64_t> lruStamps_;
    std::vector<char> dirty_;
    uint64_t stamp_ = 0;
    CacheStats stats_;
};

} // namespace sim
} // namespace reaper

#endif // REAPER_SIM_CACHE_H
