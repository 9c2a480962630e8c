#include "sim/cache.h"

#include "common/logging.h"

namespace reaper {
namespace sim {

Cache::Cache(const CacheConfig &cfg) : cfg_(cfg)
{
    if (cfg.lineBytes == 0 || cfg.ways == 0)
        panic("Cache: lineBytes and ways must be > 0");
    uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
    if (lines == 0 || lines % cfg.ways != 0)
        panic("Cache: size must be a multiple of ways * lineBytes");
    sets_ = lines / cfg.ways;
    tags_.assign(lines, kEmpty);
    lruStamps_.assign(lines, 0);
    dirty_.assign(lines, 0);
}

uint64_t
Cache::setOf(uint64_t addr) const
{
    return (addr / cfg_.lineBytes) % sets_;
}

uint64_t
Cache::tagOf(uint64_t addr) const
{
    return (addr / cfg_.lineBytes) / sets_;
}

size_t
Cache::lookup(uint64_t addr) const
{
    uint64_t set = setOf(addr);
    uint64_t tag = tagOf(addr);
    for (uint32_t w = 0; w < cfg_.ways; ++w) {
        size_t line = set * cfg_.ways + w;
        if (tags_[line] == tag)
            return line;
    }
    return kNoLine;
}

void
Cache::touch(size_t line, bool is_write)
{
    lruStamps_[line] = ++stamp_;
    dirty_[line] = dirty_[line] || is_write;
    ++stats_.hits;
}

CacheAccess
Cache::allocate(uint64_t addr, bool is_write)
{
    CacheAccess result;
    uint64_t set = setOf(addr);
    ++stats_.misses;
    // Victim: first empty way, otherwise least-recently used.
    size_t base = set * cfg_.ways;
    size_t victim = base;
    for (size_t line = base; line < base + cfg_.ways; ++line) {
        if (tags_[line] == kEmpty) {
            victim = line;
            break;
        }
        if (lruStamps_[line] < lruStamps_[victim])
            victim = line;
    }
    if (tags_[victim] != kEmpty && dirty_[victim]) {
        result.writeback = true;
        result.writebackAddr =
            (tags_[victim] * sets_ + set) * cfg_.lineBytes;
        ++stats_.writebacks;
    }
    tags_[victim] = tagOf(addr);
    dirty_[victim] = is_write;
    lruStamps_[victim] = ++stamp_;
    return result;
}

CacheAccess
Cache::access(uint64_t addr, bool is_write)
{
    size_t line = lookup(addr);
    if (line == kNoLine)
        return allocate(addr, is_write);
    touch(line, is_write);
    CacheAccess result;
    result.hit = true;
    return result;
}

} // namespace sim
} // namespace reaper
