/**
 * @file
 * Tests for the set-associative LRU cache model.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/cache.h"

namespace reaper {
namespace sim {
namespace {

CacheConfig
tinyCache()
{
    CacheConfig cfg;
    cfg.sizeBytes = 4 * 1024; // 4 KB
    cfg.ways = 4;
    cfg.lineBytes = 64;       // 16 sets
    return cfg;
}

TEST(Cache, GeometryComputed)
{
    Cache c(tinyCache());
    EXPECT_EQ(c.numSets(), 16u);
}

TEST(Cache, RejectsBadGeometry)
{
    CacheConfig cfg = tinyCache();
    cfg.sizeBytes = 1000; // not a multiple of ways * line
    EXPECT_DEATH(Cache c(cfg), "multiple");
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(tinyCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1010, false).hit); // same line
    EXPECT_EQ(c.stats().hits, 2u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LookupHasNoSideEffects)
{
    Cache c(tinyCache());
    EXPECT_EQ(c.lookup(0x2000), Cache::kNoLine);
    EXPECT_EQ(c.stats().hits + c.stats().misses, 0u);
    c.access(0x2000, false);
    EXPECT_NE(c.lookup(0x2000), Cache::kNoLine);
}

TEST(Cache, LruEviction)
{
    Cache c(tinyCache());
    // Fill one set (set 0): addresses with the same set index.
    uint64_t stride = 16 * 64; // sets * line
    for (uint64_t i = 0; i < 4; ++i)
        c.access(i * stride, false);
    // Touch line 0 so line 1 is LRU.
    c.access(0, false);
    // A 5th line evicts line 1 (the LRU), not line 0.
    c.access(4 * stride, false);
    EXPECT_NE(c.lookup(0), Cache::kNoLine);
    EXPECT_EQ(c.lookup(stride), Cache::kNoLine);
    EXPECT_NE(c.lookup(4 * stride), Cache::kNoLine);
}

TEST(Cache, DirtyEvictionProducesWriteback)
{
    Cache c(tinyCache());
    uint64_t stride = 16 * 64;
    c.access(0, true); // dirty line in set 0
    for (uint64_t i = 1; i < 4; ++i)
        c.access(i * stride, false);
    CacheAccess r = c.access(4 * stride, false); // evicts line 0
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, 0u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    Cache c(tinyCache());
    uint64_t stride = 16 * 64;
    for (uint64_t i = 0; i < 5; ++i) {
        CacheAccess r = c.access(i * stride, false);
        EXPECT_FALSE(r.writeback);
    }
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache c(tinyCache());
    uint64_t stride = 16 * 64;
    c.access(0, false);       // clean
    c.access(0, true);        // now dirty
    for (uint64_t i = 1; i < 5; ++i)
        c.access(i * stride, false);
    // Line 0 was evicted at some point; a writeback must have occurred.
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, MissRate)
{
    Cache c(tinyCache());
    c.access(0, false);
    c.access(0, false);
    c.access(64, false);
    EXPECT_NEAR(c.stats().missRate(), 2.0 / 3.0, 1e-12);
}

TEST(Cache, DistinctSetsDoNotConflict)
{
    Cache c(tinyCache());
    for (uint64_t set = 0; set < 16; ++set) {
        for (uint64_t way = 0; way < 4; ++way)
            c.access(way * 16 * 64 + set * 64, false);
    }
    // Everything still resident: 64 lines in a 64-line cache.
    for (uint64_t set = 0; set < 16; ++set) {
        for (uint64_t way = 0; way < 4; ++way)
            EXPECT_NE(c.lookup(way * 16 * 64 + set * 64),
                      Cache::kNoLine);
    }
}

TEST(Cache, LookupThenTouchOrAllocateMatchesAccess)
{
    // The split API (one tag scan, then a hit or a fill) must behave
    // exactly like access(): same hits, victims and writebacks.
    Cache whole(tinyCache());
    Cache split(tinyCache());
    Rng rng(17);
    for (int i = 0; i < 20000; ++i) {
        uint64_t addr = rng.uniformInt(256) * 64;
        bool is_write = rng.bernoulli(0.3);
        CacheAccess a = whole.access(addr, is_write);
        size_t line = split.lookup(addr);
        ASSERT_EQ(line != Cache::kNoLine, a.hit);
        if (line != Cache::kNoLine) {
            split.touch(line, is_write);
            continue;
        }
        CacheAccess b = split.allocate(addr, is_write);
        ASSERT_EQ(b.writeback, a.writeback);
        ASSERT_EQ(b.writebackAddr, a.writebackAddr);
        ASSERT_NE(split.lookup(addr), Cache::kNoLine);
    }
    EXPECT_EQ(split.stats().hits, whole.stats().hits);
    EXPECT_EQ(split.stats().misses, whole.stats().misses);
    EXPECT_EQ(split.stats().writebacks, whole.stats().writebacks);
}

} // namespace
} // namespace sim
} // namespace reaper
