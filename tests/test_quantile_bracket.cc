/**
 * @file
 * Tests for the quantile bracket table behind DramDevice's read path:
 * normalQuantile(u) must lie inside its bin's [lo, hi] for every
 * clamped draw u, or the bracketed decision could differ from the
 * exact latent failure time.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/math_util.h"
#include "dram/quantile_bracket.h"

namespace reaper {
namespace dram {
namespace {

/** Failures of "normalQuantile(u) in its bin's bracket" at draw u. */
int
bracketMisses(double u)
{
    const QuantileBracket *table = quantileBrackets();
    int k = quantileBin(u);
    if (k < 0 || k >= kQuantileBins) {
        ADD_FAILURE() << "u=" << u << " maps to bin " << k;
        return 1;
    }
    double q = normalQuantile(u);
    if (q >= table[k].lo && q <= table[k].hi)
        return 0;
    ADD_FAILURE() << "u=" << u << " (bin " << k << "): Q=" << q
                  << " outside [" << table[k].lo << ", " << table[k].hi
                  << "]";
    return 1;
}

/** Step u by n ulps (negative: down), then clamp like the device. */
double
ulpsFrom(double u, int n)
{
    for (; n > 0; --n)
        u = std::nextafter(u, 2.0);
    for (; n < 0; ++n)
        u = std::nextafter(u, -1.0);
    return clampTo(u, kLatentUMin, kLatentUMax);
}

TEST(QuantileBracket, BinsCoverTheClampedRange)
{
    EXPECT_EQ(quantileBin(kLatentUMin), 0);
    EXPECT_EQ(quantileBin(kLatentUMax), kQuantileBins - 1);
    EXPECT_EQ(quantileBin(0.5), kQuantileBins / 2);
    EXPECT_EQ(quantileBin(std::nextafter(0.5, 0.0)),
              kQuantileBins / 2 - 1);
}

TEST(QuantileBracket, BracketsAreOrderedAndGuarded)
{
    const QuantileBracket *table = quantileBrackets();
    for (int k = 0; k < kQuantileBins; ++k) {
        EXPECT_LT(table[k].lo, table[k].hi) << "bin " << k;
        if (k > 0)
            EXPECT_LT(table[k - 1].lo, table[k].lo) << "bin " << k;
    }
}

TEST(QuantileBracket, HoldsAtEveryBinEdgeWithinFourUlps)
{
    int misses = 0;
    for (int k = 0; k <= kQuantileBins; ++k) {
        double edge = static_cast<double>(k) / kQuantileBins;
        for (int n = -4; n <= 4; ++n)
            misses += bracketMisses(ulpsFrom(edge, n));
    }
    EXPECT_EQ(misses, 0);
}

TEST(QuantileBracket, HoldsAtBothClamps)
{
    int misses = 0;
    for (double clamp : {kLatentUMin, kLatentUMax})
        for (int n = -4; n <= 4; ++n)
            misses += bracketMisses(ulpsFrom(clamp, n));
    EXPECT_EQ(misses, 0);
}

TEST(QuantileBracket, HoldsOnDenseGrid)
{
    // 2^24 draws at the midpoints of a uniform grid, plus 2^20 in each
    // tail bin, where the quantile moves fastest.
    constexpr uint64_t kGrid = 1ull << 24;
    int misses = 0;
    for (uint64_t i = 0; i < kGrid && misses < 16; ++i) {
        double u = (static_cast<double>(i) + 0.5) / kGrid;
        misses += bracketMisses(clampTo(u, kLatentUMin, kLatentUMax));
    }
    constexpr uint64_t kTail = 1ull << 20;
    const double width = 1.0 / kQuantileBins;
    for (uint64_t i = 0; i < kTail && misses < 16; ++i) {
        double f = (static_cast<double>(i) + 0.5) / kTail;
        misses += bracketMisses(
            clampTo(f * width, kLatentUMin, kLatentUMax));
        misses += bracketMisses(
            clampTo(1.0 - f * width, kLatentUMin, kLatentUMax));
    }
    EXPECT_EQ(misses, 0);
}

} // namespace
} // namespace dram
} // namespace reaper
