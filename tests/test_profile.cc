/**
 * @file
 * Tests for RetentionProfile set semantics and metric scoring.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "profiling/profile.h"

namespace reaper {
namespace profiling {
namespace {

using dram::ChipFailure;

TEST(RetentionProfile, StartsEmpty)
{
    RetentionProfile p;
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.size(), 0u);
}

TEST(RetentionProfile, AddDeduplicatesAndSorts)
{
    RetentionProfile p;
    p.add({{1, 10}, {0, 5}, {1, 10}, {0, 2}});
    EXPECT_EQ(p.size(), 3u);
    EXPECT_EQ(p.cells()[0], (ChipFailure{0, 2}));
    EXPECT_EQ(p.cells()[1], (ChipFailure{0, 5}));
    EXPECT_EQ(p.cells()[2], (ChipFailure{1, 10}));
}

TEST(RetentionProfile, AddAccumulatesAcrossCalls)
{
    RetentionProfile p;
    p.add({{0, 1}});
    p.add({{0, 2}, {0, 1}});
    EXPECT_EQ(p.size(), 2u);
}

/**
 * add() merges a strictly increasing batch (what a module read returns)
 * without sorting it and sorts anything else first; either way the
 * profile must equal the set union. Batches are drawn in every shape
 * the two paths tell apart: sorted, unsorted, duplicate-laden, empty,
 * overlapping the profile, and a tail that starts at the profile's last
 * cell or past it.
 */
TEST(RetentionProfile, AddMatchesSetUnionProperty)
{
    enum Shape { Sorted, Unsorted, Duplicates, Empty, Tail };
    Rng rng(20260);
    for (int trial = 0; trial < 400; ++trial) {
        RetentionProfile p;
        std::set<ChipFailure> want;
        for (int batch = 0; batch < 6; ++batch) {
            const Shape shape = static_cast<Shape>(rng.uniformInt(5));
            const size_t n = rng.uniformInt(40);
            // Small keys overlap earlier batches. A tail starts at the
            // last cell added so far (sharing it) or past it.
            const bool tail = shape == Tail && !want.empty();
            const ChipFailure last =
                tail ? *want.rbegin() : ChipFailure{};
            const uint64_t base = tail ? last.addr + rng.uniformInt(3) : 0;
            std::vector<ChipFailure> in;
            if (tail)
                in.push_back({last.chip, base});
            if (shape != Empty)
                for (size_t i = 0; i < n; ++i)
                    in.push_back({tail ? last.chip
                                       : static_cast<uint32_t>(
                                             rng.uniformInt(3)),
                                  base + rng.uniformInt(64)});
            if (shape == Sorted || shape == Tail) {
                std::set<ChipFailure> uniq(in.begin(), in.end());
                in.assign(uniq.begin(), uniq.end());
            } else if (shape == Duplicates && !in.empty()) {
                in.push_back(in.front());
                in.push_back(in.back());
            }
            p.add(in);
            want.insert(in.begin(), in.end());
            ASSERT_EQ(p.cells(),
                      std::vector<ChipFailure>(want.begin(), want.end()))
                << "trial " << trial << " batch " << batch << " shape "
                << shape;
        }
    }
}

TEST(RetentionProfile, AddEmptyIsNoop)
{
    RetentionProfile p;
    p.add({{0, 1}});
    p.add({});
    EXPECT_EQ(p.size(), 1u);
}

TEST(RetentionProfile, ContainsBinarySearch)
{
    RetentionProfile p;
    p.add({{0, 1}, {2, 7}, {5, 3}});
    EXPECT_TRUE(p.contains({2, 7}));
    EXPECT_FALSE(p.contains({2, 8}));
    EXPECT_FALSE(p.contains({3, 7}));
}

TEST(RetentionProfile, MergeUnions)
{
    RetentionProfile a, b;
    a.add({{0, 1}, {0, 2}});
    b.add({{0, 2}, {0, 3}});
    a.merge(b);
    EXPECT_EQ(a.size(), 3u);
}

TEST(RetentionProfile, IntersectionSize)
{
    RetentionProfile p;
    p.add({{0, 1}, {0, 3}, {0, 5}, {1, 1}});
    std::vector<ChipFailure> other = {{0, 2}, {0, 3}, {1, 1}, {1, 2}};
    EXPECT_EQ(p.intersectionSize(other), 2u);
    EXPECT_EQ(p.intersectionSize({}), 0u);
}

TEST(RetentionProfile, ConditionsRoundTrip)
{
    Conditions c{1.024, 45.0};
    RetentionProfile p(c);
    EXPECT_DOUBLE_EQ(p.conditions().refreshInterval, 1.024);
    EXPECT_DOUBLE_EQ(p.conditions().temperature, 45.0);
    p.setConditions({2.048, 55.0});
    EXPECT_DOUBLE_EQ(p.conditions().refreshInterval, 2.048);
}

TEST(ScoreProfile, PerfectProfile)
{
    RetentionProfile p;
    p.add({{0, 1}, {0, 2}});
    std::vector<ChipFailure> truth = {{0, 1}, {0, 2}};
    ProfileMetrics m = scoreProfile(p, truth, 10.0);
    EXPECT_DOUBLE_EQ(m.coverage, 1.0);
    EXPECT_DOUBLE_EQ(m.falsePositiveRate, 0.0);
    EXPECT_DOUBLE_EQ(m.runtime, 10.0);
    EXPECT_EQ(m.truePositives, 2u);
    EXPECT_EQ(m.falsePositives, 0u);
}

TEST(ScoreProfile, PartialCoverageWithFalsePositives)
{
    RetentionProfile p;
    p.add({{0, 1}, {0, 9}, {0, 8}}); // one true, two false
    std::vector<ChipFailure> truth = {{0, 1}, {0, 2}};
    ProfileMetrics m = scoreProfile(p, truth, 1.0);
    EXPECT_DOUBLE_EQ(m.coverage, 0.5);
    EXPECT_NEAR(m.falsePositiveRate, 2.0 / 3.0, 1e-12);
    EXPECT_EQ(m.truthSize, 2u);
    EXPECT_EQ(m.discovered, 3u);
}

TEST(ScoreProfile, EmptyTruthIsFullCoverage)
{
    RetentionProfile p;
    ProfileMetrics m = scoreProfile(p, {}, 0.0);
    EXPECT_DOUBLE_EQ(m.coverage, 1.0);
    EXPECT_DOUBLE_EQ(m.falsePositiveRate, 0.0);
}

TEST(ScoreProfile, EmptyProfileZeroCoverage)
{
    RetentionProfile p;
    std::vector<ChipFailure> truth = {{0, 1}};
    ProfileMetrics m = scoreProfile(p, truth, 0.0);
    EXPECT_DOUBLE_EQ(m.coverage, 0.0);
    EXPECT_DOUBLE_EQ(m.falsePositiveRate, 0.0);
}

} // namespace
} // namespace profiling
} // namespace reaper
