/**
 * @file
 * Tests for the multi-chip DRAM module.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "dram/module.h"
#include "profiling/profiler.h"
#include "testbed/softmc_host.h"

namespace reaper {
namespace dram {
namespace {

ModuleConfig
smallModule(uint32_t chips = 4, uint64_t seed = 1)
{
    ModuleConfig cfg;
    cfg.numChips = chips;
    cfg.chipCapacityBits = 512ull * 1024 * 1024; // 64 MB per chip
    cfg.seed = seed;
    cfg.envelope = {2.5, 50.0};
    return cfg;
}

TEST(DramModule, RejectsZeroChips)
{
    ModuleConfig cfg = smallModule(1);
    cfg.numChips = 0;
    EXPECT_DEATH(DramModule m(cfg), "numChips");
}

TEST(DramModule, CapacityAggregation)
{
    DramModule m(smallModule(4));
    EXPECT_EQ(m.numChips(), 4u);
    EXPECT_EQ(m.capacityBits(), 4ull * 512 * 1024 * 1024);
}

TEST(DramModule, ChipsHaveDistinctPopulations)
{
    DramModule m(smallModule(2));
    ASSERT_GT(m.chip(0).weakCellCount(), 0u);
    ASSERT_GT(m.chip(1).weakCellCount(), 0u);
    // Chip variation perturbs per-chip parameters; identical
    // populations would indicate seed reuse.
    auto t0 = m.chip(0).trueFailingSet(2.0, 45.0);
    auto t1 = m.chip(1).trueFailingSet(2.0, 45.0);
    EXPECT_NE(t0, t1);
}

TEST(DramModule, BroadcastOpsKeepChipsInLockstep)
{
    DramModule m(smallModule(3));
    m.setTemperature(48.0);
    m.writePattern(DataPattern::Checkerboard);
    m.disableRefresh();
    m.wait(1.0);
    m.enableRefresh();
    for (uint32_t i = 0; i < m.numChips(); ++i) {
        EXPECT_EQ(m.chip(i).temperature(), 48.0);
        EXPECT_EQ(m.chip(i).now(), 1.0);
        EXPECT_EQ(m.chip(i).lastPattern(), DataPattern::Checkerboard);
        EXPECT_TRUE(m.chip(i).refreshEnabled());
    }
    EXPECT_EQ(m.now(), 1.0);
}

TEST(DramModule, ReadAndCompareTagsChips)
{
    DramModule m(smallModule(4, 2));
    m.writePattern(DataPattern::Random);
    m.disableRefresh();
    m.wait(2.2);
    m.enableRefresh();
    auto fails = m.readAndCompare();
    ASSERT_GT(fails.size(), 0u);
    EXPECT_TRUE(std::is_sorted(fails.begin(), fails.end()));
    for (const auto &f : fails) {
        EXPECT_LT(f.chip, 4u);
        EXPECT_LT(f.addr, 512ull * 1024 * 1024);
    }
}

TEST(DramModule, TrueFailingSetAggregatesAllChips)
{
    DramModule m(smallModule(2, 3));
    auto truth = m.trueFailingSet(2.0, 45.0);
    size_t per_chip = m.chip(0).trueFailingSet(2.0, 45.0).size() +
                      m.chip(1).trueFailingSet(2.0, 45.0).size();
    EXPECT_EQ(truth.size(), per_chip);
    EXPECT_TRUE(std::is_sorted(truth.begin(), truth.end()));
}

TEST(DramModule, ChipVariationSpreadsFailureCounts)
{
    ModuleConfig cfg = smallModule(8, 4);
    cfg.chipCapacityBits = 2ull * 1024 * 1024 * 1024; // 256 MB
    cfg.chipVariation = 0.3;
    DramModule m(cfg);
    std::vector<double> counts;
    for (uint32_t i = 0; i < m.numChips(); ++i)
        counts.push_back(
            static_cast<double>(m.chip(i).trueFailingSet(2.0, 45.0)
                                    .size()));
    double lo = *std::min_element(counts.begin(), counts.end());
    double hi = *std::max_element(counts.begin(), counts.end());
    ASSERT_GT(lo, 0.0);
    EXPECT_GT(hi / lo, 1.2); // variation should be visible
}

TEST(DramModule, NoVariationUsesNominalParams)
{
    ModuleConfig cfg = smallModule(1, 5);
    cfg.chipVariation = 0.0;
    DramModule m(cfg);
    EXPECT_NEAR(m.chip(0).model().params().berAt1024ms,
                vendorParams(Vendor::B).berAt1024ms, 1e-12);
}

// ---- Copies share each chip's weak-cell population ----

/** What a module shows over a brute-force-like round: every pattern at
 *  the target interval, four iterations hours of virtual time apart so
 *  weak cells toggle VRT state and VRT arrivals come and go. */
struct RoundTrace
{
    std::vector<std::vector<ChipFailure>> reads;
    std::vector<ChipFailure> truth;
    std::vector<size_t> activeVrt;
    Seconds now = 0;

    bool
    operator==(const RoundTrace &o) const
    {
        return reads == o.reads && truth == o.truth &&
               activeVrt == o.activeVrt && now == o.now;
    }
};

RoundTrace
bruteForceRound(DramModule &m)
{
    RoundTrace t;
    for (int iter = 0; iter < 4; ++iter) {
        for (DataPattern p : allDataPatterns()) {
            m.writePattern(p);
            m.disableRefresh();
            m.wait(1.024);
            m.enableRefresh();
            t.reads.push_back(m.readAndCompare());
        }
        m.wait(hoursToSec(4.0));
    }
    t.truth = m.trueFailingSet(1.024, 45.0);
    for (uint32_t i = 0; i < m.numChips(); ++i)
        t.activeVrt.push_back(m.chip(i).activeVrtCount());
    t.now = m.now();
    return t;
}

TEST(DramModuleCopy, CopyOfPristineModuleBehavesLikeBuilding)
{
    for (Vendor v : {Vendor::A, Vendor::B, Vendor::C}) {
        ModuleConfig cfg = smallModule(2, 6);
        cfg.vendor = v;
        ASSERT_GT(cfg.chipVariation, 0.0);
        const DramModule pristine(cfg);
        DramModule copy(pristine);
        DramModule built(cfg);
        const RoundTrace got = bruteForceRound(copy);
        ASSERT_FALSE(got.reads.front().empty()) << toString(v);
        EXPECT_GT(got.activeVrt[0] + got.activeVrt[1], 0u)
            << toString(v);
        EXPECT_TRUE(got == bruteForceRound(built)) << toString(v);
    }
}

TEST(DramModuleCopy, SiblingCopiesDoNotShareDynamicState)
{
    const DramModule pristine(smallModule(2, 7));
    DramModule a(pristine);
    DramModule b(pristine);
    b.writePattern(DataPattern::Random);
    b.disableRefresh();
    b.wait(2.0);
    const std::vector<ChipFailure> before = b.readAndCompare();
    ASSERT_FALSE(before.empty());

    // Restore, hammer and wait on a: none of it may reach b.
    a.writePattern(DataPattern::Checkerboard);
    a.restoreData();
    a.hammer({0, 2, 4}, 1ull << 20);
    a.wait(hoursToSec(12.0));
    EXPECT_EQ(b.readAndCompare(), before);
    EXPECT_EQ(b.now(), 2.0);

    // And b still matches a fresh copy taken through the same steps.
    DramModule c(pristine);
    c.writePattern(DataPattern::Random);
    c.disableRefresh();
    c.wait(2.0);
    EXPECT_EQ(c.readAndCompare(), before);
}

TEST(DramModuleCopy, ThreadsProfilingOwnCopiesMatchSerial)
{
    // Four threads profile copies of one pristine module at once: the
    // shared populations are read concurrently (ThreadSanitizer runs
    // this test), and every thread must see the serial result.
    const DramModule pristine(smallModule(2, 8));
    auto profileCopy = [&pristine] {
        DramModule m(pristine);
        testbed::SoftMcHost host(m);
        profiling::ProfilerSpec spec;
        spec.iterations = 2;
        std::unique_ptr<profiling::Profiler> profiler =
            std::move(profiling::makeProfiler("brute_force", spec).value());
        return profiler->profile(host, {1.024, 45.0})
            .value()
            .profile.cells();
    };
    const std::vector<ChipFailure> want = profileCopy();
    ASSERT_FALSE(want.empty());
    std::vector<std::vector<ChipFailure>> got(4);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < got.size(); ++i)
        threads.emplace_back([&, i] { got[i] = profileCopy(); });
    for (std::thread &t : threads)
        t.join();
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want) << "thread " << i;
}

TEST(ChipFailure, Ordering)
{
    ChipFailure a{0, 5}, b{0, 9}, c{1, 1};
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    EXPECT_EQ(a, (ChipFailure{0, 5}));
}

} // namespace
} // namespace dram
} // namespace reaper
