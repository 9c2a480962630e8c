/**
 * @file
 * Property-style parameterized tests of the memory-system simulator:
 * conservation invariants under randomized request streams, and the
 * refresh-overhead monotonicities the end-to-end evaluation relies on.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "sim/memctrl.h"
#include "sim/system.h"
#include "workload/synthetic.h"

namespace reaper {
namespace sim {
namespace {

// ---------------------------------------------------------------
// Controller conservation fuzz: every accepted request is served
// exactly once, regardless of traffic shape or refresh pressure.
// ---------------------------------------------------------------

class MemCtrlFuzz
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>>
{
  protected:
    uint64_t seed() const { return std::get<0>(GetParam()); }
    double refreshScale() const { return std::get<1>(GetParam()); }
};

TEST_P(MemCtrlFuzz, AllAcceptedRequestsComplete)
{
    MemCtrlConfig cfg;
    cfg.timing = lpddr4_3200(16);
    cfg.rowsPerBank = 256;
    cfg.refreshWindowScale = refreshScale();
    MemoryController mc(cfg);

    Rng rng(seed());
    int reads_accepted = 0, writes_accepted = 0, reads_done = 0;
    for (int i = 0; i < 60000; ++i) {
        if (rng.bernoulli(0.3)) {
            MemRequest req;
            req.isWrite = rng.bernoulli(0.35);
            req.addr = rng.uniformInt(1 << 22) * 64;
            DramAddr d;
            d.bank = static_cast<uint32_t>(rng.uniformInt(8));
            d.row = rng.uniformInt(256);
            d.col = static_cast<uint32_t>(rng.uniformInt(32));
            bool is_write = req.isWrite;
            if (mc.enqueue(req, d)) {
                if (is_write)
                    ++writes_accepted;
                else
                    ++reads_accepted;
            }
        }
        mc.tick();
        reads_done += static_cast<int>(mc.completedReads().size());
    }
    // Drain, and keep ticking long enough to cover even the 16x
    // refresh interval (12500 * 16 = 200k cycles).
    for (int i = 0; i < 450000; ++i) {
        mc.tick();
        reads_done += static_cast<int>(mc.completedReads().size());
    }
    EXPECT_FALSE(mc.hasPendingWork());
    EXPECT_EQ(reads_done, reads_accepted);
    EXPECT_EQ(mc.stats().commands.rd,
              static_cast<uint64_t>(reads_accepted));
    EXPECT_EQ(mc.stats().commands.wr,
              static_cast<uint64_t>(writes_accepted));
    // Every PRE closes a row an ACT opened, and read/write-drain
    // interleaving can re-open a row a bounded number of times.
    EXPECT_LE(mc.stats().commands.pre, mc.stats().commands.act);
    EXPECT_LE(mc.stats().commands.act,
              2 * (mc.stats().commands.rd + mc.stats().commands.wr));
    if (refreshScale() > 0)
        EXPECT_GT(mc.stats().commands.refab, 0u);
    else
        EXPECT_EQ(mc.stats().commands.refab, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndRefresh, MemCtrlFuzz,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(0.0, 1.0, 16.0)),
    [](const auto &info) {
        return "seed" + std::to_string(std::get<0>(info.param)) +
               "_ref" +
               std::to_string(
                   static_cast<int>(std::get<1>(info.param)));
    });

// ---------------------------------------------------------------
// System-level refresh monotonicities per chip density.
// ---------------------------------------------------------------

class RefreshPenaltyProperty
    : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RefreshPenaltyProperty, ThroughputMonotoneInRefreshInterval)
{
    unsigned gbit = GetParam();
    auto ipc_at = [&](Seconds interval) {
        SystemConfig cfg;
        cfg.channels = 2;
        cfg.llc.sizeBytes = 1ull << 20;
        cfg.setDram(gbit, interval);
        workload::BenchmarkSpec spec =
            workload::benchmarkByName("mcf");
        std::vector<Trace> traces;
        for (int c = 0; c < 4; ++c) {
            traces.push_back(workload::generateTrace(
                spec, 20000, 60 + static_cast<uint64_t>(c),
                (static_cast<uint64_t>(c) + 1) << 32));
        }
        System sys(cfg, traces);
        sys.run(150000);
        return sys.stats().ipcSum();
    };
    double base = ipc_at(0.064);
    double relaxed = ipc_at(0.512);
    double none = ipc_at(0.0);
    EXPECT_GE(relaxed, base);
    EXPECT_GE(none, relaxed * 0.995); // allow sim noise at the top
    EXPECT_GT(none, base);            // refresh must cost something
}

INSTANTIATE_TEST_SUITE_P(ChipSizes, RefreshPenaltyProperty,
                         ::testing::Values(8u, 16u, 32u, 64u),
                         [](const auto &info) {
                             return std::to_string(info.param) + "Gb";
                         });

// ---------------------------------------------------------------
// Cache invariants under random access streams.
// ---------------------------------------------------------------

class CacheFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CacheFuzz, ResidencyAndAccountingInvariants)
{
    CacheConfig cfg;
    cfg.sizeBytes = 16 * 1024;
    cfg.ways = 4;
    Cache cache(cfg);
    Rng rng(GetParam());
    uint64_t accesses = 0;
    for (int i = 0; i < 20000; ++i) {
        uint64_t addr = rng.uniformInt(1 << 16) * 64;
        bool write = rng.bernoulli(0.3);
        cache.access(addr, write);
        ++accesses;
        // A just-accessed line is always resident.
        ASSERT_NE(cache.lookup(addr), Cache::kNoLine);
    }
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, accesses);
    EXPECT_LE(cache.stats().writebacks, cache.stats().misses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzz,
                         ::testing::Values(10, 20, 30));

} // namespace
} // namespace sim
} // namespace reaper
