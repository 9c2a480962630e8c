/**
 * @file
 * Tests for the memory controller's alternative operating modes:
 * FCFS scheduling (the ablation baseline against FR-FCFS) and
 * per-bank refresh (REFpb).
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "sim/memctrl.h"

namespace reaper {
namespace sim {
namespace {

MemCtrlConfig
baseConfig()
{
    MemCtrlConfig cfg;
    cfg.timing = lpddr4_3200(8);
    cfg.rowsPerBank = 1024;
    return cfg;
}

MemRequest
readReq(uint64_t addr)
{
    MemRequest r;
    r.addr = addr;
    r.isWrite = false;
    return r;
}

/** Tick once; returns how many reads completed in that cycle. */
int
tickCounting(MemoryController &mc)
{
    mc.tick();
    return static_cast<int>(mc.completedReads().size());
}

/** Tick until a read completes; returns the cycle after that tick. */
Cycle
tickUntilRead(MemoryController &mc)
{
    do {
        mc.tick();
    } while (mc.completedReads().empty());
    return mc.now();
}

/**
 * Tick until the controller drains or max cycles pass; adds the reads
 * that completed to *done when given.
 */
Cycle
drain(MemoryController &mc, int *done = nullptr,
      Cycle max_cycles = 1000000)
{
    Cycle start = mc.now();
    while (mc.hasPendingWork() && mc.now() - start < max_cycles) {
        int n = tickCounting(mc);
        if (done)
            *done += n;
    }
    return mc.now() - start;
}

// ---------------- FCFS scheduler ----------------

/** Interleaved row-conflict stream; FR-FCFS reorders, FCFS cannot. */
Cycle
conflictStreamTime(SchedulerPolicy policy)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    cfg.scheduler = policy;
    MemoryController mc(cfg);
    int done = 0;
    // Alternate rows in one bank, with row-hit pairs interleaved so a
    // reordering scheduler can batch them.
    for (uint32_t i = 0; i < 16; ++i) {
        DramAddr d{0, 0, (i % 2) ? 100u : 200u, i};
        EXPECT_TRUE(mc.enqueue(readReq(i * 64), d));
    }
    Cycle t = drain(mc, &done);
    EXPECT_EQ(done, 16);
    return t;
}

TEST(FcfsScheduler, FrFcfsBeatsFcfsOnConflictStreams)
{
    Cycle frfcfs = conflictStreamTime(SchedulerPolicy::FrFcfs);
    Cycle fcfs = conflictStreamTime(SchedulerPolicy::Fcfs);
    EXPECT_LT(frfcfs, fcfs);
}

TEST(FcfsScheduler, ServesAllRequests)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.scheduler = SchedulerPolicy::Fcfs;
    MemoryController mc(cfg);
    Rng rng(5);
    int done = 0, accepted = 0;
    for (int i = 0; i < 20000; ++i) {
        if (rng.bernoulli(0.2)) {
            DramAddr d{0, static_cast<uint32_t>(rng.uniformInt(8)),
                       rng.uniformInt(64),
                       static_cast<uint32_t>(rng.uniformInt(32))};
            if (mc.enqueue(readReq(rng.uniformInt(1 << 20) * 64), d))
                ++accepted;
        }
        done += tickCounting(mc);
    }
    drain(mc, &done);
    EXPECT_EQ(done, accepted);
}

TEST(FcfsScheduler, PreservesArrivalOrderPerBank)
{
    // With FCFS, reads to the same bank complete in arrival order.
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    cfg.scheduler = SchedulerPolicy::Fcfs;
    MemoryController mc(cfg);
    std::vector<int> order;
    for (uint32_t i = 0; i < 6; ++i) {
        DramAddr d{0, 0, 10 + i, 0};
        ASSERT_TRUE(mc.enqueue(readReq(i * 64), d));
    }
    while (mc.hasPendingWork()) {
        mc.tick();
        for (const MemRequest &r : mc.completedReads())
            order.push_back(static_cast<int>(r.addr / 64));
    }
    ASSERT_EQ(order.size(), 6u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

// ---------------- Per-bank refresh ----------------

TEST(PerBankRefresh, IssuesBanksTimesMoreCommands)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshGranularity = RefreshGranularity::PerBank;
    MemoryController mc(cfg);
    for (Cycle i = 0; i < cfg.timing.tREFI * 4 + 200; ++i)
        mc.tick();
    // One REFpb per tREFI/8: ~32 commands in 4 tREFI.
    EXPECT_NEAR(static_cast<double>(mc.stats().commands.refpb), 32.0,
                2.0);
    EXPECT_EQ(mc.stats().commands.refab, 0u);
}

TEST(PerBankRefresh, SameRefreshWorkAsAllBank)
{
    // Total rows refreshed per window must match REFab mode:
    // refpb * (rows/8192/banks) == refab * (rows/8192).
    MemCtrlConfig ab = baseConfig();
    MemCtrlConfig pb = baseConfig();
    pb.refreshGranularity = RefreshGranularity::PerBank;
    MemoryController mab(ab), mpb(pb);
    for (Cycle i = 0; i < ab.timing.tREFI * 64; ++i) {
        mab.tick();
        mpb.tick();
    }
    EXPECT_NEAR(static_cast<double>(mpb.stats().commands.refpb),
                static_cast<double>(mab.stats().commands.refab * 8),
                8.0);
}

TEST(PerBankRefresh, OtherBanksKeepServingDuringRefresh)
{
    // The point of REFpb: a read to bank 3 proceeds while bank 0
    // refreshes. Compare a read's latency right at a refresh against
    // the same read in all-bank mode.
    auto latency_in_mode = [](RefreshGranularity g) {
        MemCtrlConfig cfg = baseConfig();
        cfg.refreshGranularity = g;
        MemoryController mc(cfg);
        Cycle refi_cmd =
            g == RefreshGranularity::PerBank
                ? cfg.timing.tREFI / cfg.banks
                : cfg.timing.tREFI;
        for (Cycle i = 0; i < refi_cmd + 3; ++i)
            mc.tick();
        Cycle start = mc.now();
        // Target a bank that is NOT being refreshed (round-robin
        // starts at bank 0).
        EXPECT_TRUE(mc.enqueue(readReq(0), DramAddr{0, 3, 1, 0}));
        return tickUntilRead(mc) - start;
    };
    Cycle ab = latency_in_mode(RefreshGranularity::AllBank);
    Cycle pb = latency_in_mode(RefreshGranularity::PerBank);
    EXPECT_LT(pb + baseConfig().timing.tRFCab / 2, ab);
}

TEST(PerBankRefresh, RefreshedBankIsBlocked)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshGranularity = RefreshGranularity::PerBank;
    MemoryController mc(cfg);
    Cycle refi_cmd = cfg.timing.tREFI / cfg.banks;
    for (Cycle i = 0; i < refi_cmd + 3; ++i)
        mc.tick();
    ASSERT_GE(mc.stats().commands.refpb, 1u);
    Cycle start = mc.now();
    // Bank 0 is the first bank refreshed (round-robin).
    EXPECT_TRUE(mc.enqueue(readReq(0), DramAddr{0, 0, 1, 0}));
    EXPECT_GT(tickUntilRead(mc) - start, cfg.timing.tRFCpb / 2);
}

TEST(PerBankRefresh, FuzzAllRequestsComplete)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshGranularity = RefreshGranularity::PerBank;
    cfg.rowsPerBank = 128;
    MemoryController mc(cfg);
    Rng rng(9);
    int done = 0, accepted = 0;
    for (int i = 0; i < 50000; ++i) {
        if (rng.bernoulli(0.3)) {
            DramAddr d{0, static_cast<uint32_t>(rng.uniformInt(8)),
                       rng.uniformInt(128),
                       static_cast<uint32_t>(rng.uniformInt(32))};
            if (mc.enqueue(readReq(rng.uniformInt(1 << 20) * 64), d))
                ++accepted;
        }
        done += tickCounting(mc);
    }
    drain(mc, &done);
    EXPECT_EQ(done, accepted);
    EXPECT_GT(mc.stats().commands.refpb, 0u);
}

TEST(PerBankRefresh, EnqueueWhileRefreshPendingOnOpenBank)
{
    // Bank 0 opens a row just before its REFpb falls due, so the
    // refresh waits for tRAS to close it. Reads arrive meanwhile, for
    // the draining bank and for another one. The controller sleeps
    // until the refresh falls due and then stays awake while it is
    // pending; completion cycles and statistics are pinned from the
    // controller before it learned to sleep.
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshGranularity = RefreshGranularity::PerBank;
    MemoryController mc(cfg);
    std::map<uint64_t, Cycle> done;
    auto tick_to = [&](Cycle end) {
        while (mc.now() < end) {
            mc.tick();
            for (const MemRequest &r : mc.completedReads())
                done[r.addr] = mc.now() - 1;
        }
    };
    tick_to(1540); // REFpb for bank 0 falls due at 1563
    ASSERT_TRUE(mc.enqueue(readReq(0xf0), DramAddr{0, 0, 5, 0}));
    tick_to(1580);
    ASSERT_TRUE(mc.enqueue(readReq(0x100), DramAddr{0, 0, 5, 1}));
    ASSERT_TRUE(mc.enqueue(readReq(0x140), DramAddr{0, 3, 1, 0}));
    tick_to(2400);
    EXPECT_EQ(done, (std::map<uint64_t, Cycle>{
                        {0xf0, 1953}, {0x100, 1961}, {0x140, 1645}}));
    EXPECT_EQ(mc.stats().commands.refpb, 1u);
    EXPECT_EQ(mc.stats().commands.act, 3u);
    EXPECT_EQ(mc.stats().commands.pre, 1u);
    EXPECT_EQ(mc.stats().readLatencySum, 859u);
    EXPECT_EQ(mc.stats().refreshStallCycles, 0u);
}

} // namespace
} // namespace sim
} // namespace reaper
