/**
 * @file
 * Tests for the FR-FCFS memory controller: command correctness, row
 * buffer behaviour, write draining, and refresh blocking.
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

/**
 * Tick until the controller drains or max cycles pass; adds the reads
 * that completed to *done when given.
 */
Cycle
runUntilIdle(MemoryController &mc, int *done = nullptr,
             Cycle max_cycles = 1000000)
{
    Cycle start = mc.now();
    while (mc.hasPendingWork() && mc.now() - start < max_cycles) {
        mc.tick();
        if (done)
            *done += static_cast<int>(mc.completedReads().size());
    }
    return mc.now() - start;
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

MemRequest
readReq(uint64_t addr)
{
    MemRequest r;
    r.addr = addr;
    r.isWrite = false;
    return r;
}

TEST(MemCtrl, SingleReadCompletesWithActRdLatency)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0; // isolate request timing
    MemoryController mc(cfg);
    ASSERT_TRUE(mc.enqueue(readReq(0), DramAddr{0, 0, 5, 0}));
    Cycle done_at = tickUntilRead(mc);
    // ACT at ~1, RD at 1+tRCD, data at +tRL+tBURST.
    const TimingParams &t = cfg.timing;
    EXPECT_NEAR(static_cast<double>(done_at),
                static_cast<double>(1 + t.tRCD + t.tRL + t.tBURST), 3.0);
    EXPECT_EQ(mc.stats().commands.act, 1u);
    EXPECT_EQ(mc.stats().commands.rd, 1u);
}

TEST(MemCtrl, RowHitsAvoidExtraActivates)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    MemoryController mc(cfg);
    int done = 0;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(mc.enqueue(readReq(static_cast<uint64_t>(i) * 64),
                               DramAddr{0, 0, 7,
                                        static_cast<uint32_t>(i)}));
    }
    runUntilIdle(mc, &done);
    EXPECT_EQ(done, 8);
    EXPECT_EQ(mc.stats().commands.act, 1u); // one row opening
    EXPECT_EQ(mc.stats().commands.rd, 8u);
    EXPECT_EQ(mc.stats().rowHits(), 7u);
}

TEST(MemCtrl, RowConflictPrecharges)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    MemoryController mc(cfg);
    int done = 0;
    ASSERT_TRUE(mc.enqueue(readReq(0), DramAddr{0, 0, 1, 0}));
    ASSERT_TRUE(mc.enqueue(readReq(64), DramAddr{0, 0, 2, 0}));
    runUntilIdle(mc, &done);
    EXPECT_EQ(done, 2);
    EXPECT_EQ(mc.stats().commands.act, 2u);
    EXPECT_GE(mc.stats().commands.pre, 1u);
}

TEST(MemCtrl, ClosedPolicyPrechargesEveryAccess)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    cfg.rowPolicy = RowPolicy::Closed;
    MemoryController mc(cfg);
    int done = 0;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(mc.enqueue(readReq(static_cast<uint64_t>(i) * 64),
                               DramAddr{0, 0, 3,
                                        static_cast<uint32_t>(i)}));
    }
    runUntilIdle(mc, &done);
    EXPECT_EQ(done, 4);
    // Requests arrive together, so FR-FCFS may still batch row hits
    // before the auto-precharge closes the row; at minimum the last
    // access closes it.
    EXPECT_GE(mc.stats().commands.pre, 1u);
}

TEST(MemCtrl, BankParallelismFasterThanSameBank)
{
    auto run_case = [](bool same_bank) {
        MemCtrlConfig cfg = baseConfig();
        cfg.refreshWindowScale = 0;
        MemoryController mc(cfg);
        int done = 0;
        for (uint32_t i = 0; i < 4; ++i) {
            DramAddr d{0, same_bank ? 0 : i, i + 10, 0};
            EXPECT_TRUE(mc.enqueue(readReq(i * 4096), d));
        }
        Cycle cycles = runUntilIdle(mc, &done);
        EXPECT_EQ(done, 4);
        return cycles;
    };
    EXPECT_LT(run_case(false), run_case(true));
}

TEST(MemCtrl, WritesArePosted)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    MemoryController mc(cfg);
    MemRequest w;
    w.addr = 0;
    w.isWrite = true;
    // Acceptance is the acknowledgement: nothing is sent back later.
    ASSERT_TRUE(mc.enqueue(w, DramAddr{0, 0, 1, 0}));
    EXPECT_EQ(mc.stats().commands.wr, 0u);
    int done = 0;
    runUntilIdle(mc, &done);
    EXPECT_EQ(done, 0);
    EXPECT_EQ(mc.stats().commands.wr, 1u);
}

TEST(MemCtrl, QueueCapacityEnforced)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.queueCapacity = 4;
    MemoryController mc(cfg);
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(mc.enqueue(readReq(static_cast<uint64_t>(i) * 64),
                               DramAddr{0, 0, 1, 0}));
    }
    EXPECT_FALSE(mc.enqueue(readReq(999), DramAddr{0, 0, 1, 0}));
}

TEST(MemCtrl, RefreshIssuesOnSchedule)
{
    MemCtrlConfig cfg = baseConfig();
    MemoryController mc(cfg);
    for (Cycle i = 0; i < cfg.timing.tREFI * 4 + 100; ++i)
        mc.tick();
    EXPECT_EQ(mc.stats().commands.refab, 4u);
}

TEST(MemCtrl, LongerRefreshIntervalFewerRefreshes)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 16.0; // 1024 ms target
    MemoryController mc(cfg);
    for (Cycle i = 0; i < cfg.timing.tREFI * 64 + 200; ++i)
        mc.tick();
    EXPECT_EQ(mc.stats().commands.refab, 4u); // 64 / 16
}

TEST(MemCtrl, NoRefreshMode)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    MemoryController mc(cfg);
    for (Cycle i = 0; i < cfg.timing.tREFI * 8; ++i)
        mc.tick();
    EXPECT_EQ(mc.stats().commands.refab, 0u);
}

TEST(MemCtrl, RefreshClosesOpenRow)
{
    MemCtrlConfig cfg = baseConfig();
    MemoryController mc(cfg);
    // Open a row just before the refresh deadline.
    ASSERT_TRUE(mc.enqueue(readReq(0), DramAddr{0, 0, 9, 0}));
    runUntilIdle(mc);
    ASSERT_EQ(mc.stats().commands.act, 1u);
    for (Cycle i = 0; i < cfg.timing.tREFI + cfg.timing.tRFCab + 200;
         ++i)
        mc.tick();
    EXPECT_GE(mc.stats().commands.refab, 1u);
    // The open row was precharged so refresh could proceed.
    EXPECT_GE(mc.stats().commands.pre, 1u);
}

TEST(MemCtrl, RefreshDelaysPendingReads)
{
    // A read arriving during tRFC waits; compare its latency against
    // an unobstructed read.
    auto latency_with_refresh = [](bool refresh) {
        MemCtrlConfig cfg = baseConfig();
        cfg.refreshWindowScale = refresh ? 1.0 : 0.0;
        MemoryController mc(cfg);
        // Advance to just after a refresh began.
        for (Cycle i = 0; i < cfg.timing.tREFI + 5; ++i)
            mc.tick();
        Cycle start = mc.now();
        EXPECT_TRUE(mc.enqueue(readReq(0), DramAddr{0, 0, 1, 0}));
        return tickUntilRead(mc) - start;
    };
    Cycle blocked = latency_with_refresh(true);
    Cycle free_run = latency_with_refresh(false);
    EXPECT_GT(blocked, free_run + baseConfig().timing.tRFCab / 2);
}

TEST(MemCtrl, WriteDrainServesWritesUnderReadPressure)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    cfg.queueCapacity = 64;
    cfg.writeDrainHigh = 8;
    cfg.writeDrainLow = 2;
    MemoryController mc(cfg);
    // Saturate the write queue past the high watermark.
    for (uint32_t i = 0; i < 10; ++i) {
        MemRequest w;
        w.addr = i * 64;
        w.isWrite = true;
        ASSERT_TRUE(mc.enqueue(w, DramAddr{0, i % 8, 1, 0}));
    }
    runUntilIdle(mc);
    EXPECT_EQ(mc.stats().commands.wr, 10u);
}

// ---------------- Wake bound ----------------
//
// Between commands the controller sleeps until the earliest cycle at
// which anything can happen; an enqueue must wake it. Each case
// enqueues into a sleeping controller and pins the completion cycles
// and statistics recorded from the controller before it learned to
// sleep (it then evaluated every cycle).

using CompletionCycles = std::map<uint64_t, Cycle>;

/** Tick until cycle `end`, recording the cycle each read's data
 *  returned, keyed by address. */
void
tickRecording(MemoryController &mc, Cycle end, CompletionCycles &done)
{
    while (mc.now() < end) {
        mc.tick();
        for (const MemRequest &r : mc.completedReads())
            done[r.addr] = mc.now() - 1;
    }
}

TEST(MemCtrlWake, EnqueueWakesControllerAsleepOnBankTiming)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    MemoryController mc(cfg);
    CompletionCycles done;
    ASSERT_TRUE(mc.enqueue(readReq(0xa0), DramAddr{0, 0, 1, 0}));
    tickRecording(mc, 10, done); // ACT at 0, asleep on tRCD
    ASSERT_TRUE(mc.enqueue(readReq(0xb0), DramAddr{0, 0, 2, 0}));
    tickRecording(mc, 75, done); // PRE at tRAS, asleep on tRP
    ASSERT_TRUE(mc.enqueue(readReq(0xc0), DramAddr{0, 0, 1, 0}));
    ASSERT_TRUE(mc.enqueue(readReq(0xd0), DramAddr{0, 1, 3, 0}));
    tickRecording(mc, 600, done);
    EXPECT_EQ(done, (CompletionCycles{
                        {0xa0, 65}, {0xb0, 167}, {0xc0, 269}, {0xd0, 140}}));
    EXPECT_EQ(mc.stats().commands.act, 4u);
    EXPECT_EQ(mc.stats().commands.pre, 2u);
    EXPECT_EQ(mc.stats().readLatencySum, 481u);
    EXPECT_EQ(mc.stats().refreshStallCycles, 0u);
}

TEST(MemCtrlWake, EnqueueDuringAllBankRefresh)
{
    MemCtrlConfig cfg = baseConfig();
    MemoryController mc(cfg);
    CompletionCycles done;
    // REFab starts at tREFI; enqueue inside its tRFCab.
    tickRecording(mc, cfg.timing.tREFI + 100, done);
    ASSERT_TRUE(mc.enqueue(readReq(0xe0), DramAddr{0, 2, 4, 0}));
    MemRequest w;
    w.addr = 0xf0;
    w.isWrite = true;
    ASSERT_TRUE(mc.enqueue(w, DramAddr{0, 5, 9, 0}));
    tickRecording(mc, cfg.timing.tREFI + 1000, done);
    EXPECT_EQ(done, (CompletionCycles{{0xe0, 13013}}));
    EXPECT_EQ(mc.stats().refreshStallCycles, 447u);
    EXPECT_EQ(mc.stats().commands.refab, 1u);
    EXPECT_EQ(mc.stats().commands.act, 2u);
    EXPECT_EQ(mc.stats().commands.wr, 1u);
    EXPECT_EQ(mc.stats().readLatencySum, 413u);
}

TEST(MemCtrlWake, EnqueueIntoFullFawWindow)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    cfg.timing.tRRD = 4; // four ACTs fit well inside one tFAW
    MemoryController mc(cfg);
    CompletionCycles done;
    for (uint32_t b = 0; b < 4; ++b) {
        ASSERT_TRUE(mc.enqueue(readReq(0x100 + b * 0x40),
                               DramAddr{0, b, 10 + b, 0}));
    }
    tickRecording(mc, 20, done); // four ACTs issued by cycle 12
    ASSERT_TRUE(mc.enqueue(readReq(0x400), DramAddr{0, 4, 1, 0}));
    tickRecording(mc, 400, done);
    EXPECT_EQ(done, (CompletionCycles{{0x100, 65},
                                      {0x140, 73},
                                      {0x180, 81},
                                      {0x1c0, 89},
                                      {0x400, 129}}));
    EXPECT_EQ(mc.stats().commands.act, 5u);
    EXPECT_EQ(mc.stats().readLatencySum, 417u);
    EXPECT_EQ(mc.stats().refreshStallCycles, 0u);
}

TEST(MemCtrlWake, ReadCompletingInsideAllBankRefreshCountsStall)
{
    // With a long read latency the read is still in flight when the
    // REFab issues and returns inside tRFCab. That tick completes the
    // read without running the scheduler; it must still count as a
    // refresh stall cycle, as in a controller with no traffic.
    MemCtrlConfig cfg = baseConfig();
    cfg.timing.tRL = 400;
    MemoryController idle(cfg), busy(cfg);
    const Cycle refi = cfg.timing.tREFI;
    const Cycle end = refi + 2 * cfg.timing.tRFCab;
    CompletionCycles done, none;
    tickRecording(busy, refi - 60, done);
    ASSERT_TRUE(busy.enqueue(readReq(0x40), DramAddr{0, 0, 1, 0}));
    tickRecording(busy, end, done);
    tickRecording(idle, end, none);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_GT(done.at(0x40), refi);
    EXPECT_LT(done.at(0x40), refi + cfg.timing.tRFCab);
    EXPECT_EQ(busy.stats().commands.refab, 1u);
    EXPECT_EQ(idle.stats().commands.refab, 1u);
    EXPECT_EQ(busy.stats().refreshStallCycles,
              idle.stats().refreshStallCycles);
    EXPECT_EQ(busy.stats().refreshStallCycles, cfg.timing.tRFCab - 1);
}

TEST(MemCtrlWake, SleepingInJumpsMatchesTicking)
{
    // Drive two controllers with the same random traffic: one ticks
    // every cycle, the other jumps straight to wakeAt() whenever it is
    // asleep. Completions and statistics must agree exactly.
    for (RefreshGranularity gran :
         {RefreshGranularity::AllBank, RefreshGranularity::PerBank}) {
        MemCtrlConfig cfg = baseConfig();
        cfg.timing = lpddr4_3200(64); // long tRFCab
        cfg.refreshGranularity = gran;
        MemoryController ticked(cfg), jumped(cfg);
        CompletionCycles done_ticked, done_jumped;
        Rng rng(23);
        const Cycle end = 4 * cfg.timing.tREFI;
        Cycle next_arrival = 0;
        uint64_t addr = 0;
        while (ticked.now() < end) {
            if (ticked.now() == next_arrival) {
                MemRequest r;
                r.addr = (addr += 64);
                r.isWrite = rng.bernoulli(0.3);
                DramAddr d{0, static_cast<uint32_t>(rng.uniformInt(8)),
                           rng.uniformInt(16), 0};
                EXPECT_EQ(ticked.enqueue(r, d), jumped.enqueue(r, d));
                next_arrival += 1 + rng.uniformInt(400);
            }
            Cycle until = std::min(next_arrival, end);
            tickRecording(ticked, until, done_ticked);
            while (jumped.now() < until) {
                if (jumped.now() < jumped.wakeAt()) {
                    jumped.sleepUntil(std::min(jumped.wakeAt(), until));
                    continue;
                }
                jumped.tick();
                for (const MemRequest &r : jumped.completedReads())
                    done_jumped[r.addr] = jumped.now() - 1;
            }
        }
        EXPECT_EQ(done_jumped, done_ticked);
        const MemCtrlStats &a = ticked.stats(), &b = jumped.stats();
        EXPECT_EQ(b.commands.act, a.commands.act);
        EXPECT_EQ(b.commands.pre, a.commands.pre);
        EXPECT_EQ(b.commands.rd, a.commands.rd);
        EXPECT_EQ(b.commands.wr, a.commands.wr);
        EXPECT_EQ(b.commands.refab, a.commands.refab);
        EXPECT_EQ(b.commands.refpb, a.commands.refpb);
        EXPECT_EQ(b.refreshStallCycles, a.refreshStallCycles);
        EXPECT_EQ(b.readLatencySum, a.readLatencySum);
        EXPECT_GT(a.commands.refab + a.commands.refpb, 0u);
    }
}

TEST(MemCtrl, ConfigValidation)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.banks = 0;
    EXPECT_DEATH(MemoryController mc(cfg), "banks");
    cfg = baseConfig();
    cfg.writeDrainLow = cfg.writeDrainHigh;
    EXPECT_DEATH(MemoryController mc(cfg), "writeDrain");
    cfg = baseConfig();
    cfg.refreshWindowScale = -1;
    EXPECT_DEATH(MemoryController mc(cfg), "negative");
}

} // namespace
} // namespace sim
} // namespace reaper
