/**
 * @file
 * Tests for the trace-driven core model: retirement, window blocking,
 * MSHR limits, and IPC accounting.
 */

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <tuple>

#include "common/rng.h"
#include "sim/core.h"

namespace reaper {
namespace sim {
namespace {

Trace
makeTrace(std::vector<TraceEntry> entries)
{
    Trace t;
    t.name = "test";
    t.entries = std::move(entries);
    return t;
}

CoreConfig
baseCore()
{
    CoreConfig cfg;
    cfg.windowSize = 8;
    cfg.issueWidth = 2;
    cfg.mshrs = 2;
    cfg.cpuPerMemCycle = 1.0; // 1:1 clocks simplify cycle math
    return cfg;
}

/** A memory system that answers reads after a fixed latency. */
struct FakeMemory
{
    Cycle latency = 10;
    Cycle now = 0;
    std::deque<std::pair<Cycle, uint64_t>> pending; ///< (due, load seq)
    int reads = 0;
    int writes = 0;
    bool accepting = true;

    /** The core's send function. */
    bool
    operator()(const MemRequest &req)
    {
        if (!accepting)
            return false;
        if (req.isWrite) {
            ++writes;
            return true;
        }
        ++reads;
        pending.emplace_back(now + latency, req.seq);
        return true;
    }

    void
    tick(Core &core)
    {
        ++now;
        while (!pending.empty() && pending.front().first <= now) {
            core.completeLoad(pending.front().second);
            pending.pop_front();
        }
    }
};

TEST(Core, EmptyTraceIsDone)
{
    Trace t = makeTrace({});
    Core core(baseCore(), t, false);
    EXPECT_TRUE(core.traceDone());
    EXPECT_EQ(core.retiredInstructions(), 0u);
}

TEST(Core, BubblesRetireAtIssueWidth)
{
    // One record: 10 bubbles + 1 read.
    Trace t = makeTrace({{10, 0x100, false}});
    Core core(baseCore(), t, false);
    FakeMemory mem;
    while (!core.traceDone() && mem.now < 1000) {
        core.tick(mem);
        mem.tick(core);
    }
    EXPECT_TRUE(core.traceDone());
    EXPECT_EQ(core.retiredInstructions(), 11u);
    // 11 instructions at width 2 with a 10-cycle load: > 6 cycles.
    EXPECT_GE(core.cpuCycles(), 6u);
}

TEST(Core, LoadBlocksRetirementUntilDataReturns)
{
    Trace t = makeTrace({{0, 0x100, false}, {6, 0, false}});
    CoreConfig cfg = baseCore();
    Core core(cfg, t, false);
    FakeMemory mem;
    mem.latency = 50;
    // Run well past issue of the first load; with the load blocking
    // the window head, at most windowSize-1 bubbles can retire... in
    // fact none retire because the load is the head.
    for (int i = 0; i < 20; ++i) {
        core.tick(mem);
        mem.tick(core);
    }
    EXPECT_EQ(core.retiredInstructions(), 0u);
    while (!core.traceDone() && mem.now < 1000) {
        core.tick(mem);
        mem.tick(core);
    }
    EXPECT_EQ(core.retiredInstructions(), 8u);
}

TEST(Core, StoresRetireImmediately)
{
    Trace t = makeTrace({{0, 0x100, true}, {0, 0x200, true}});
    Core core(baseCore(), t, false);
    FakeMemory mem;
    core.tick(mem);
    EXPECT_EQ(core.retiredInstructions(), 2u);
    EXPECT_EQ(mem.writes, 2);
    EXPECT_TRUE(core.traceDone());
}

TEST(Core, MshrLimitThrottlesOutstandingReads)
{
    std::vector<TraceEntry> entries;
    for (int i = 0; i < 6; ++i)
        entries.push_back({0, static_cast<uint64_t>(i) * 64, false});
    Trace t = makeTrace(entries);
    CoreConfig cfg = baseCore();
    cfg.mshrs = 2;
    Core core(cfg, t, false);
    FakeMemory mem;
    mem.latency = 100;
    core.tick(mem);
    core.tick(mem);
    EXPECT_LE(core.outstandingReads(), 2u);
    EXPECT_EQ(mem.reads, 2);
}

TEST(Core, StallsWhenMemoryRejects)
{
    Trace t = makeTrace({{0, 0x100, false}});
    Core core(baseCore(), t, false);
    FakeMemory mem;
    mem.accepting = false;
    for (int i = 0; i < 5; ++i)
        core.tick(mem);
    EXPECT_EQ(mem.reads, 0);
    EXPECT_FALSE(core.traceDone());
    mem.accepting = true;
    while (!core.traceDone() && mem.now < 1000) {
        core.tick(mem);
        mem.tick(core);
    }
    EXPECT_TRUE(core.traceDone());
}

TEST(Core, LoopingTraceNeverEnds)
{
    Trace t = makeTrace({{3, 0x100, true}});
    Core core(baseCore(), t, true);
    FakeMemory mem;
    for (int i = 0; i < 100; ++i) {
        core.tick(mem);
        mem.tick(core);
    }
    EXPECT_FALSE(core.traceDone());
    EXPECT_GT(core.retiredInstructions(), 50u);
}

TEST(Core, CpuClockRatioScalesThroughput)
{
    auto retired_with_ratio = [](double ratio) {
        Trace t = makeTrace({{999, 0x100, true}});
        CoreConfig cfg = baseCore();
        cfg.cpuPerMemCycle = ratio;
        Core core(cfg, t, true);
        FakeMemory mem;
            for (int i = 0; i < 1000; ++i) {
            core.tick(mem);
            mem.tick(core);
        }
        return core.retiredInstructions();
    };
    uint64_t slow = retired_with_ratio(1.0);
    uint64_t fast = retired_with_ratio(2.5);
    EXPECT_NEAR(static_cast<double>(fast) / static_cast<double>(slow),
                2.5, 0.1);
}

TEST(Core, IpcBoundedByIssueWidth)
{
    Trace t = makeTrace({{1000, 0x100, true}});
    CoreConfig cfg = baseCore();
    cfg.issueWidth = 3;
    Core core(cfg, t, true);
    FakeMemory mem;
    for (int i = 0; i < 2000; ++i) {
        core.tick(mem);
        mem.tick(core);
    }
    EXPECT_LE(core.ipc(), 3.0 + 1e-9);
    EXPECT_GT(core.ipc(), 2.5); // pure bubbles: near-peak IPC
}

TEST(Core, LoadsCompleteOutOfOrderButRetireInOrder)
{
    // Two loads, then two bubbles and a store.
    Trace t = makeTrace(
        {{0, 0x100, false}, {0, 0x200, false}, {2, 0x300, true}});
    Core core(baseCore(), t, false);
    FakeMemory mem;
    mem.latency = 1000000; // completions are delivered by hand
    for (int i = 0; i < 5; ++i)
        core.tick(mem);
    ASSERT_EQ(mem.pending.size(), 2u);
    EXPECT_EQ(core.outstandingReads(), 2u);
    EXPECT_EQ(core.retiredInstructions(), 1u); // the posted store
    uint64_t first = mem.pending[0].second;
    uint64_t second = mem.pending[1].second;
    EXPECT_LT(first, second);

    // The younger load's data does not let anything retire past the
    // older one.
    core.completeLoad(second);
    for (int i = 0; i < 5; ++i)
        core.tick(mem);
    EXPECT_EQ(core.outstandingReads(), 1u);
    EXPECT_EQ(core.retiredInstructions(), 1u);
    EXPECT_FALSE(core.traceDone());

    // Once the older load returns, both loads and both bubbles retire
    // at issue width.
    core.completeLoad(first);
    core.tick(mem);
    EXPECT_EQ(core.retiredInstructions(), 3u);
    core.tick(mem);
    EXPECT_EQ(core.retiredInstructions(), 5u);
    EXPECT_TRUE(core.traceDone());
}

TEST(Core, StalledCyclesStillCount)
{
    // A load at the window head blocks everything; the CPU clock keeps
    // running at cpuPerMemCycle per controller cycle.
    Trace t = makeTrace({{0, 0x100, false}, {100, 0, false}});
    CoreConfig cfg = baseCore();
    cfg.cpuPerMemCycle = 2.5;
    Core core(cfg, t, false);
    FakeMemory mem;
    mem.latency = 1000000;
    for (int i = 0; i < 100; ++i)
        core.tick(mem);
    EXPECT_EQ(core.cpuCycles(), 250u);
    EXPECT_EQ(core.retiredInstructions(), 0u);
}

TEST(Core, BlockedCoreAdvancesLikeTicking)
{
    // A load at the head of a full window blocks the core: it has no
    // due cycle, and advanceTo() accounts the wait the same way as
    // ticking.
    Trace t = makeTrace({{0, 0x100, false}, {100, 0, false}});
    CoreConfig cfg = baseCore();
    cfg.cpuPerMemCycle = 2.5;
    Core ticked(cfg, t, false);
    Core lazy(cfg, t, false);
    FakeMemory mem_a, mem_b;
    mem_a.latency = mem_b.latency = 1000000;
    int ticks = 0;
    while (lazy.dueAt() != Core::kNever) {
        ticked.tick(mem_a);
        lazy.tick(mem_b);
        ++ticks;
        ASSERT_LT(ticks, 100);
    }
    for (int i = 0; i < 37; ++i)
        ticked.tick(mem_a);
    lazy.advanceTo(ticked.now());
    EXPECT_EQ(lazy.now(), ticked.now());
    EXPECT_EQ(lazy.cpuCycles(), ticked.cpuCycles());
    EXPECT_EQ(lazy.retiredInstructions(), ticked.retiredInstructions());
    EXPECT_EQ(lazy.dueAt(), Core::kNever);

    // Data for the load unblocks both identically.
    lazy.completeLoad(mem_b.pending.front().second);
    ticked.completeLoad(mem_a.pending.front().second);
    ASSERT_NE(lazy.dueAt(), Core::kNever);
    // The bubbles before the second load issue without a send until
    // the due cycle; in it both cores send that load.
    while (ticked.now() <= lazy.dueAt())
        ticked.tick(mem_a);
    lazy.advanceTo(lazy.dueAt());
    lazy.tick(mem_b);
    EXPECT_EQ(lazy.retiredInstructions(), ticked.retiredInstructions());
    EXPECT_EQ(lazy.cpuCycles(), ticked.cpuCycles());
    EXPECT_EQ(mem_a.reads, 2);
    EXPECT_EQ(mem_b.reads, 2);
}

/** A send as the memory saw it: (cycle, address, write, load seq). */
using SentRecord = std::tuple<Cycle, uint64_t, bool, uint64_t>;

/**
 * Drive one core for `cycles` controller cycles against a memory that
 * answers reads after `latency` and refuses sends in every cycle
 * where `refuse(cycle)` holds. A lazy core is ticked only in cycles
 * it is due and brought up to date before each completion; an eager
 * one is ticked every cycle. Returns what the memory saw and adds the
 * ticks to `ticks`.
 */
template <typename Refuse>
std::vector<SentRecord>
drive(Core &core, bool lazy, Cycle cycles, Cycle latency, Refuse refuse,
      uint64_t &ticks)
{
    std::vector<SentRecord> sent;
    std::deque<std::pair<Cycle, uint64_t>> pending; ///< (due, seq)
    for (Cycle now = 0; now < cycles; ++now) {
        auto send = [&](const MemRequest &req) {
            if (refuse(now))
                return false;
            sent.emplace_back(now, req.addr, req.isWrite, req.seq);
            if (!req.isWrite)
                pending.emplace_back(now + latency, req.seq);
            return true;
        };
        if (!lazy || core.dueAt() <= now) {
            core.advanceTo(now);
            core.tick(send);
            ++ticks;
        }
        while (!pending.empty() && pending.front().first <= now + 1) {
            core.advanceTo(now + 1);
            core.completeLoad(pending.front().second);
            pending.pop_front();
        }
    }
    core.advanceTo(cycles);
    return sent;
}

TEST(Core, DueCyclesAndAdvanceToMatchTickingEveryCycle)
{
    // Random traces over clock ratios, issue widths, windows (one
    // narrower than the widest issue) and MSHR counts, with a memory
    // that refuses sends in some cycles: a core ticked only when due
    // sends the same requests in the same cycles and ends in the same
    // state as one ticked every cycle.
    Rng rng(17);
    int runs = 0;
    uint64_t eager_ticks = 0, lazy_ticks = 0;
    for (double ratio : {0.5, 1.0, 2.3, 2.5, 3.75})
        for (uint32_t width : {1u, 3u, 4u})
            for (uint32_t window : {2u, 8u, 128u})
                for (uint32_t mshrs : {1u, 8u}) {
                    std::vector<TraceEntry> entries;
                    for (int i = 0; i < 200; ++i)
                        entries.push_back(
                            {static_cast<uint32_t>(rng.uniformInt(40)),
                             rng.uniformInt(1 << 20) * 64,
                             rng.bernoulli(0.3)});
                    Trace t = makeTrace(entries);
                    CoreConfig cfg = baseCore();
                    cfg.cpuPerMemCycle = ratio;
                    cfg.issueWidth = width;
                    cfg.windowSize = window;
                    cfg.mshrs = mshrs;
                    Cycle latency = 5 + rng.uniformInt(60);
                    auto refuse = [](Cycle c) { return c % 11 < 3; };
                    Core eager(cfg, t);
                    Core lazy(cfg, t);
                    auto sent_eager =
                        drive(eager, false, 3000, latency, refuse,
                              eager_ticks);
                    auto sent_lazy = drive(lazy, true, 3000, latency,
                                           refuse, lazy_ticks);
                    ASSERT_EQ(sent_lazy, sent_eager)
                        << "ratio " << ratio << " width " << width
                        << " window " << window << " mshrs " << mshrs;
                    ASSERT_EQ(lazy.retiredInstructions(),
                              eager.retiredInstructions());
                    ASSERT_EQ(lazy.cpuCycles(), eager.cpuCycles());
                    ASSERT_EQ(lazy.outstandingReads(),
                              eager.outstandingReads());
                    ++runs;
                }
    EXPECT_EQ(runs, 90);
    // The lazy cores skip most cycles.
    EXPECT_LT(lazy_ticks * 2, eager_ticks);
}

TEST(Core, IntegerClockMatchesRunningCredit)
{
    // The CPU clock is floor(cycle * cpuPerMemCycle) in integers; for
    // ratios whose running double credit adds exactly it is the same
    // count, whether the core ticks or jumps there with advanceTo().
    for (double ratio : {0.5, 1.0, 2.3, 2.5, 3.75}) {
        CoreConfig cfg = baseCore();
        cfg.cpuPerMemCycle = ratio;
        Trace bubbles = makeTrace({{1000000, 0, true}});
        Trace empty = makeTrace({});
        Core ticked(cfg, bubbles, true);
        Core idle(cfg, empty, false); // never due: only advanceTo()
        FakeMemory mem;
        double credit = 0;
        uint64_t expected = 0;
        for (Cycle i = 1; i <= 100000; ++i) {
            ticked.tick(mem);
            idle.advanceTo(i);
            credit += ratio;
            uint64_t whole = static_cast<uint64_t>(credit);
            credit -= static_cast<double>(whole);
            expected += whole;
            ASSERT_EQ(ticked.cpuCycles(), expected)
                << "ratio " << ratio << " tick " << i;
            ASSERT_EQ(idle.cpuCycles(), expected)
                << "ratio " << ratio << " tick " << i;
        }
    }
}

TEST(Core, FractionalClockRatioMatchesOneCycleAtATime)
{
    // The CPU clock takes whole cycles out of a running credit; with a
    // ratio that is not a multiple of 1/2 the count per tick varies.
    Trace t = makeTrace({{1000000, 0, true}});
    CoreConfig cfg = baseCore();
    cfg.cpuPerMemCycle = 2.3;
    Core core(cfg, t, true);
    FakeMemory mem;
    double credit = 0;
    uint64_t expected = 0;
    for (int i = 0; i < 10000; ++i) {
        core.tick(mem);
        credit += cfg.cpuPerMemCycle;
        while (credit >= 1.0) {
            credit -= 1.0;
            ++expected;
        }
        ASSERT_EQ(core.cpuCycles(), expected) << "tick " << i;
    }
}

TEST(Core, UnknownCompletionPanics)
{
    Trace t = makeTrace({{0, 0x100, false}});
    Core core(baseCore(), t, false);
    EXPECT_DEATH(core.completeLoad(42), "unknown load");
}

TEST(Core, ConfigValidation)
{
    Trace t = makeTrace({});
    CoreConfig cfg = baseCore();
    cfg.windowSize = 0;
    EXPECT_DEATH(Core core(cfg, t), "windowSize");
    cfg = baseCore();
    cfg.cpuPerMemCycle = 0.0;
    EXPECT_DEATH(Core core(cfg, t), "cpuPerMemCycle");
}

TEST(Core, UnrepresentableClockRatioPanics)
{
    // The clock needs cpuPerMemCycle = M * 2^-k with M < 2^53 and
    // 0 <= k <= 64 so that its 128-bit products cannot overflow.
    Trace t = makeTrace({});
    CoreConfig cfg = baseCore();
    for (double ratio : {1e-30, 0x1p-65 * 3, 1e30,
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
        cfg.cpuPerMemCycle = ratio;
        EXPECT_DEATH(Core core(cfg, t), "cpuPerMemCycle") << ratio;
    }
    cfg.cpuPerMemCycle = 0x1p-11; // the smallest power of two allowed
    Core slow(cfg, t);
    slow.advanceTo(4096);
    EXPECT_EQ(slow.cpuCycles(), 2u);
}

TEST(Core, AdvancePastDueCyclePanics)
{
    Trace t = makeTrace({{0, 0x100, true}});
    Core core(baseCore(), t);
    EXPECT_EQ(core.dueAt(), 0u); // the store can go in the first cycle
    EXPECT_DEATH(core.advanceTo(5), "due cycle");
}

} // namespace
} // namespace sim
} // namespace reaper
