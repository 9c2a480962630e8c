/**
 * @file
 * Pinned-statistics equivalence test for the memory-system simulator.
 *
 * Runs a grid of 288 configurations (row policy x scheduler x refresh
 * granularity x refresh interval x chip density x workload mix) and
 * folds every SystemStats field, plus the DRAM power the power model
 * derives from the command counts, into one 64-bit digest. A second
 * grid varies the core instead (clock ratio x issue width x window x
 * MSHRs x controller queue depth), reaching the paths the first never
 * does: fractional and integer clock ratios, windows smaller than the
 * issue width and a single MSHR. A third runs the core grid on one
 * channel with 8-entry queues and a small LLC, where full queues refuse
 * core sends, dirty writebacks wait for room and write draining starts
 * and stops. Any change to simulated timing, scheduling or accounting
 * moves a digest; a change that only makes the simulator faster must
 * leave all three untouched. Each digest equals that of a simulator
 * that ticks every core and every controller in full on every cycle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>

#include "power/drampower.h"
#include "sim/system.h"
#include "workload/synthetic.h"

namespace reaper {
namespace sim {
namespace {

/** Digest of the grid below, pinned from the reference simulator. */
constexpr uint64_t kPinnedDigest = 0xcea31373517041b1ull;
/** Digest of the core grid, pinned from the reference simulator. */
constexpr uint64_t kPinnedCoreDigest = 0x112ae50e9c67521dull;
/** Digest of the core grid on one narrow channel, pinned from a
 *  simulator that ticks every component in full on every cycle. */
constexpr uint64_t kPinnedNarrowDigest = 0xa9763ac0ef76d47bull;

constexpr Cycle kRunCycles = 110000; ///< past the first 512 ms REFab
constexpr size_t kAccessesPerCore = 4000;
constexpr int kMixes = 6;
constexpr Cycle kCoreRunCycles = 80000; ///< a dozen 64 ms REFab intervals

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }
    void
    add(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

void
addStats(Digest &d, const SystemStats &s, unsigned chip_gbit,
         uint32_t channels)
{
    for (double ipc : s.coreIpc)
        d.add(ipc);
    for (uint64_t n : s.coreInsts)
        d.add(n);
    d.add(s.memCycles);
    d.add(s.simulatedSeconds);
    d.add(s.llc.hits);
    d.add(s.llc.misses);
    d.add(s.llc.writebacks);
    const CommandCounts &c = s.channels.commands;
    for (uint64_t n : {c.act, c.pre, c.rd, c.wr, c.refab, c.refpb})
        d.add(n);
    d.add(s.channels.readsServed);
    d.add(s.channels.writesServed);
    d.add(s.channels.refreshStallCycles);
    d.add(s.channels.readLatencySum);
    d.add(s.avgReadLatency);
    power::DramPowerModel power(power::EnergyParams::lpddr4(), chip_gbit,
                                32, channels);
    d.add(power.fromCounts(c, s.simulatedSeconds).total());
}

TEST(SimEquivalence, PinnedStatsDigestOverConfigGrid)
{
    std::vector<workload::WorkloadMix> mixes =
        workload::makeMixes(kMixes, 11);
    std::vector<std::vector<Trace>> traces;
    for (const auto &mix : mixes)
        traces.push_back(
            workload::tracesForMix(mix, kAccessesPerCore, 11));

    Digest digest;
    int configs = 0;
    for (RowPolicy row : {RowPolicy::Open, RowPolicy::Closed})
        for (SchedulerPolicy sched :
             {SchedulerPolicy::FrFcfs, SchedulerPolicy::Fcfs})
            for (RefreshGranularity gran : {RefreshGranularity::AllBank,
                                            RefreshGranularity::PerBank})
                for (Seconds interval : {0.064, 0.512, 0.0})
                    for (unsigned chip : {8u, 64u})
                        for (const auto &mix_traces : traces) {
                            SystemConfig cfg;
                            cfg.llc.sizeBytes = 1ull << 20; // keep misses
                            cfg.ctrl.rowPolicy = row;
                            cfg.ctrl.scheduler = sched;
                            cfg.ctrl.refreshGranularity = gran;
                            cfg.setDram(chip, interval);
                            System system(cfg, mix_traces);
                            system.run(kRunCycles);
                            addStats(digest, system.stats(), chip,
                                     cfg.channels);
                            ++configs;
                        }
    EXPECT_EQ(configs, 288);
    EXPECT_EQ(digest.value(), kPinnedDigest)
        << std::hex << "digest 0x" << digest.value();
}

/** Sets a configuration's memory system (queues, channels, LLC). */
using MemorySetup = std::function<void(SystemConfig &)>;

/**
 * Digest of the core grid: clock ratio x issue width x window x MSHRs
 * x memory setup x two mixes.
 */
uint64_t
coreGridDigest(const std::vector<MemorySetup> &memories, int &configs)
{
    std::vector<workload::WorkloadMix> mixes = workload::makeMixes(2, 13);
    std::vector<std::vector<Trace>> traces;
    for (const auto &mix : mixes)
        traces.push_back(
            workload::tracesForMix(mix, kAccessesPerCore, 13));

    Digest digest;
    for (double ratio : {1.0, 2.3, 2.5})
        for (uint32_t width : {1u, 3u, 4u})
            for (uint32_t window : {2u, 128u})
                for (uint32_t mshrs : {1u, 8u})
                    for (const MemorySetup &memory : memories)
                        for (size_t m = 0; m < traces.size(); ++m) {
                            SystemConfig cfg;
                            cfg.llc.sizeBytes = 1ull << 20;
                            cfg.core.cpuPerMemCycle = ratio;
                            cfg.core.issueWidth = width;
                            cfg.core.windowSize = window;
                            cfg.core.mshrs = mshrs;
                            memory(cfg);
                            unsigned chip = m == 0 ? 8u : 64u;
                            cfg.setDram(chip, 0.064);
                            System system(cfg, traces[m]);
                            system.run(kCoreRunCycles);
                            addStats(digest, system.stats(), chip,
                                     cfg.channels);
                            ++configs;
                        }
    return digest.value();
}

TEST(SimEquivalence, PinnedStatsDigestOverCoreGrid)
{
    auto queue8 = [](SystemConfig &cfg) {
        cfg.ctrl.queueCapacity = 8;
        cfg.ctrl.writeDrainHigh = 6;
        cfg.ctrl.writeDrainLow = 2;
    };
    auto queue64 = [](SystemConfig &cfg) { cfg.ctrl.queueCapacity = 64; };
    int configs = 0;
    uint64_t digest = coreGridDigest({queue8, queue64}, configs);
    EXPECT_EQ(configs, 144);
    EXPECT_EQ(digest, kPinnedCoreDigest)
        << std::hex << "digest 0x" << digest;
}

TEST(SimEquivalence, PinnedStatsDigestOverCoreGridOnNarrowChannel)
{
    // 4 cores x 8 MSHRs overrun an 8-entry read queue, and a 256 KB LLC
    // evicts enough dirty lines to fill the write queue.
    auto narrow = [](SystemConfig &cfg) {
        cfg.channels = 1;
        cfg.llc.sizeBytes = 1ull << 18;
        cfg.ctrl.queueCapacity = 8;
        cfg.ctrl.writeDrainHigh = 6;
        cfg.ctrl.writeDrainLow = 2;
    };
    int configs = 0;
    uint64_t digest = coreGridDigest({narrow}, configs);
    EXPECT_EQ(configs, 72);
    EXPECT_EQ(digest, kPinnedNarrowDigest)
        << std::hex << "digest 0x" << digest;
}

} // namespace
} // namespace sim
} // namespace reaper
