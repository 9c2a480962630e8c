/**
 * @file
 * Pinned-statistics equivalence test for the memory-system simulator.
 *
 * Runs a grid of 288 configurations (row policy x scheduler x refresh
 * granularity x refresh interval x chip density x workload mix) and
 * folds every SystemStats field, plus the DRAM power the power model
 * derives from the command counts, into one 64-bit digest. Any change
 * to simulated timing, scheduling or accounting moves the digest; a
 * change that only makes the simulator faster must leave it untouched.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "power/drampower.h"
#include "sim/system.h"
#include "workload/synthetic.h"

namespace reaper {
namespace sim {
namespace {

/** Digest of the grid below, pinned from the reference simulator. */
constexpr uint64_t kPinnedDigest = 0xcea31373517041b1ull;

constexpr Cycle kRunCycles = 110000; ///< past the first 512 ms REFab
constexpr size_t kAccessesPerCore = 4000;
constexpr int kMixes = 6;

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

} // namespace
} // namespace sim
} // namespace reaper
