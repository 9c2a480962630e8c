/**
 * @file
 * Full-system wiring: N trace-driven cores share an LLC backed by
 * multiple DRAM channels (Table 2: 4 cores, 8 MB LLC, LPDDR4-3200 with
 * 4 channels), plus the simulation run loop and statistics.
 */

#ifndef REAPER_SIM_SYSTEM_H
#define REAPER_SIM_SYSTEM_H

#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "sim/cache.h"
#include "sim/core.h"
#include "sim/memctrl.h"
#include "sim/trace.h"

namespace reaper {
namespace sim {

/** Whole-system configuration. */
struct SystemConfig
{
    CoreConfig core{};     ///< per-core parameters (id is overwritten)
    CacheConfig llc{};
    MemCtrlConfig ctrl{};  ///< per-channel controller parameters
    uint32_t channels = 4;

    /** Convenience: configure DRAM timing/refresh for a chip density
     *  and target refresh interval (0 = no refresh). */
    void setDram(unsigned chip_gbit, Seconds refresh_interval);
};

/** Aggregated end-of-run statistics. */
struct SystemStats
{
    std::vector<double> coreIpc;      ///< per-core IPC (CPU clock)
    std::vector<uint64_t> coreInsts;
    uint64_t memCycles = 0;
    Seconds simulatedSeconds = 0;
    CacheStats llc;
    MemCtrlStats channels;            ///< summed over channels
    double avgReadLatency = 0;        ///< controller cycles

    /** Sum of per-core IPCs (throughput metric). */
    double ipcSum() const;
};

/** The simulated multicore system. */
class System
{
  public:
    /**
     * @param cfg system configuration
     * @param traces one trace per core (the system runs
     *        traces.size() cores); borrowed, they must outlive the
     *        system
     */
    System(const SystemConfig &cfg, const std::vector<Trace> &traces);
    /** A temporary would leave the cores' traces dangling. */
    System(const SystemConfig &cfg, std::vector<Trace> &&traces) = delete;

    /**
     * Run for a fixed number of memory-controller cycles. Only cycles
     * in which something can happen are simulated; every statistic is
     * the same as ticking every component every cycle.
     */
    void run(Cycle mem_cycles);

    SystemStats stats() const;

    uint32_t numCores() const { return static_cast<uint32_t>(
        cores_.size()); }

  private:
    /** Route one core request through the LLC (returns false to
     *  stall the core). */
    bool sendFromCore(const MemRequest &req);
    /** Decode a physical address into channel/bank/row/col. */
    DramAddr decode(uint64_t addr) const;
    /** Enqueue a line request to its DRAM channel. */
    bool sendToDram(const MemRequest &req);
    /** First cycle in [now_, end] in which something can happen: a
     *  core is due, a hit completes, a channel wakes or a writeback
     *  waits for queue space. */
    Cycle nextEvent(Cycle end) const;
    /** Simulate cycle now_ and move on to the next. Cores that are
     *  not due are brought up to date only when a completion reaches
     *  them. */
    void step();

    SystemConfig cfg_;
    std::vector<std::unique_ptr<Core>> cores_;
    Cache llc_;
    std::vector<std::unique_ptr<MemoryController>> channels_;

    /** An LLC-hit read waiting out the hit latency. */
    struct HitCompletion
    {
        Cycle at;
        int coreId;
        uint64_t seq;
    };
    /** Pending LLC-hit completions, in cycle order. */
    std::queue<HitCompletion> hitQueue_;
    /** Dirty-victim writebacks waiting for channel queue space. */
    std::deque<MemRequest> wbBuffer_;
    Cycle now_ = 0;
};

} // namespace sim
} // namespace reaper

#endif // REAPER_SIM_SYSTEM_H
