/**
 * @file
 * Cycle-level DRAM memory controller for one channel: FR-FCFS
 * scheduling, bank timing state machines, write draining, and refresh
 * (the component whose overhead the whole paper is about).
 *
 * Modeled after the controller configuration of Table 2: 64-entry
 * read/write queues, FR-FCFS [Rixner et al.], open- or closed-row
 * policy, all-bank refresh every tREFI with banks blocked for tRFCab.
 */

#ifndef REAPER_SIM_MEMCTRL_H
#define REAPER_SIM_MEMCTRL_H

#include <algorithm>
#include <cstddef>
#include <deque>
#include <queue>
#include <vector>

#include "sim/request.h"
#include "sim/timing.h"

namespace reaper {
namespace sim {

/** Row-buffer management policy. */
enum class RowPolicy
{
    Open,   ///< leave rows open (single-core, Table 2)
    Closed, ///< auto-precharge after each access (multi-core)
};

/** Request scheduling policy. */
enum class SchedulerPolicy
{
    FrFcfs, ///< first-ready row hits before oldest (Table 2)
    Fcfs,   ///< strictly oldest-first (ablation baseline)
};

/** Refresh command granularity. */
enum class RefreshGranularity
{
    AllBank, ///< REFab: all banks blocked for tRFCab (Table 2)
    PerBank, ///< REFpb: banks refreshed round-robin, one at a time
};

/** Controller configuration. */
struct MemCtrlConfig
{
    TimingParams timing{};
    uint32_t banks = 8;
    uint64_t rowsPerBank = 32768;
    uint32_t rowBytes = 2048;
    size_t queueCapacity = 64;
    size_t writeDrainHigh = 48; ///< start draining writes
    size_t writeDrainLow = 16;  ///< stop draining writes
    RowPolicy rowPolicy = RowPolicy::Open;
    SchedulerPolicy scheduler = SchedulerPolicy::FrFcfs;
    RefreshGranularity refreshGranularity = RefreshGranularity::AllBank;
    /**
     * Refresh interval as a multiple of the default 64 ms window
     * (e.g. 16.0 for a 1024 ms target). 0 disables refresh entirely
     * (the paper's "no refresh" upper bound).
     */
    double refreshWindowScale = 1.0;
};

/** DRAM command counts for the power model. */
struct CommandCounts
{
    uint64_t act = 0;
    uint64_t pre = 0;
    uint64_t rd = 0;
    uint64_t wr = 0;
    uint64_t refab = 0;
    uint64_t refpb = 0;
};

/** Controller statistics. */
struct MemCtrlStats
{
    CommandCounts commands;
    uint64_t readsServed = 0;
    uint64_t writesServed = 0;
    uint64_t refreshStallCycles = 0; ///< cycles all banks blocked by REF
    uint64_t readLatencySum = 0;     ///< sum of read queueing+service

    /** CAS commands that reused an already-open row. */
    uint64_t rowHits() const
    {
        uint64_t cas = commands.rd + commands.wr;
        return cas > commands.act ? cas - commands.act : 0;
    }
    /** Row-hit fraction of all column accesses. */
    double rowHitRate() const
    {
        uint64_t cas = commands.rd + commands.wr;
        return cas ? static_cast<double>(rowHits()) /
                         static_cast<double>(cas)
                   : 0.0;
    }
};

/** One-channel FR-FCFS memory controller. */
class MemoryController
{
  public:
    explicit MemoryController(const MemCtrlConfig &cfg);

    /**
     * Enqueue a request (address must be pre-decoded into `dram`
     * coordinates by the caller). Returns false when the queue is
     * full; the caller must retry later. Writes are posted: an
     * accepted write needs no further acknowledgement.
     */
    bool enqueue(const MemRequest &req, const DramAddr &dram);

    /** Advance one controller cycle. */
    void tick();

    /** Reads whose data returned during the last tick(), oldest
     *  first. Valid until the next tick() or sleepUntil(). */
    const std::vector<MemRequest> &completedReads() const
    {
        return completed_;
    }

    /** Earliest cycle at which the controller can act (issue a
     *  command, complete a read or start a refresh): now() while it
     *  is awake. */
    Cycle wakeAt() const { return std::max(wakeAt_, now_); }
    /** Skip to cycle `until`, which must not pass wakeAt(); only
     *  refresh stall cycles are counted on the way. */
    void sleepUntil(Cycle until);

    Cycle now() const { return now_; }
    size_t readQueueSize() const { return readQueue_.size(); }
    size_t writeQueueSize() const { return writeQueue_.size(); }
    bool hasPendingWork() const;
    const MemCtrlStats &stats() const { return stats_; }
    const MemCtrlConfig &config() const { return cfg_; }

  private:
    struct Entry
    {
        MemRequest req;
        DramAddr dram;
    };

    struct Bank
    {
        bool open = false;
        uint64_t openRow = 0;
        Cycle nextAct = 0;
        Cycle nextRead = 0;
        Cycle nextWrite = 0;
        Cycle nextPre = 0;
    };

    /** Whether the bank can accept an ACT this cycle (incl. channel
     *  tRRD/tFAW constraints). */
    bool canActivate(const Bank &b) const;
    /** Issue one command for the given queue; true if issued. */
    bool serviceQueue(std::vector<Entry> &queue, bool is_write);
    /** Requests the scheduler considers (FCFS: only the oldest). */
    size_t scanLimit(const std::vector<Entry> &queue) const;
    /** Earliest cycle at which serviceQueue could issue a command for
     *  this entry, given the current bank and channel state. */
    Cycle issuableAt(const Entry &e, bool is_write) const;
    /** Lower bound on the next cycle at which a command or a
     *  refresh action can happen (see wakeAt_). */
    Cycle wakeBound() const;
    /** wakeAt_ from commandAt_ and the oldest in-flight read. */
    void updateWake();
    void issueActivate(Bank &b, uint64_t row);
    void issuePrecharge(Bank &b);
    void maybeStartRefresh();
    void maybeStartPerBankRefresh();
    void completeReads();

    MemCtrlConfig cfg_;
    Cycle now_ = 0;
    std::vector<Bank> banks_;
    std::vector<Entry> readQueue_;
    std::vector<Entry> writeQueue_;
    bool drainingWrites_ = false;
    bool commandIssued_ = false; ///< one command per cycle

    // Channel-level constraints.
    Cycle nextActChannel_ = 0;
    std::deque<Cycle> actWindow_; ///< timestamps of last ACTs (tFAW)
    Cycle busFreeAt_ = 0;
    Cycle readTurnaroundAt_ = 0;  ///< earliest RD after a WR (tWTR)

    // Refresh.
    Cycle refreshDue_ = 0;
    bool refreshPending_ = false;     ///< all-bank refresh waiting
    int pendingRefreshBank_ = -1;     ///< per-bank refresh waiting
    uint32_t refreshBankRr_ = 0;      ///< per-bank round-robin cursor
    Cycle refreshEndsAt_ = 0;
    Cycle effectiveRefi_ = 0; ///< scaled command interval; 0 = disabled

    // In-flight reads as a (completion cycle, request) FIFO. Every
    // read takes the same tRL + tBURST, so completion cycles never
    // decrease along the queue.
    std::queue<std::pair<Cycle, MemRequest>> inflight_;
    std::vector<MemRequest> completed_; ///< reads done in last tick

    // Every full tick ends by setting commandAt_ = wakeBound(): no
    // command or refresh action can happen before it, so ticks before
    // it only complete the reads due, advance now_ and count refresh
    // stall cycles. wakeAt_ also covers the oldest in-flight read:
    // ticks before it only advance now_ and count refresh stall
    // cycles. enqueue() lowers both to the new entry's issuableAt().
    Cycle commandAt_ = 0;
    Cycle wakeAt_ = 0;

    MemCtrlStats stats_;
};

} // namespace sim
} // namespace reaper

#endif // REAPER_SIM_MEMCTRL_H
