/**
 * @file
 * Trace-driven out-of-order core model (Table 2: 4 GHz, 3-wide issue,
 * 128-entry instruction window, 8 MSHRs per core).
 *
 * The model mirrors Ramulator's simple OOO core: non-memory
 * instructions retire immediately once issued; loads occupy a window
 * slot until their data returns; stores are posted. The core runs at a
 * configurable multiple of the memory-controller clock (4 GHz vs
 * 1.6 GHz -> 2.5 CPU cycles per controller cycle).
 */

#ifndef REAPER_SIM_CORE_H
#define REAPER_SIM_CORE_H

#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/request.h"
#include "sim/trace.h"

namespace reaper {
namespace sim {

/** Core configuration. */
struct CoreConfig
{
    int id = 0;
    uint32_t windowSize = 128;
    uint32_t issueWidth = 3;
    uint32_t mshrs = 8;
    /** CPU cycles per memory-controller cycle (4 GHz / 1.6 GHz). */
    double cpuPerMemCycle = 2.5;
};

/**
 * Non-owning reference to the function the core uses to send a memory
 * access into the memory hierarchy. The function returns false if the
 * hierarchy cannot accept the access this cycle (queue full); the core
 * stalls and retries, taking a refusal to hold for the rest of the
 * controller cycle. Binding a SendRef allocates nothing, so callers
 * can make one every tick; the callable must outlive the call it is
 * passed to.
 */
class SendRef
{
  public:
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, SendRef>)
    SendRef(F &&fn) // implicit: binds any callable in place
        : obj_(const_cast<void *>(
              static_cast<const void *>(std::addressof(fn)))),
          call_([](void *obj, const MemRequest &req) -> bool {
              return (*static_cast<std::remove_reference_t<F> *>(obj))(
                  req);
          })
    {
    }

    bool operator()(const MemRequest &req) const
    {
        return call_(obj_, req);
    }

  private:
    void *obj_;
    bool (*call_)(void *, const MemRequest &);
};

/**
 * One trace-driven core.
 *
 * The core keeps its own controller-cycle clock, now(). It can be
 * ticked every cycle, or be ticked only in the cycles it is due and
 * brought up to date in between with advanceTo(): until it attempts a
 * send, its state after any number of CPU cycles has a closed form.
 */
class Core
{
  public:
    /** dueAt() of a core that cannot send until a load completes. */
    static constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

    /**
     * @param cfg core parameters; cpuPerMemCycle must be M * 2^-k for
     *        integers M < 2^53 and 0 <= k <= 64 (every double in
     *        [2^-11, 2^53) is)
     * @param trace the access trace (borrowed; must outlive the core)
     * @param loop restart the trace at the end (fixed-duration runs)
     */
    Core(const CoreConfig &cfg, const Trace &trace, bool loop = true);

    /** Run controller cycle now() and move on to the next. */
    void tick(SendRef send);

    /**
     * Earliest controller cycle, not before now(), in which the core
     * can attempt a send; kNever while it waits for a load's data.
     * Until then it only retires and issues bubbles, so advanceTo()
     * may skip the cycles before it.
     */
    Cycle dueAt() const { return due_; }

    /**
     * Bring the core up to date through controller cycle `cycle - 1`
     * without sending: the same state as ticking it that far. Needs
     * cycle <= dueAt(); a cycle at or before now() does nothing.
     */
    void advanceTo(Cycle cycle);

    /**
     * Data for the load with sequence number `seq` (MemRequest::seq of
     * a read this core sent) has returned.
     */
    void completeLoad(uint64_t seq);

    /** Controller cycles the core has run. */
    Cycle now() const { return now_; }
    uint64_t retiredInstructions() const { return retired_; }
    uint64_t cpuCycles() const { return cpuCycles_; }
    /** Instructions per CPU cycle so far. */
    double ipc() const;
    /** Whether a non-looping core has consumed its whole trace. */
    bool traceDone() const;
    uint32_t outstandingReads() const
    {
        return static_cast<uint32_t>(pendingLoads_.size());
    }
    int id() const { return cfg_.id; }

  private:
    /** CPU cycles elapsed after `cycle` controller cycles. */
    uint64_t cpuCyclesAt(Cycle cycle) const
    {
        return static_cast<uint64_t>(
            (static_cast<unsigned __int128>(cycle) * clockMul_) >>
            clockShift_);
    }
    /** Controller cycle in which CPU cycle number `n` (from 1) runs. */
    Cycle cycleOfCpuCycle(uint64_t n) const;
    /** One CPU cycle: retire then issue. Returns false when it
     *  neither retired nor issued anything. */
    bool cpuCycle(SendRef send);
    /** Whether the next CPU cycle can neither retire, issue nor send:
     *  only a completing load changes that. */
    bool blocked() const;
    /** dueAt() as it follows from the current state. */
    Cycle nextDue() const;
    /** `n` CPU cycles that attempt no send, in closed form. */
    void runQuiet(uint64_t n);

    uint32_t windowFree() const
    {
        return cfg_.windowSize -
               static_cast<uint32_t>(tailSeq_ - headSeq_);
    }

    CoreConfig cfg_;
    const Trace &trace_;
    bool loop_;

    // Instruction window as a range of sequence numbers: each bubble
    // and load takes the next number when it issues, and the window
    // holds [headSeq_, tailSeq_). Stores are posted and never enter
    // it. Bubbles are ready at issue, so only loads still waiting for
    // data can block retirement; pendingLoads_ lists their sequence
    // numbers in ascending order (at most mshrs of them). The ready
    // prefix of the window is everything before the first pending
    // load, so a run of bubbles issues, and a run of ready entries
    // retires, as one addition.
    uint64_t headSeq_ = 0; ///< oldest instruction in the window
    uint64_t tailSeq_ = 0; ///< next sequence number to issue
    std::vector<uint64_t> pendingLoads_;

    size_t tracePos_ = 0;
    uint32_t bubblesLeft_ = 0;

    // The CPU clock: cpuPerMemCycle = clockMul_ * 2^-clockShift_, so
    // cpuCyclesAt() is exact integer arithmetic.
    uint64_t clockMul_ = 0;
    unsigned clockShift_ = 0;

    Cycle now_ = 0;
    Cycle due_ = 0;
    uint64_t retired_ = 0;
    uint64_t cpuCycles_ = 0;
    bool done_ = false;
};

} // namespace sim
} // namespace reaper

#endif // REAPER_SIM_CORE_H
