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

/** One trace-driven core. */
class Core
{
  public:
    /**
     * @param cfg core parameters
     * @param trace the access trace (borrowed; must outlive the core)
     * @param loop restart the trace at the end (fixed-duration runs)
     */
    Core(const CoreConfig &cfg, const Trace &trace, bool loop = true);

    /**
     * Advance one memory-controller cycle. Returns true when the core
     * ran CPU cycles but none of them retired or issued anything: it
     * then cannot progress until a load completes or the hierarchy
     * accepts the access it refused.
     */
    bool tick(SendRef send);

    /** Account `ticks` controller cycles in which the core stays
     *  stalled: its clock runs, nothing retires or issues. */
    void stallFor(Cycle ticks);

    /**
     * Data for the load with sequence number `seq` (MemRequest::seq of
     * a read this core sent) has returned.
     */
    void completeLoad(uint64_t seq);

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
    /** CPU cycles that elapse in the next controller cycle. */
    uint32_t takeCpuCycles();
    /** One CPU cycle: retire then issue. Returns false when it
     *  neither retired nor issued anything. */
    bool cpuCycle(SendRef send);

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

    uint64_t retired_ = 0;
    uint64_t cpuCycles_ = 0;
    double cpuCredit_ = 0.0;
    bool done_ = false;
};

} // namespace sim
} // namespace reaper

#endif // REAPER_SIM_CORE_H
