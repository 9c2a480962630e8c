#include "sim/core.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace reaper {
namespace sim {

Core::Core(const CoreConfig &cfg, const Trace &trace, bool loop)
    : cfg_(cfg), trace_(trace), loop_(loop)
{
    if (cfg.windowSize == 0 || cfg.issueWidth == 0)
        panic("Core: windowSize and issueWidth must be > 0");
    if (!(cfg.cpuPerMemCycle > 0) || !std::isfinite(cfg.cpuPerMemCycle))
        panic("Core: cpuPerMemCycle must be > 0");
    // cpuPerMemCycle = mant * 2^-shift, mant < 2^53, shift minimal.
    int exp = 0;
    double frac = std::frexp(cfg.cpuPerMemCycle, &exp);
    auto mant = static_cast<uint64_t>(std::ldexp(frac, 53));
    int shift = 53 - exp;
    while (shift > 0 && (mant & 1) == 0) {
        mant >>= 1;
        --shift;
    }
    if (shift < 0 || shift > 64)
        panic("Core: cpuPerMemCycle %g is not M * 2^-k with M < 2^53 "
              "and 0 <= k <= 64",
              cfg.cpuPerMemCycle);
    clockMul_ = mant;
    clockShift_ = static_cast<unsigned>(shift);
    pendingLoads_.reserve(cfg.mshrs);
    if (trace_.entries.empty()) {
        done_ = true;
    } else {
        bubblesLeft_ = trace_.entries.front().bubbles;
    }
    due_ = nextDue();
}

double
Core::ipc() const
{
    return cpuCycles_ ? static_cast<double>(retired_) /
                            static_cast<double>(cpuCycles_)
                      : 0.0;
}

bool
Core::traceDone() const
{
    return done_ && headSeq_ == tailSeq_;
}

void
Core::completeLoad(uint64_t seq)
{
    auto it = std::lower_bound(pendingLoads_.begin(), pendingLoads_.end(),
                               seq);
    if (it == pendingLoads_.end() || *it != seq)
        panic("Core %d: completion for unknown load %llu", cfg_.id,
              static_cast<unsigned long long>(seq));
    pendingLoads_.erase(it);
    due_ = nextDue();
}

bool
Core::cpuCycle(SendRef send)
{
    // Retire the ready prefix, up to issueWidth entries.
    uint64_t ready_end =
        pendingLoads_.empty() ? tailSeq_ : pendingLoads_.front();
    uint64_t retire =
        std::min<uint64_t>(cfg_.issueWidth, ready_end - headSeq_);
    headSeq_ += retire;
    retired_ += retire;

    uint32_t issued = 0;
    while (issued < cfg_.issueWidth && !done_) {
        if (bubblesLeft_ > 0) {
            uint32_t run = std::min({bubblesLeft_,
                                     cfg_.issueWidth - issued,
                                     windowFree()});
            if (run == 0)
                break; // window full
            tailSeq_ += run;
            bubblesLeft_ -= run;
            issued += run;
            continue;
        }

        const TraceEntry &e = trace_.entries[tracePos_];
        MemRequest req;
        req.addr = e.addr;
        req.isWrite = e.isWrite;
        req.coreId = cfg_.id;
        if (e.isWrite) {
            if (!send(req))
                break; // write queue full: stall this cycle
            ++retired_; // stores are posted and retire immediately
        } else {
            if (windowFree() == 0 || pendingLoads_.size() >= cfg_.mshrs)
                break;
            req.seq = tailSeq_;
            if (!send(req))
                break;
            pendingLoads_.push_back(tailSeq_++);
        }
        ++issued;

        // Advance to the next trace record.
        ++tracePos_;
        if (tracePos_ >= trace_.entries.size()) {
            if (loop_) {
                tracePos_ = 0;
            } else {
                done_ = true;
                break;
            }
        }
        bubblesLeft_ = trace_.entries[tracePos_].bubbles;
    }
    return retire > 0 || issued > 0;
}

Cycle
Core::cycleOfCpuCycle(uint64_t n) const
{
    // CPU cycle n runs in the first controller cycle c with
    // cpuCyclesAt(c + 1) >= n, i.e. c + 1 = ceil(n * 2^k / M).
    using u128 = unsigned __int128;
    u128 scaled = static_cast<u128>(n) << clockShift_;
    u128 cycle = (scaled + clockMul_ - 1) / clockMul_ - 1;
    return cycle >= kNever ? kNever : static_cast<Cycle>(cycle);
}

bool
Core::blocked() const
{
    uint64_t ready_end =
        pendingLoads_.empty() ? tailSeq_ : pendingLoads_.front();
    if (ready_end != headSeq_)
        return false; // it can retire
    if (done_)
        return true;
    if (bubblesLeft_ > 0)
        return windowFree() == 0;
    // Stores are posted, so only a load can wait for room.
    const TraceEntry &e = trace_.entries[tracePos_];
    return !e.isWrite &&
           (windowFree() == 0 || pendingLoads_.size() >= cfg_.mshrs);
}

Cycle
Core::nextDue() const
{
    if (done_ || blocked())
        return kNever;
    // While the first pending load waits, the tail cannot pass it by
    // more than the window: bubbles beyond that keep the core from
    // the next record until a completion re-arms it.
    if (!pendingLoads_.empty() &&
        bubblesLeft_ > pendingLoads_.front() + cfg_.windowSize - tailSeq_)
        return kNever;
    // A CPU cycle issues at most issueWidth bubbles, so the first
    // bubblesLeft / issueWidth cycles cannot reach the next record.
    // runQuiet needs a window at least as wide as the issue width;
    // narrower cores are due every CPU cycle.
    uint64_t quiet = cfg_.windowSize >= cfg_.issueWidth
                         ? bubblesLeft_ / cfg_.issueWidth
                         : 0;
    return cycleOfCpuCycle(cpuCycles_ + quiet + 1);
}

void
Core::runQuiet(uint64_t n)
{
    // None of the n cycles runs out of bubbles: either n <=
    // bubblesLeft / issueWidth, or a pending load holds the tail to
    // fewer bubbles than are left (nextDue). None sends, so only the
    // window and the first pending load bound the ranges.
    const uint64_t w = cfg_.issueWidth;
    uint64_t head;
    uint64_t tail = tailSeq_;
    if (!pendingLoads_.empty()) {
        head = std::min(headSeq_ + w * n, pendingLoads_.front());
        if (!done_)
            tail = std::min(tailSeq_ + w * n, head + cfg_.windowSize);
    } else if (done_) {
        head = std::min(headSeq_ + w * n, tailSeq_);
    } else {
        // The first cycle retires what is in the window (at most w);
        // from then on w retire and w issue every cycle.
        head = headSeq_ + std::min(w, tailSeq_ - headSeq_) + w * (n - 1);
        tail = tailSeq_ + w * n;
    }
    bubblesLeft_ -= static_cast<uint32_t>(tail - tailSeq_);
    retired_ += head - headSeq_;
    headSeq_ = head;
    tailSeq_ = tail;
}

void
Core::advanceTo(Cycle cycle)
{
    if (cycle <= now_)
        return;
    if (cycle > due_)
        panic("Core %d: advanceTo(%llu) passes its due cycle %llu",
              cfg_.id, static_cast<unsigned long long>(cycle),
              static_cast<unsigned long long>(due_));
    uint64_t cycles = cpuCyclesAt(cycle);
    uint64_t n = cycles - cpuCycles_;
    now_ = cycle;
    cpuCycles_ = cycles;
    // A blocked core is a fixed point: its clock alone runs.
    if (n > 0 && !blocked())
        runQuiet(n);
}

void
Core::tick(SendRef send)
{
    uint64_t cycles = cpuCyclesAt(now_ + 1) - cpuCycles_;
    cpuCycles_ += cycles;
    ++now_;
    // A CPU cycle that does nothing leaves the core as it was, and
    // only a load completing or the hierarchy draining can change
    // that, both between ticks: the rest of the tick is stalls.
    for (uint64_t i = 0; i < cycles; ++i) {
        if (!cpuCycle(send))
            break;
    }
    due_ = nextDue();
}

} // namespace sim
} // namespace reaper
