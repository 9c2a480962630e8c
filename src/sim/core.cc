#include "sim/core.h"

#include <algorithm>

#include "common/logging.h"

namespace reaper {
namespace sim {

Core::Core(const CoreConfig &cfg, const Trace &trace, bool loop)
    : cfg_(cfg), trace_(trace), loop_(loop)
{
    if (cfg.windowSize == 0 || cfg.issueWidth == 0)
        panic("Core: windowSize and issueWidth must be > 0");
    if (cfg.cpuPerMemCycle <= 0)
        panic("Core: cpuPerMemCycle must be > 0");
    pendingLoads_.reserve(cfg.mshrs);
    if (trace_.entries.empty()) {
        done_ = true;
    } else {
        bubblesLeft_ = trace_.entries.front().bubbles;
    }
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

uint32_t
Core::takeCpuCycles()
{
    // Subtracting whole cycles from a non-negative credit is exact, so
    // this equals taking one cycle at a time while the credit lasts.
    cpuCredit_ += cfg_.cpuPerMemCycle;
    uint32_t cycles = static_cast<uint32_t>(cpuCredit_);
    cpuCredit_ -= cycles;
    return cycles;
}

bool
Core::tick(SendRef send)
{
    uint32_t cycles = takeCpuCycles();
    cpuCycles_ += cycles;
    // A CPU cycle that does nothing leaves the core as it was, and
    // only a load completing or the hierarchy draining can change
    // that, both between ticks: the rest of the tick is stalls.
    uint32_t ran = 0;
    while (ran < cycles) {
        ++ran;
        if (!cpuCycle(send))
            return ran == 1;
    }
    return false;
}

void
Core::stallFor(Cycle ticks)
{
    for (Cycle i = 0; i < ticks; ++i)
        cpuCycles_ += takeCpuCycles();
}

} // namespace sim
} // namespace reaper
