#include "sim/system.h"

#include <algorithm>

#include "common/logging.h"
#include "common/units.h"

namespace reaper {
namespace sim {

void
SystemConfig::setDram(unsigned chip_gbit, Seconds refresh_interval)
{
    ctrl.timing = lpddr4_3200(chip_gbit);
    ctrl.refreshWindowScale =
        refresh_interval > 0 ? refresh_interval / kJedecRefreshInterval
                             : 0.0;
    uint64_t chip_bits = gibitToBits(chip_gbit);
    ctrl.rowsPerBank =
        chip_bits / (uint64_t{ctrl.banks} * ctrl.rowBytes * 8);
}

double
SystemStats::ipcSum() const
{
    double sum = 0;
    for (double v : coreIpc)
        sum += v;
    return sum;
}

System::System(const SystemConfig &cfg, std::vector<Trace> traces)
    : cfg_(cfg), traces_(std::move(traces)), llc_(cfg.llc)
{
    if (traces_.empty())
        panic("System: need at least one trace");
    if (cfg.channels == 0)
        panic("System: need at least one channel");
    for (size_t i = 0; i < traces_.size(); ++i) {
        CoreConfig cc = cfg.core;
        cc.id = static_cast<int>(i);
        cores_.push_back(std::make_unique<Core>(cc, traces_[i]));
    }
    for (uint32_t c = 0; c < cfg.channels; ++c)
        channels_.push_back(std::make_unique<MemoryController>(cfg.ctrl));
}

DramAddr
System::decode(uint64_t addr) const
{
    uint64_t line = addr / cfg_.llc.lineBytes;
    DramAddr d;
    d.channel = static_cast<uint32_t>(line % cfg_.channels);
    uint64_t in_channel = line / cfg_.channels;
    uint64_t lines_per_row = cfg_.ctrl.rowBytes / cfg_.llc.lineBytes;
    d.col = static_cast<uint32_t>(in_channel % lines_per_row);
    uint64_t row_flat = in_channel / lines_per_row;
    d.bank = static_cast<uint32_t>(row_flat % cfg_.ctrl.banks);
    d.row = (row_flat / cfg_.ctrl.banks) % cfg_.ctrl.rowsPerBank;
    return d;
}

bool
System::sendToDram(const MemRequest &req)
{
    DramAddr d = decode(req.addr);
    return channels_[d.channel]->enqueue(req, d);
}

bool
System::sendFromCore(const MemRequest &req)
{
    size_t line = llc_.lookup(req.addr);
    if (line != Cache::kNoLine) {
        llc_.touch(line, req.isWrite);
        if (!req.isWrite) {
            hitQueue_.push(
                {now_ + cfg_.llc.hitLatency, req.coreId, req.seq});
        }
        return true;
    }
    if (!req.isWrite) {
        // Read miss: the fill must reach DRAM before we commit the
        // allocation, so a full queue stalls the core without side
        // effects.
        if (!sendToDram(req))
            return false;
    }
    // Allocate (write misses overwrite the whole line: no fetch).
    CacheAccess result = llc_.allocate(req.addr, req.isWrite);
    if (result.writeback) {
        MemRequest wb;
        wb.addr = result.writebackAddr;
        wb.isWrite = true;
        wb.coreId = req.coreId;
        wbBuffer_.push_back(wb);
    }
    return true;
}

void
System::tick()
{
    step();
}

bool
System::step()
{
    // Complete LLC hits whose latency elapsed.
    while (!hitQueue_.empty() && hitQueue_.front().at <= now_) {
        const HitCompletion &hit = hitQueue_.front();
        cores_[static_cast<size_t>(hit.coreId)]->completeLoad(hit.seq);
        hitQueue_.pop();
    }

    // Drain buffered writebacks into their channels.
    while (!wbBuffer_.empty()) {
        if (!sendToDram(wbBuffer_.front()))
            break;
        wbBuffer_.pop_front();
    }

    auto send = [this](const MemRequest &req) {
        return sendFromCore(req);
    };
    bool quiescent = wbBuffer_.empty();
    for (auto &core : cores_)
        quiescent = core->tick(send) && quiescent;
    // Reads that complete in a channel this cycle reach their core
    // before its next tick.
    for (auto &ch : channels_) {
        ch->tick();
        for (const MemRequest &req : ch->completedReads()) {
            cores_[static_cast<size_t>(req.coreId)]->completeLoad(
                req.seq);
            quiescent = false;
        }
    }
    ++now_;
    return quiescent;
}

void
System::run(Cycle mem_cycles)
{
    Cycle end = now_ + mem_cycles;
    while (now_ < end) {
        if (!step())
            continue;
        // Quiescent: nothing changes until a hit completes or a
        // channel acts, so skip to the first of those in one step.
        Cycle until = end;
        if (!hitQueue_.empty())
            until = std::min(until, hitQueue_.front().at);
        for (const auto &ch : channels_)
            until = std::min(until, ch->wakeAt());
        for (auto &core : cores_)
            core->stallFor(until - now_);
        for (auto &ch : channels_)
            ch->sleepUntil(until);
        now_ = until;
    }
}

SystemStats
System::stats() const
{
    SystemStats s;
    for (const auto &core : cores_) {
        s.coreIpc.push_back(core->ipc());
        s.coreInsts.push_back(core->retiredInstructions());
    }
    s.memCycles = now_;
    s.simulatedSeconds = cfg_.ctrl.timing.cyclesToSec(now_);
    s.llc = llc_.stats();
    for (const auto &ch : channels_) {
        const MemCtrlStats &c = ch->stats();
        s.channels.commands.act += c.commands.act;
        s.channels.commands.pre += c.commands.pre;
        s.channels.commands.rd += c.commands.rd;
        s.channels.commands.wr += c.commands.wr;
        s.channels.commands.refab += c.commands.refab;
        s.channels.commands.refpb += c.commands.refpb;
        s.channels.readsServed += c.readsServed;
        s.channels.writesServed += c.writesServed;
        s.channels.refreshStallCycles += c.refreshStallCycles;
        s.channels.readLatencySum += c.readLatencySum;
    }
    s.avgReadLatency =
        s.channels.readsServed
            ? static_cast<double>(s.channels.readLatencySum) /
                  static_cast<double>(s.channels.readsServed)
            : 0.0;
    return s;
}

} // namespace sim
} // namespace reaper
