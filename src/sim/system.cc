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

System::System(const SystemConfig &cfg, const std::vector<Trace> &traces)
    : cfg_(cfg), llc_(cfg.llc)
{
    if (traces.empty())
        panic("System: need at least one trace");
    if (cfg.channels == 0)
        panic("System: need at least one channel");
    for (size_t i = 0; i < traces.size(); ++i) {
        CoreConfig cc = cfg.core;
        cc.id = static_cast<int>(i);
        cores_.push_back(std::make_unique<Core>(cc, traces[i]));
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
    MemoryController &ch = *channels_[d.channel];
    if (ch.now() < now_)
        ch.sleepUntil(now_);
    return ch.enqueue(req, d);
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

Cycle
System::nextEvent(Cycle end) const
{
    if (!wbBuffer_.empty())
        return now_;
    Cycle next = end;
    if (!hitQueue_.empty())
        next = std::min(next, hitQueue_.front().at);
    for (const auto &core : cores_)
        next = std::min(next, core->dueAt());
    for (const auto &ch : channels_)
        next = std::min(next, ch->wakeAt());
    return std::max(next, now_);
}

void
System::step()
{
    // Complete LLC hits whose latency elapsed; they reach the core
    // before its tick in this cycle.
    while (!hitQueue_.empty() && hitQueue_.front().at <= now_) {
        const HitCompletion &hit = hitQueue_.front();
        Core &core = *cores_[static_cast<size_t>(hit.coreId)];
        core.advanceTo(now_);
        core.completeLoad(hit.seq);
        hitQueue_.pop();
    }

    // Drain buffered writebacks into their channels.
    while (!wbBuffer_.empty()) {
        if (!sendToDram(wbBuffer_.front()))
            break;
        wbBuffer_.pop_front();
    }

    // Only due cores can send; the others would only retire and issue
    // bubbles, which advanceTo() accounts later in closed form.
    auto send = [this](const MemRequest &req) {
        return sendFromCore(req);
    };
    for (auto &core : cores_) {
        if (core->dueAt() > now_)
            continue;
        core->advanceTo(now_);
        core->tick(send);
    }
    // Reads that complete in a channel this cycle reach their core
    // after its tick in this cycle. A sleeping channel catches up when
    // it is next needed.
    for (auto &ch : channels_) {
        if (ch->wakeAt() > now_)
            continue;
        if (ch->now() < now_)
            ch->sleepUntil(now_);
        ch->tick();
        for (const MemRequest &req : ch->completedReads()) {
            Core &core = *cores_[static_cast<size_t>(req.coreId)];
            core.advanceTo(now_ + 1);
            core.completeLoad(req.seq);
        }
    }
    ++now_;
}

void
System::run(Cycle mem_cycles)
{
    Cycle end = now_ + mem_cycles;
    // Nothing happens between events: channels and cores catch up
    // when they are next needed.
    for (Cycle next = nextEvent(end); next < end; next = nextEvent(end)) {
        now_ = next;
        step();
    }
    for (auto &ch : channels_)
        ch->sleepUntil(end);
    for (auto &core : cores_)
        core->advanceTo(end);
    now_ = end;
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
