#include "sim/memctrl.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace reaper {
namespace sim {

MemoryController::MemoryController(const MemCtrlConfig &cfg)
    : cfg_(cfg), banks_(cfg.banks)
{
    if (cfg.banks == 0)
        panic("MemoryController: banks must be > 0");
    if (cfg.writeDrainLow >= cfg.writeDrainHigh)
        panic("MemoryController: writeDrainLow must be < writeDrainHigh");
    if (cfg.refreshWindowScale < 0)
        panic("MemoryController: negative refreshWindowScale");
    if (cfg.refreshWindowScale > 0) {
        double refi = static_cast<double>(cfg.timing.tREFI) *
                      cfg.refreshWindowScale;
        if (cfg.refreshGranularity == RefreshGranularity::PerBank) {
            // One bank per command: commands come banks-times as
            // often, each covering 1/banks of the rows.
            refi /= static_cast<double>(cfg.banks);
        }
        effectiveRefi_ = static_cast<Cycle>(std::llround(refi));
        refreshDue_ = effectiveRefi_;
    } else {
        effectiveRefi_ = 0; // no refresh
    }
}

bool
MemoryController::enqueue(const MemRequest &req, const DramAddr &dram)
{
    auto &queue = req.isWrite ? writeQueue_ : readQueue_;
    if (queue.size() >= cfg_.queueCapacity)
        return false;
    Entry e{req, dram};
    e.req.arrival = now_;
    queue.push_back(e);
    // Bank and bus state only change in a full tick, so until the next
    // one the new entry cannot issue before issuableAt(); the bound of
    // the others stands.
    commandAt_ = std::min(commandAt_, issuableAt(e, req.isWrite));
    wakeAt_ = std::min(wakeAt_, commandAt_);
    return true;
}

bool
MemoryController::hasPendingWork() const
{
    return !readQueue_.empty() || !writeQueue_.empty() ||
           !inflight_.empty();
}

bool
MemoryController::canActivate(const Bank &b) const
{
    if (now_ < b.nextAct || now_ < nextActChannel_)
        return false;
    if (actWindow_.size() >= 4 &&
        now_ < actWindow_.front() + cfg_.timing.tFAW)
        return false;
    return true;
}

void
MemoryController::issueActivate(Bank &b, uint64_t row)
{
    b.open = true;
    b.openRow = row;
    b.nextRead = std::max(b.nextRead, now_ + cfg_.timing.tRCD);
    b.nextWrite = std::max(b.nextWrite, now_ + cfg_.timing.tRCD);
    b.nextPre = std::max(b.nextPre, now_ + cfg_.timing.tRAS);
    b.nextAct = now_ + cfg_.timing.tRC;
    nextActChannel_ = now_ + cfg_.timing.tRRD;
    actWindow_.push_back(now_);
    while (actWindow_.size() > 4)
        actWindow_.pop_front();
    ++stats_.commands.act;
    commandIssued_ = true;
}

void
MemoryController::issuePrecharge(Bank &b)
{
    b.open = false;
    b.nextAct = std::max(b.nextAct, now_ + cfg_.timing.tRP);
    ++stats_.commands.pre;
    commandIssued_ = true;
}

void
MemoryController::maybeStartPerBankRefresh()
{
    if (now_ < refreshDue_ && pendingRefreshBank_ < 0)
        return;
    if (pendingRefreshBank_ < 0) {
        pendingRefreshBank_ = static_cast<int>(refreshBankRr_);
        refreshBankRr_ = (refreshBankRr_ + 1) % cfg_.banks;
    }
    Bank &b = banks_[static_cast<size_t>(pendingRefreshBank_)];
    if (b.open) {
        if (!commandIssued_ && now_ >= b.nextPre)
            issuePrecharge(b);
        return;
    }
    if (now_ < b.nextAct || commandIssued_)
        return; // still precharging (or busy from a prior refresh)
    b.nextAct = now_ + cfg_.timing.tRFCpb;
    refreshDue_ += effectiveRefi_;
    pendingRefreshBank_ = -1;
    ++stats_.commands.refpb;
    commandIssued_ = true;
}

void
MemoryController::maybeStartRefresh()
{
    if (effectiveRefi_ == 0)
        return;
    if (cfg_.refreshGranularity == RefreshGranularity::PerBank) {
        maybeStartPerBankRefresh();
        return;
    }
    if (now_ < refreshEndsAt_) {
        ++stats_.refreshStallCycles;
        return;
    }
    if (now_ < refreshDue_)
        return;
    refreshPending_ = true;

    // Close open banks as soon as their tRAS allows, then refresh.
    bool all_closed = true;
    for (Bank &b : banks_) {
        if (b.open) {
            all_closed = false;
            if (!commandIssued_ && now_ >= b.nextPre) {
                issuePrecharge(b);
                all_closed = std::all_of(
                    banks_.begin(), banks_.end(),
                    [](const Bank &x) { return !x.open; });
            }
            break;
        }
    }
    if (!all_closed)
        return;
    // All banks precharged: wait for tRP to elapse on the last PRE,
    // expressed through nextAct; the refresh occupies tRFCab.
    Cycle start = now_;
    for (const Bank &b : banks_)
        start = std::max(start, b.nextAct);
    if (start > now_)
        return; // banks still precharging
    if (commandIssued_)
        return;
    refreshEndsAt_ = now_ + cfg_.timing.tRFCab;
    for (Bank &b : banks_)
        b.nextAct = refreshEndsAt_;
    refreshDue_ += effectiveRefi_;
    refreshPending_ = false;
    ++stats_.commands.refab;
    commandIssued_ = true;
}

bool
MemoryController::serviceQueue(std::vector<Entry> &queue, bool is_write)
{
    if (queue.empty() || commandIssued_)
        return false;
    // While a refresh is waiting for banks to close, hold all request
    // traffic so tRAS/tRTP windows drain and the refresh can start.
    if (refreshPending_)
        return false;

    size_t scan_limit = scanLimit(queue);

    auto try_cas = [&](size_t idx) -> bool {
        Entry &e = queue[idx];
        if (static_cast<int>(e.dram.bank) == pendingRefreshBank_)
            return false; // bank draining for a per-bank refresh
        Bank &b = banks_[e.dram.bank];
        if (!b.open || b.openRow != e.dram.row)
            return false;
        Cycle ready = is_write ? b.nextWrite : b.nextRead;
        if (now_ < ready || now_ < busFreeAt_)
            return false;
        if (!is_write && now_ < readTurnaroundAt_)
            return false;

        const TimingParams &t = cfg_.timing;
        busFreeAt_ = now_ + t.tBURST;
        if (is_write) {
            ++stats_.commands.wr;
            ++stats_.writesServed;
            readTurnaroundAt_ = std::max(
                readTurnaroundAt_, now_ + t.tWL + t.tBURST + t.tWTR);
            b.nextPre = std::max(b.nextPre,
                                 now_ + t.tWL + t.tBURST + t.tWR);
        } else {
            ++stats_.commands.rd;
            ++stats_.readsServed;
            b.nextPre = std::max(b.nextPre, now_ + t.tRTP);
            Cycle done = now_ + t.tRL + t.tBURST;
            stats_.readLatencySum += done - e.req.arrival;
            inflight_.emplace(done, e.req);
        }
        b.nextRead = std::max(b.nextRead, now_ + t.tCCD);
        b.nextWrite = std::max(b.nextWrite, now_ + t.tCCD);

        if (cfg_.rowPolicy == RowPolicy::Closed) {
            // Approximate auto-precharge: close the row once the
            // access completes (timing is folded into nextAct).
            b.open = false;
            b.nextAct = std::max(b.nextAct, b.nextPre + t.tRP);
            ++stats_.commands.pre;
        }
        queue.erase(queue.begin() + static_cast<long>(idx));
        commandIssued_ = true;
        return true;
    };

    // Pass 1: oldest-first ready row hit.
    for (size_t i = 0; i < scan_limit; ++i) {
        if (try_cas(i))
            return true;
    }

    // Pass 2: progress the oldest request whose bank needs ACT/PRE.
    for (size_t i = 0; i < scan_limit; ++i) {
        Entry &e = queue[i];
        if (static_cast<int>(e.dram.bank) == pendingRefreshBank_)
            continue; // bank draining for a per-bank refresh
        Bank &b = banks_[e.dram.bank];
        if (b.open && b.openRow != e.dram.row) {
            // Row conflict: precharge when allowed (row hits to this
            // bank were already served in pass 1).
            if (now_ >= b.nextPre) {
                issuePrecharge(b);
                return true;
            }
            continue;
        }
        if (!b.open && canActivate(b)) {
            issueActivate(b, e.dram.row);
            return true;
        }
    }
    return false;
}

size_t
MemoryController::scanLimit(const std::vector<Entry> &queue) const
{
    // FR-FCFS scans the whole queue for ready row hits; plain FCFS
    // only ever considers the oldest request.
    return cfg_.scheduler == SchedulerPolicy::Fcfs
               ? std::min<size_t>(1, queue.size())
               : queue.size();
}

Cycle
MemoryController::issuableAt(const Entry &e, bool is_write) const
{
    const Bank &b = banks_[e.dram.bank];
    if (b.open && b.openRow == e.dram.row) {
        Cycle t = std::max(is_write ? b.nextWrite : b.nextRead,
                           busFreeAt_);
        return is_write ? t : std::max(t, readTurnaroundAt_);
    }
    if (b.open)
        return b.nextPre; // row conflict: PRE first
    Cycle t = std::max(b.nextAct, nextActChannel_);
    if (actWindow_.size() >= 4)
        t = std::max(t, actWindow_.front() + cfg_.timing.tFAW);
    return t;
}

Cycle
MemoryController::wakeBound() const
{
    Cycle wake = std::numeric_limits<Cycle>::max();
    // A refresh can act from refreshDue_ on, an all-bank one only
    // after the previous tRFCab. Once due, this term is in the past
    // and keeps the controller awake until the refresh issues.
    if (effectiveRefi_ != 0)
        wake = std::min(wake, std::max(refreshDue_, refreshEndsAt_));
    for (bool is_write : {false, true}) {
        const std::vector<Entry> &queue =
            is_write ? writeQueue_ : readQueue_;
        size_t scan_limit = scanLimit(queue);
        for (size_t i = 0; i < scan_limit; ++i)
            wake = std::min(wake, issuableAt(queue[i], is_write));
    }
    return std::max(wake, now_ + 1);
}

void
MemoryController::completeReads()
{
    while (!inflight_.empty() && inflight_.front().first <= now_) {
        completed_.push_back(inflight_.front().second);
        inflight_.pop();
    }
}

void
MemoryController::sleepUntil(Cycle until)
{
    // No command, completion or refresh action can happen before
    // wakeAt(); only an all-bank refresh's stall is counted.
    if (now_ < refreshEndsAt_)
        stats_.refreshStallCycles +=
            std::min(until, refreshEndsAt_) - now_;
    completed_.clear();
    now_ = until;
}

void
MemoryController::tick()
{
    if (now_ < wakeAt_) {
        sleepUntil(now_ + 1);
        return;
    }
    completed_.clear();
    completeReads();
    if (now_ < commandAt_) {
        // Reads completed, but no command or refresh action can
        // happen: only an all-bank refresh's stall is counted.
        if (now_ < refreshEndsAt_)
            ++stats_.refreshStallCycles;
        updateWake();
        ++now_;
        return;
    }

    commandIssued_ = false;
    maybeStartRefresh();

    if (!drainingWrites_ && writeQueue_.size() >= cfg_.writeDrainHigh)
        drainingWrites_ = true;
    if (drainingWrites_ && writeQueue_.size() <= cfg_.writeDrainLow)
        drainingWrites_ = false;
    // Opportunistic write drain when there is nothing else to do.
    bool drain = drainingWrites_ || readQueue_.empty();

    if (drain) {
        if (!serviceQueue(writeQueue_, true))
            serviceQueue(readQueue_, false);
    } else {
        if (!serviceQueue(readQueue_, false))
            serviceQueue(writeQueue_, true);
    }
    commandAt_ = wakeBound();
    // A drain that took the write queue to its low mark ends in the
    // next tick, unless writes arrive first: evaluate that tick in full.
    // Otherwise the queues only grow until the next full tick, which
    // then sets or keeps the drain flag as every tick between would.
    if (drainingWrites_ && writeQueue_.size() <= cfg_.writeDrainLow)
        commandAt_ = now_ + 1;
    updateWake();
    ++now_;
}

void
MemoryController::updateWake()
{
    wakeAt_ = inflight_.empty()
                  ? commandAt_
                  : std::min(commandAt_, inflight_.front().first);
}

} // namespace sim
} // namespace reaper
