#include "dram/module.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace reaper {
namespace dram {

DramModule::DramModule(const ModuleConfig &config) : config_(config)
{
    if (config.numChips == 0)
        panic("DramModule: numChips must be > 0");
    Rng seeder(config.seed);
    chips_.reserve(config.numChips);
    for (uint32_t i = 0; i < config.numChips; ++i) {
        DeviceConfig dc;
        dc.capacityBits = config.chipCapacityBits;
        dc.vendor = config.vendor;
        dc.seed = seeder();
        dc.envelope = config.envelope;
        dc.initialTemp = config.initialTemp;
        if (config.hasParamOverride || config.chipVariation > 0 ||
            config.vrtRateScale != 1.0) {
            RetentionParams p = config.hasParamOverride
                                    ? config.paramOverride
                                    : vendorParams(config.vendor);
            if (config.chipVariation > 0) {
                p.berAt1024ms *=
                    seeder.lognormal(0.0, config.chipVariation);
                p.vrtRateAt1024ms *=
                    seeder.lognormal(0.0, 2.0 * config.chipVariation);
            }
            p.vrtRateAt1024ms *= config.vrtRateScale;
            dc.hasParamOverride = true;
            dc.paramOverride = p;
        }
        chips_.emplace_back(dc);
    }
}

void
DramModule::setTemperature(Celsius temp)
{
    for (auto &c : chips_)
        c.setTemperature(temp);
}

void
DramModule::writePattern(DataPattern p)
{
    for (auto &c : chips_)
        c.writePattern(p);
}

void
DramModule::restoreData()
{
    for (auto &c : chips_)
        c.restoreData();
}

void
DramModule::disableRefresh()
{
    for (auto &c : chips_)
        c.disableRefresh();
}

void
DramModule::enableRefresh()
{
    for (auto &c : chips_)
        c.enableRefresh();
}

void
DramModule::wait(Seconds dt)
{
    for (auto &c : chips_)
        c.wait(dt);
}

void
DramModule::hammer(const std::vector<uint64_t> &rows, uint64_t count)
{
    for (auto &c : chips_)
        c.hammer(rows, count);
}

std::vector<ChipFailure>
DramModule::readAndCompare()
{
    std::vector<ChipFailure> out;
    for (uint32_t i = 0; i < numChips(); ++i) {
        // The per-chip scratch buffer avoids a vector allocation per
        // chip per round on the characterization hot path.
        const std::vector<uint64_t> &addrs = chips_[i].readAndCompareInto();
        out.reserve(out.size() + addrs.size());
        for (uint64_t addr : addrs)
            out.push_back({i, addr});
    }
    return out; // per-chip results are sorted; chips visited in order
}

std::vector<ChipFailure>
DramModule::trueFailingSet(Seconds t_refi, Celsius temp, double pmin) const
{
    std::vector<ChipFailure> out;
    for (uint32_t i = 0; i < numChips(); ++i) {
        for (uint64_t addr :
             chips_[i].trueFailingSetInto(t_refi, temp, pmin))
            out.push_back({i, addr});
    }
    return out;
}

Seconds
DramModule::now() const
{
    return chips_.empty() ? 0.0 : chips_.front().now();
}

} // namespace dram
} // namespace reaper
