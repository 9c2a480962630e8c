/**
 * @file
 * A DRAM module: several chips operated in lockstep, with chip-to-chip
 * parameter variation around the vendor's nominal model (the paper
 * emphasizes that reliable operation requires per-chip characterization,
 * Section 6.3).
 */

#ifndef REAPER_DRAM_MODULE_H
#define REAPER_DRAM_MODULE_H

#include <vector>

#include "dram/device.h"

namespace reaper {
namespace dram {

/** A failing cell identified by chip index and flat bit address. */
struct ChipFailure
{
    uint32_t chip = 0;
    uint64_t addr = 0;

    bool
    operator==(const ChipFailure &o) const
    {
        return chip == o.chip && addr == o.addr;
    }
    bool
    operator<(const ChipFailure &o) const
    {
        return chip != o.chip ? chip < o.chip : addr < o.addr;
    }
};

/** Construction parameters of a module. */
struct ModuleConfig
{
    uint32_t numChips = 1;
    uint64_t chipCapacityBits = 16ull * 1024 * 1024 * 1024; // 2 GB
    Vendor vendor = Vendor::B;
    uint64_t seed = 1;
    TestEnvelope envelope{};
    Celsius initialTemp = kReferenceTemp;
    /**
     * Relative lognormal spread of per-chip BER and VRT-rate parameters
     * around the vendor nominal (0 disables variation).
     */
    double chipVariation = 0.15;
    /**
     * Multiplier on the VRT arrival rate (1 = vendor nominal). Setting
     * 0 disables VRT arrivals entirely - used by characterization
     * benches as a control population to isolate the VRT contribution,
     * and by the VRT ablation study.
     */
    double vrtRateScale = 1.0;
    /**
     * Full parameter override (applied before chip variation and the
     * VRT scale). Used by ablation studies to perturb single model
     * parameters; normal use derives parameters from `vendor`.
     */
    bool hasParamOverride = false;
    RetentionParams paramOverride{};
};

/**
 * N chips tested in lockstep, as on a real DIMM/package.
 *
 * Chips are held by value, so copying a module copies every chip: the
 * copies share each chip's read-only weak-cell population and own
 * their dynamic state (see DramDevice). A copy of a freshly built
 * module behaves exactly like building it again from the same config,
 * and nothing either one does later reaches the other.
 */
class DramModule
{
  public:
    explicit DramModule(const ModuleConfig &config);

    uint32_t numChips() const { return static_cast<uint32_t>(chips_.size()); }
    DramDevice &chip(uint32_t i) { return chips_.at(i); }
    const DramDevice &chip(uint32_t i) const { return chips_.at(i); }

    uint64_t
    capacityBits() const
    {
        return config_.chipCapacityBits * numChips();
    }
    const ModuleConfig &config() const { return config_; }

    // Broadcast host operations across all chips.
    void setTemperature(Celsius temp);
    void writePattern(DataPattern p);
    /** Restore stored data in every chip (ECC-scrub write-back). */
    void restoreData();
    void disableRefresh();
    void enableRefresh();
    void wait(Seconds dt);
    /** Hammer the given flat rows `count` times each, on every chip
     *  (chips operate in lockstep, sharing the command bus). */
    void hammer(const std::vector<uint64_t> &rows, uint64_t count);

    /** Read and compare every chip; results sorted by (chip, addr). */
    std::vector<ChipFailure> readAndCompare();

    /** Ground-truth failing set across all chips. */
    std::vector<ChipFailure> trueFailingSet(Seconds t_refi, Celsius temp,
                                            double pmin = 0.05) const;

    /** Virtual time (identical across chips). */
    Seconds now() const;

  private:
    ModuleConfig config_;
    std::vector<DramDevice> chips_;
};

} // namespace dram
} // namespace reaper

#endif // REAPER_DRAM_MODULE_H
