/**
 * @file
 * Functional model of a single DRAM chip for retention testing.
 *
 * The device exposes exactly the host-visible operations a SoftMC-style
 * testing platform provides (write a data pattern, enable/disable
 * refresh, let time pass, read back and compare), plus an oracle
 * interface used ONLY by the evaluation harness to compute ground-truth
 * failing sets for coverage / false-positive metrics. Profilers must not
 * touch the oracle; the testbed::SoftMcHost wrapper enforces that
 * separation.
 *
 * Time is virtual: wait() advances a simulated clock, so a "6-day"
 * characterization (Fig. 3) completes in seconds of wall-clock time.
 *
 * Failure semantics: per (write, cell) the device derives a latent
 * failure time tau = mu_eff + sigma * z from a deterministic hash, where
 * z is standard normal. A cell's stored bit is lost once the accumulated
 * unrefreshed exposure (scaled to the reference temperature) reaches
 * tau. This makes repeated reads consistent and failure monotone in
 * exposure, while the marginal failure probability at exposure t is
 * exactly the paper's per-cell normal CDF (Fig. 6a).
 */

#ifndef REAPER_DRAM_DEVICE_H
#define REAPER_DRAM_DEVICE_H

#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "dram/data_pattern.h"
#include "dram/disturb_model.h"
#include "dram/geometry.h"
#include "dram/quantile_bracket.h"
#include "dram/retention_model.h"
#include "dram/vendor_model.h"

namespace reaper {
namespace dram {

/** Construction parameters of one simulated chip. */
struct DeviceConfig
{
    /** Chip capacity in bits (default: 2 GB = 16 Gib reference chip). */
    uint64_t capacityBits = 16ull * 1024 * 1024 * 1024;
    Vendor vendor = Vendor::B;
    uint64_t seed = 1;
    /** Conditions the chip must support being tested at. */
    TestEnvelope envelope{};
    /** Initial DRAM temperature. */
    Celsius initialTemp = kReferenceTemp;
    /**
     * Optional parameter override; when set, used instead of
     * vendorParams(vendor) (for chip-to-chip variation).
     */
    bool hasParamOverride = false;
    RetentionParams paramOverride{};
    /**
     * Optional disturbance-parameter override; when set, used instead
     * of vendorDisturbParams(vendor).
     */
    bool hasDisturbOverride = false;
    DisturbParams disturbOverride{};
};

/**
 * The static part of a chip: its weak cells and their 5-sigma reject
 * thresholds. A device builds it once from its seed and never changes
 * it, so every copy of the device shares it read-only.
 */
struct Population
{
    /** Sorted by mu. A cell's vrtState is its state at construction;
     *  each device carries the live state itself. */
    std::vector<WeakCell> cells;
    /**
     * reject[i] == mu - 5 * mu * sigmaRel of cells[i] (the 5-sigma
     * fast-reject threshold), flat for the SIMD candidate sweep and
     * computed with exactly the arithmetic of the per-cell scan.
     */
    std::vector<double> reject;
};

/**
 * One DRAM chip with a sparse stochastic weak-cell population.
 *
 * A device is a shared, read-only Population plus its own dynamic
 * state: VRT toggle states and their event queue, the RNG stream, VRT
 * arrivals, row activations, the written pattern and the exposure.
 * Copying a device shares the population and copies only the dynamic
 * state, so a copy of a freshly built device behaves exactly like
 * building it again, at a fraction of the cost.
 */
class DramDevice
{
  public:
    explicit DramDevice(const DeviceConfig &config);

    // ---- Host-visible operations (the SoftMC surface) ----

    /** Set the chip temperature (thermal chamber control). */
    void setTemperature(Celsius temp);
    Celsius temperature() const { return temp_; }

    /** Write the whole chip with a data pattern (restores all cells). */
    void writePattern(DataPattern p);

    /**
     * Restore the currently stored data in every cell (the effect of an
     * ECC scrub pass that reads, corrects, and writes back): unrefreshed
     * exposure resets while the stored data pattern stays the same, and
     * the stochastic per-cell failure draw is refreshed for the next
     * exposure window.
     */
    void restoreData();

    void disableRefresh();
    void enableRefresh();
    bool refreshEnabled() const { return refreshEnabled_; }

    /** Advance virtual time by dt seconds. */
    void wait(Seconds dt);

    /**
     * Activate every flat (bank-major) row in `rows` `count` times
     * each, accumulating row-disturbance pressure on their neighbors
     * (see DisturbModel). Counters persist until the stored data is
     * rewritten — writePattern() and restoreData() reset them, refresh
     * does not (a refresh restores charge lost to leakage, but the
     * model folds disturbance into the per-write window to stay
     * deterministic under the host's coarse time stepping). An
     * activated row's own cells are held refreshed by the activations,
     * so aggressor rows never observe disturb flips themselves.
     */
    void hammer(const std::vector<uint64_t> &rows, uint64_t count);

    /**
     * Read the whole chip and compare against the last written pattern.
     * @return flat bit addresses whose stored value was lost (sorted).
     */
    std::vector<uint64_t> readAndCompare();

    /**
     * Allocation-free variant of readAndCompare(): fills and returns a
     * reusable internal scratch buffer. The reference stays valid until
     * the next readAndCompare/readAndCompareInto call on this device.
     * This is the hot path of every characterization round; prefer it
     * in loops (DramModule uses it internally).
     */
    const std::vector<uint64_t> &readAndCompareInto();

    /** Current virtual time in seconds since construction. */
    Seconds now() const { return now_; }

    /** Unrefreshed exposure since the last write, in equivalent seconds
     *  at the reference temperature. */
    Seconds exposureEquivalent() const { return exposureEquiv_; }

    // ---- Oracle interface (evaluation harness only) ----

    const RetentionModel &model() const { return model_; }
    const Geometry &geometry() const { return geometry_; }
    const DeviceConfig &config() const { return config_; }

    /** The disturbance fault model (oracle for tests and benches). */
    const DisturbModel &disturbModel() const { return disturb_; }

    /** Accumulated activations of a flat row since the last write. */
    uint64_t rowActivations(uint64_t row_flat) const;

    /**
     * Ground truth: addresses of all cells whose worst-case-pattern
     * failure probability at (t_refi, temp) is at least pmin, including
     * currently active VRT arrivals. This is "the set of all possible
     * failing cells at the target conditions" of Section 1.
     */
    std::vector<uint64_t> trueFailingSet(Seconds t_refi, Celsius temp,
                                         double pmin = 0.05) const;

    /**
     * Allocation-free variant of trueFailingSet(): fills and returns a
     * reusable internal scratch buffer (invalidated by the next
     * trueFailingSet/trueFailingSetInto call).
     */
    const std::vector<uint64_t> &trueFailingSetInto(
        Seconds t_refi, Celsius temp, double pmin = 0.05) const;

    /**
     * Reference implementation of readAndCompare(): a straight port of
     * the original unoptimized read path (per-cell candidate scan over
     * the AoS weak-cell vector, no structure-of-arrays index, no
     * scratch reuse, no memoized temperature scales). Exists solely so
     * tests can pin the optimized path to it bit-for-bit; not for
     * production use.
     */
    std::vector<uint64_t> readAndCompareReference() const;

    /** Reference implementation of trueFailingSet() (see above). */
    std::vector<uint64_t> trueFailingSetReference(
        Seconds t_refi, Celsius temp, double pmin = 0.05) const;

    /**
     * How the current read's candidates are decided: `candidates`
     * counts the cells that pass the 5-sigma reject (weak cells and
     * active VRT arrivals), `exact` those whose quantile bracket cannot
     * settle the outcome, so the read evaluates normalQuantile for
     * them. A diagnostic for tests and bench_micro: it repeats the
     * candidate sweep of readAndCompareInto() and changes nothing.
     */
    struct ReadDecisionCensus
    {
        size_t candidates = 0;
        size_t exact = 0;
    };
    ReadDecisionCensus readDecisionCensus() const;

    /** Expected BER at (t, temp) from the closed-form model. */
    double expectedBer(Seconds t, Celsius temp) const;

    size_t weakCellCount() const { return pop_->cells.size(); }
    /** Bytes of the shared population: the cells and their reject
     *  thresholds (copies of the device share them). */
    size_t
    populationBytes() const
    {
        return pop_->cells.size() * sizeof(WeakCell) +
               pop_->reject.size() * sizeof(double);
    }
    size_t activeVrtCount() const { return vrtActive_.size(); }
    uint64_t writeCount() const { return writeNonce_; }
    DataPattern lastPattern() const { return pattern_; }

  private:
    struct VrtActive
    {
        WeakCell cell;
        double expiry; ///< absolute time at which the cell retreats
    };

    /** Advance VRT arrival/expiry and weak-cell toggling to now_. */
    void evolveDynamics(Seconds from, Seconds to);

    /** Latent failure exposure (equivalent s) of a cell for this write. */
    double latentFailureTime(const WeakCell &cell) const;

    /** Weak cell i with its live VRT state (oracle and reference
     *  paths, which evaluate whole cells). */
    WeakCell liveCell(size_t i) const;

    /** Bits of decideFailure()'s answer. */
    enum : unsigned
    {
        kDecidedFails = 1u, ///< the cell has lost its bit
        kDecidedExact = 2u, ///< the bracket left it to normalQuantile
    };

    /**
     * exposureEquiv_ >= latentFailureTime(cell), decided from the
     * quantile bracket of the cell's draw and evaluating the exact
     * expression only when the bracket cannot settle it (see device.cc
     * for why the outcome is identical).
     */
    unsigned decideFailure(const WeakCell &cell, uint8_t vrt_state,
                           const QuantileBracket *brackets) const;

    /** Call f(cell, vrt_state) for every weak cell and active VRT
     *  arrival that passes the 5-sigma reject at the current
     *  exposure. */
    template <typename F>
    void forEachCandidate(std::vector<uint32_t> &scratch, F &&f) const;

    /** Append failing addresses from a candidate cell if exposed. */
    void collectIfFailed(const WeakCell &cell,
                         std::vector<uint64_t> &out) const;

    /**
     * Append addresses flipped by accumulated row disturbance. Shared
     * by the optimized and reference read paths so they stay
     * bit-identical.
     */
    void collectDisturbFlips(std::vector<uint64_t> &out) const;

    /** Refresh the memoized temperature-dependent scale factors. */
    void updateTempCaches();

    /** Index of the first weak cell with mu above the candidate bound
     *  for an equivalent exposure t_equiv. */
    size_t candidateEnd(double t_equiv) const;

    DeviceConfig config_;
    RetentionModel model_;
    Geometry geometry_;
    DisturbModel disturb_;
    Rng rng_;

    /**
     * Activation counters of hammered rows since the last write,
     * keyed by flat row. Ordered so flip collection iterates in a
     * deterministic row order regardless of hammer call order.
     */
    std::map<uint64_t, uint64_t> rowActs_;
    mutable std::vector<VictimCell> victimScratch_;

    std::shared_ptr<const Population> pop_;
    /** Live VRT state of each population cell (0 = low retention). */
    std::vector<uint8_t> vrtState_;
    /** Reusable result buffers (see readAndCompareInto); the read
     *  output's radix sort ping-pongs between the two. */
    std::vector<uint64_t> readScratch_;
    std::vector<uint64_t> sortScratch_;
    /** Candidate indices surviving the batched fast-reject sweep. */
    std::vector<uint32_t> candScratch_;
    mutable std::vector<uint64_t> oracleScratch_;
    std::vector<VrtActive> vrtActive_;
    /** Toggle-event queue: (time, index into the population),
     *  min-heap. */
    using ToggleEvent = std::pair<double, uint32_t>;
    std::priority_queue<ToggleEvent, std::vector<ToggleEvent>,
                        std::greater<ToggleEvent>>
        toggleQueue_;

    Seconds muCapVrt_;   ///< envelope cap for VRT arrival mus
    double vrtRate_;     ///< total arrival rate (cells/s) within the cap

    // Memoized Arrhenius factors: recomputed only when temp_ changes
    // (setTemperature) instead of per wait()/per cell.
    double expScaleCur_ = 1.0;    ///< equivalentExposureScale(temp_)
    double sigmaNarrowCur_ = 1.0; ///< sigmaNarrowScale(temp_)
    double maxEquivExposure_ = 0; ///< envelope cap on equivalent exposure

    /** Every DPD factor is >= 1 (dpdMaxFactor >= 1): the unit-factor
     *  bound of decideFailure() holds. */
    bool unitFactorBound_ = true;

    Seconds now_ = 0.0;
    Celsius temp_;
    bool refreshEnabled_ = true;
    bool dataValid_ = false;
    Seconds exposureEquiv_ = 0.0;
    DataPattern pattern_ = DataPattern::Solid0;
    uint64_t writeNonce_ = 0;    ///< identifies the written content
    uint64_t exposureNonce_ = 0; ///< identifies the exposure window
};

} // namespace dram
} // namespace reaper

#endif // REAPER_DRAM_DEVICE_H
