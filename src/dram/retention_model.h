/**
 * @file
 * Statistical retention model of one DRAM chip.
 *
 * The model encodes the paper's experimental observations:
 *
 *  - aggregate retention-time tail: the fraction of cells whose retention
 *    mean is below t follows a power law F(t) = K * t^p at the reference
 *    temperature (Fig. 2's polynomially growing BER);
 *  - temperature: failure rates scale as exp(k dT) (Eq. 1), which in
 *    retention-time space shifts every cell's mean by exp(-(k/p) dT);
 *  - per-cell failure CDF: each cell fails with probability
 *    Phi((t - mu_eff) / sigma_eff) at exposure time t (Fig. 6a), with the
 *    relative spread sigma/mu lognormally distributed (Fig. 6b) and
 *    narrowing at higher temperature (Fig. 7);
 *  - data-pattern dependence: a cell's effective retention mean is its
 *    worst-case mean times a pattern-class factor >= 1; the factor for
 *    random data is redrawn on every write (Section 5.4).
 */

#ifndef REAPER_DRAM_RETENTION_MODEL_H
#define REAPER_DRAM_RETENTION_MODEL_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "dram/data_pattern.h"
#include "dram/vendor_model.h"

namespace reaper {
namespace dram {

/**
 * One cell of the sparse weak-cell population. All static parameters are
 * expressed at the reference temperature and for the cell's worst-case
 * data pattern; vrtState is the two-state VRT state the model evaluates
 * the cell in.
 */
struct WeakCell
{
    uint64_t addr = 0;      ///< flat bit index within the chip
    float mu = 0.f;         ///< retention mean (s) at reference conditions
    float sigmaRel = 0.f;   ///< sigma / mu at reference conditions
    uint32_t dpdSeed = 0;   ///< per-cell deterministic DPD stream
    uint8_t worstClass = 0; ///< pattern class with factor 1.0;
                            ///< kNumDataPatterns means "random-only"
    bool togglesVrt = false; ///< weak-cell two-state VRT toggler
    uint8_t vrtState = 0;    ///< 0 = low-retention state, 1 = high
    float vrtFactor = 1.f;   ///< retention multiplier of the high state
};

/** Marker class index for cells whose worst pattern is not static. */
constexpr uint8_t kRandomOnlyClass = kNumDataPatterns;

/**
 * Conditions the device must be prepared to be tested at. The weak-cell
 * population is sampled once, for the envelope; querying beyond it would
 * under-count failures, so the device rejects such requests.
 */
struct TestEnvelope
{
    Seconds maxInterval = 4.2;   ///< longest refresh interval tested
    Celsius maxTemperature = 58; ///< hottest test temperature
};

/** Closed-form statistical machinery shared by device and oracle. */
class RetentionModel
{
  public:
    RetentionModel(const RetentionParams &params,
                   Celsius reference_temp = kReferenceTemp);

    const RetentionParams &params() const { return params_; }
    Celsius referenceTemp() const { return refTemp_; }

    /** Tail CDF of retention means at the reference temperature. */
    double tailCdf(Seconds mu) const;

    /** Inverse of tailCdf. */
    Seconds inverseTailCdf(double f) const;

    /** Expected bit error rate at exposure t and temperature temp. */
    double berAt(Seconds t, Celsius temp) const;

    /**
     * Multiplier applied to a wall-clock exposure to express it at the
     * reference temperature: exp((k/p) dT). Exposing a cell for t at
     * temp is equivalent to t * equivalentExposureScale(temp) at the
     * reference temperature.
     */
    double equivalentExposureScale(Celsius temp) const;

    /** Extra CDF narrowing factor at temp (Fig. 7), <= 1 above ref. */
    double sigmaNarrowScale(Celsius temp) const;

    /**
     * DPD retention multiplier of a cell for one written pattern.
     * @param cell the cell
     * @param p the written data pattern
     * @param write_nonce unique id of the write (random patterns redraw)
     */
    double dpdFactor(const WeakCell &cell, DataPattern p,
                     uint64_t write_nonce) const;

    /** The smallest factor any single written pattern can achieve. */
    double worstCaseDpdFactor(const WeakCell &cell) const;

    /**
     * Probability that a cell loses its data when exposed without
     * refresh for equivalent time t_equiv (already scaled to reference
     * temperature) under retention multiplier `factor`, with CDF
     * narrowing for the physical temperature.
     */
    double failureProbability(const WeakCell &cell, Seconds t_equiv,
                              Celsius temp, double factor) const;

    /**
     * failureProbability with the temperature's CDF-narrowing factor
     * precomputed by the caller (sigma_narrow = sigmaNarrowScale(temp)).
     * Lets a scan over many cells at one temperature hoist the Arrhenius
     * exponential out of the per-cell loop; numerically identical to
     * failureProbability.
     */
    double failureProbabilityNarrowed(const WeakCell &cell,
                                      Seconds t_equiv,
                                      double sigma_narrow,
                                      double factor) const;

    /** Convenience: worst-case-pattern failure probability at (t, temp). */
    double worstCaseFailureProbability(const WeakCell &cell, Seconds t,
                                       Celsius temp) const;

    /**
     * Sample the weak-cell population of a chip with capacity_bits cells
     * for the given test envelope. Cells are returned sorted by mu.
     */
    std::vector<WeakCell> sampleWeakPopulation(uint64_t capacity_bits,
                                               const TestEnvelope &env,
                                               Rng &rng) const;

    /** Largest reference-temp retention mean covered by the envelope. */
    Seconds envelopeMuCap(const TestEnvelope &env) const;

    /**
     * VRT arrival-rate integral: arrivals per second (per chip of
     * capacity_bits) of newly low-retention cells with retention mean
     * (at reference temperature) at or below mu.
     */
    double vrtCumulativeRate(Seconds mu, uint64_t capacity_bits) const;

    /** Inverse of vrtCumulativeRate's mu-dependence for sampling. */
    Seconds sampleVrtMu(Seconds mu_cap, Rng &rng) const;

    /** Sample one arrival's full cell parameters (addr left to caller). */
    WeakCell sampleVrtArrival(Seconds mu_cap, Rng &rng) const;

    /** Fill in sigmaRel/DPD/toggle fields of a freshly sampled cell. */
    void populateCellStatics(WeakCell &cell, Rng &rng) const;

  private:
    RetentionParams params_;
    Celsius refTemp_;
    double tailK_; ///< K in F(t) = K t^p, derived from berAt1024ms
};

} // namespace dram
} // namespace reaper

#endif // REAPER_DRAM_RETENTION_MODEL_H
