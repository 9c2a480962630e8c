#include "dram/device.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"
#include "dram/quantile_bracket.h"
#include "simd/words.h"

namespace reaper {
namespace dram {

namespace {

inline double
toUniform(uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** The 5-sigma fast-reject threshold mu - 5 * mu * sigmaRel: a cell
 *  whose threshold lies above the exposure cannot have failed. */
inline double
rejectThreshold(const WeakCell &c)
{
    double mu = static_cast<double>(c.mu);
    double sigma = mu * static_cast<double>(c.sigmaRel);
    return mu - 5.0 * sigma;
}

/**
 * Sort `keys` ascending: an LSD radix sort over 11-bit digits, with as
 * many passes as the highest set bit of any key needs (3 below 2^33),
 * ping-ponging through `tmp`. The result may end up in either buffer's
 * storage; `keys` holds it on return.
 */
void
radixSort(std::vector<uint64_t> &keys, std::vector<uint64_t> &tmp)
{
    constexpr unsigned kDigitBits = 11;
    constexpr uint64_t kMask = (uint64_t{1} << kDigitBits) - 1;
    uint64_t all = 0;
    for (uint64_t k : keys)
        all |= k;
    const unsigned passes =
        (std::bit_width(all) + kDigitBits - 1) / kDigitBits;
    tmp.resize(keys.size());
    for (unsigned pass = 0; pass < passes; ++pass) {
        const unsigned shift = pass * kDigitBits;
        std::array<size_t, kMask + 1> offset{};
        for (uint64_t k : keys)
            ++offset[(k >> shift) & kMask];
        size_t sum = 0;
        for (size_t &o : offset)
            sum += std::exchange(o, sum);
        for (uint64_t k : keys)
            tmp[offset[(k >> shift) & kMask]++] = k;
        keys.swap(tmp);
    }
}

} // namespace

DramDevice::DramDevice(const DeviceConfig &config)
    : config_(config),
      model_(config.hasParamOverride ? config.paramOverride
                                     : vendorParams(config.vendor)),
      geometry_(Geometry::forCapacityBits(config.capacityBits)),
      disturb_(config.hasDisturbOverride
                   ? config.disturbOverride
                   : vendorDisturbParams(config.vendor),
               geometry_, config.seed),
      rng_(config.seed),
      temp_(config.initialTemp)
{
    auto pop = std::make_shared<Population>();
    pop->cells = model_.sampleWeakPopulation(config.capacityBits,
                                             config.envelope, rng_);
    const std::vector<WeakCell> &cells = pop->cells;
    vrtState_.resize(cells.size());
    for (uint32_t i = 0; i < cells.size(); ++i) {
        vrtState_[i] = cells[i].vrtState;
        if (cells[i].togglesVrt) {
            double dwell = model_.params().weakVrtDwellMeanHours * 3600.0;
            toggleQueue_.emplace(rng_.exponentialMean(dwell), i);
        }
    }
    muCapVrt_ = model_.envelopeMuCap(config.envelope);
    vrtRate_ = model_.vrtCumulativeRate(muCapVrt_, config.capacityBits);

    // SoA reject array: same double arithmetic as the per-cell scan it
    // replaces (see collectIfFailed), so scan results are identical.
    pop->reject.reserve(cells.size());
    for (const WeakCell &c : cells)
        pop->reject.push_back(rejectThreshold(c));
    pop_ = std::move(pop);
    unitFactorBound_ = model_.params().dpdMaxFactor >= 1.0;

    maxEquivExposure_ = config_.envelope.maxInterval *
                        model_.equivalentExposureScale(
                            config_.envelope.maxTemperature);
    updateTempCaches();
}

void
DramDevice::updateTempCaches()
{
    expScaleCur_ = model_.equivalentExposureScale(temp_);
    sigmaNarrowCur_ = model_.sigmaNarrowScale(temp_);
}

void
DramDevice::setTemperature(Celsius temp)
{
    temp_ = temp;
    if (temp > config_.envelope.maxTemperature + 1e-9) {
        fatal("DramDevice: temperature %.1f exceeds test envelope max "
              "%.1f; construct the device with a wider envelope",
              temp, config_.envelope.maxTemperature);
    }
    updateTempCaches();
}

void
DramDevice::writePattern(DataPattern p)
{
    pattern_ = p;
    ++writeNonce_;
    ++exposureNonce_;
    dataValid_ = true;
    exposureEquiv_ = 0.0;
    rowActs_.clear(); // rewriting restores disturbed charge everywhere
}

void
DramDevice::restoreData()
{
    if (!dataValid_) {
        warn("DramDevice::restoreData before any write; nothing to "
             "restore");
        return;
    }
    // Same stored content (same writeNonce_, so DPD factors persist),
    // fresh charge and a fresh stochastic draw for the next window.
    ++exposureNonce_;
    exposureEquiv_ = 0.0;
    rowActs_.clear(); // the scrub write-back restores disturbed charge
}

void
DramDevice::hammer(const std::vector<uint64_t> &rows, uint64_t count)
{
    if (count == 0)
        return;
    for (uint64_t row : rows) {
        if (row >= geometry_.totalRows())
            panic("DramDevice::hammer: row %llu out of range (%llu "
                  "rows)",
                  static_cast<unsigned long long>(row),
                  static_cast<unsigned long long>(geometry_.totalRows()));
        rowActs_[row] += count;
    }
}

uint64_t
DramDevice::rowActivations(uint64_t row_flat) const
{
    auto it = rowActs_.find(row_flat);
    return it == rowActs_.end() ? 0 : it->second;
}

void
DramDevice::collectDisturbFlips(std::vector<uint64_t> &out) const
{
    if (rowActs_.empty() || !dataValid_)
        return;
    // Coupling-weighted pressure per victim row, accumulated in sorted
    // aggressor order (std::map) so floating-point sums are identical
    // regardless of the order hammer() calls named the rows.
    std::map<uint64_t, double> pressure;
    for (const auto &[row, acts] : rowActs_) {
        for (int off : {-2, -1, 1, 2}) {
            uint64_t victim;
            if (!geometry_.neighborRowIndex(row, off, &victim))
                continue;
            pressure[victim] +=
                static_cast<double>(acts) *
                disturb_.coupling(static_cast<uint32_t>(
                    off < 0 ? -off : off));
        }
    }
    int cls = patternClass(pattern_);
    for (const auto &[vrow, p] : pressure) {
        // An activated row's own cells are refreshed by the
        // activations; aggressors never flip.
        if (rowActs_.find(vrow) != rowActs_.end())
            continue;
        disturb_.victimsOfRowInto(vrow, victimScratch_);
        for (const VictimCell &v : victimScratch_) {
            if (p < disturb_.effectiveThreshold(v, cls))
                continue;
            if (patternBit(pattern_, geometry_, v.addr, writeNonce_) !=
                v.vulnerableValue)
                continue; // stored discharged: nothing to lose
            out.push_back(v.addr);
        }
    }
}

void
DramDevice::disableRefresh()
{
    refreshEnabled_ = false;
}

void
DramDevice::enableRefresh()
{
    refreshEnabled_ = true;
}

void
DramDevice::wait(Seconds dt)
{
    if (dt < 0)
        panic("DramDevice::wait: negative dt %g", dt);
    evolveDynamics(now_, now_ + dt);
    if (!refreshEnabled_ && dataValid_) {
        exposureEquiv_ += dt * expScaleCur_;
        if (exposureEquiv_ > maxEquivExposure_ * 1.0001) {
            fatal("DramDevice: unrefreshed exposure %.3fs (equivalent) "
                  "exceeds the test envelope (%.3fs); construct the "
                  "device with a wider envelope",
                  exposureEquiv_, maxEquivExposure_);
        }
    }
    now_ += dt;
}

void
DramDevice::evolveDynamics(Seconds from, Seconds to)
{
    // Weak-cell two-state VRT toggling.
    double dwell = model_.params().weakVrtDwellMeanHours * 3600.0;
    while (!toggleQueue_.empty() && toggleQueue_.top().first <= to) {
        auto [when, idx] = toggleQueue_.top();
        toggleQueue_.pop();
        vrtState_[idx] ^= 1;
        toggleQueue_.emplace(when + rng_.exponentialMean(dwell), idx);
    }

    // Expire VRT arrivals that retreated during the window.
    std::erase_if(vrtActive_, [to](const VrtActive &a) {
        return a.expiry <= to;
    });

    // New VRT arrivals (Poisson in time).
    double window = to - from;
    if (window <= 0 || vrtRate_ <= 0)
        return;
    uint64_t n = rng_.poisson(vrtRate_ * window);
    double arr_dwell = model_.params().vrtDwellMeanHours * 3600.0;
    for (uint64_t i = 0; i < n; ++i) {
        VrtActive a;
        a.cell = model_.sampleVrtArrival(muCapVrt_, rng_);
        a.cell.addr = rng_.uniformInt(config_.capacityBits);
        double arrive = from + rng_.uniform() * window;
        a.expiry = arrive + rng_.exponentialMean(arr_dwell);
        if (a.expiry > to)
            vrtActive_.push_back(a);
    }
}

double
DramDevice::latentFailureTime(const WeakCell &cell) const
{
    double factor = model_.dpdFactor(cell, pattern_, writeNonce_);
    double state_factor = cell.vrtState ? cell.vrtFactor : 1.0;
    double mu_eff = static_cast<double>(cell.mu) * factor * state_factor;
    double sigma = static_cast<double>(cell.mu) * cell.sigmaRel *
                   sigmaNarrowCur_;
    double u = toUniform(hashCombine(
        hashCombine(cell.dpdSeed, exposureNonce_ * 0x9E3779B97F4A7C15ull),
        cell.addr));
    u = clampTo(u, kLatentUMin, kLatentUMax);
    return mu_eff + sigma * normalQuantile(u);
}

WeakCell
DramDevice::liveCell(size_t i) const
{
    WeakCell c = pop_->cells[i];
    c.vrtState = vrtState_[i];
    return c;
}

// Why decideFailure() answers exactly `exposure >= latentFailureTime`:
// the latent time is mu_eff + sigma * Q(u), with Q = normalQuantile and
// u the clamped draw, and the bracket of u's bin satisfies
// lo <= Q(u) <= hi (quantile_bracket.h, pinned by
// test_quantile_bracket).
//  - IEEE rounding is monotone and sigma >= 0 (RetentionModel
//    rejects a negative maxSigmaRel), so the computed
//    mu_eff + sigma * lo <= latent <= mu_eff + sigma * hi. This holds
//    with FMA contraction on either side too: a fused sum rounds the
//    exact, ordered sum once, and the guard in lo and hi is far wider
//    than the one rounding an unfused product adds.
//  - So exposure >= the upper sum means failed, and exposure < the
//    lower sum means not failed, both without evaluating Q.
//  - The unit-factor bound goes one step earlier. With dpdMaxFactor
//    >= 1 every DPD factor is >= 1, and mu, state >= 0, so
//    mu * 1.0 * state <= mu * factor * state = mu_eff. An exposure
//    below mu * state + sigma * lo is then "not failed" without
//    evaluating dpdFactor (and its pow, on random patterns).
//  - Only an exposure between the two sums reaches the exact
//    expression, which is latentFailureTime's own arithmetic.
inline unsigned
DramDevice::decideFailure(const WeakCell &cell, uint8_t vrt_state,
                          const QuantileBracket *brackets) const
{
    double u = toUniform(hashCombine(
        hashCombine(cell.dpdSeed, exposureNonce_ * 0x9E3779B97F4A7C15ull),
        cell.addr));
    u = clampTo(u, kLatentUMin, kLatentUMax);
    const QuantileBracket &b = brackets[quantileBin(u)];
    double state_factor = vrt_state ? cell.vrtFactor : 1.0;
    double sigma = static_cast<double>(cell.mu) * cell.sigmaRel *
                   sigmaNarrowCur_;
    if (unitFactorBound_ &&
        exposureEquiv_ < static_cast<double>(cell.mu) * 1.0 * state_factor +
                             sigma * b.lo)
        return 0;
    double factor = model_.dpdFactor(cell, pattern_, writeNonce_);
    double mu_eff = static_cast<double>(cell.mu) * factor * state_factor;
    if (exposureEquiv_ >= mu_eff + sigma * b.hi)
        return kDecidedFails;
    if (exposureEquiv_ < mu_eff + sigma * b.lo)
        return 0;
    return kDecidedExact |
           (exposureEquiv_ >= mu_eff + sigma * normalQuantile(u)
                ? kDecidedFails
                : 0u);
}

template <typename F>
void
DramDevice::forEachCandidate(std::vector<uint32_t> &scratch, F &&f) const
{
    // Batched SoA fast reject: the dispatched kernel sweeps the flat
    // reject array in 64-byte chunks (AVX2 compare + movemask, scalar
    // under REAPER_SIMD=scalar) and emits only the candidate indices.
    // The predicate is the same `!(reject > exposure)` branch as
    // collectIfFailed, so the candidates are the reference path's.
    size_t end = candidateEnd(exposureEquiv_);
    scratch.clear();
    simd::scanNotGreater(pop_->reject.data(), end, exposureEquiv_,
                         scratch);
    for (uint32_t i : scratch)
        f(pop_->cells[i], vrtState_[i]);
    for (const auto &a : vrtActive_) {
        if (!(rejectThreshold(a.cell) > exposureEquiv_))
            f(a.cell, a.cell.vrtState);
    }
}

void
DramDevice::collectIfFailed(const WeakCell &cell,
                            std::vector<uint64_t> &out) const
{
    // Fast reject: even at the worst-case factor (1.0), a cell more than
    // ~5 sigma above the exposure cannot have failed.
    double sigma = static_cast<double>(cell.mu) * cell.sigmaRel;
    if (static_cast<double>(cell.mu) - 5.0 * sigma > exposureEquiv_)
        return;
    if (exposureEquiv_ >= latentFailureTime(cell))
        out.push_back(cell.addr);
}

size_t
DramDevice::candidateEnd(double t_equiv) const
{
    // Candidate window: mu <= exposure / (1 - 5 * maxSigmaRel), clamped
    // to "everything" if the spread cap makes the bound meaningless.
    // The comparison is readAndCompareReference()'s, so is the index.
    const std::vector<WeakCell> &cells = pop_->cells;
    double max_rel = model_.params().maxSigmaRel;
    double denom = 1.0 - 5.0 * max_rel;
    if (denom <= 0.05)
        return cells.size();
    double mu_bound = t_equiv / denom;
    return static_cast<size_t>(
        std::upper_bound(cells.begin(), cells.end(), mu_bound,
                         [](double bound, const WeakCell &c) {
                             return bound < static_cast<double>(c.mu);
                         }) -
        cells.begin());
}

const std::vector<uint64_t> &
DramDevice::readAndCompareInto()
{
    readScratch_.clear();
    if (!dataValid_) {
        warn("DramDevice::readAndCompare before any write; no reference "
             "data to compare against");
        return readScratch_;
    }
    if (exposureEquiv_ <= 0 && rowActs_.empty())
        return readScratch_;

    if (exposureEquiv_ > 0) {
        // Survivors of the candidate sweep take the bracketed decision,
        // whose outcome is latentFailureTime's, so output stays
        // bit-identical to readAndCompareReference().
        const QuantileBracket *brackets = quantileBrackets();
        forEachCandidate(candScratch_,
                         [&](const WeakCell &cell, uint8_t state) {
                             if (decideFailure(cell, state, brackets) &
                                 kDecidedFails)
                                 readScratch_.push_back(cell.addr);
                         });
    }
    collectDisturbFlips(readScratch_);

    // Weak cells, VRT arrivals and disturb flips can name one address
    // twice; sorting brings duplicates together for unique().
    radixSort(readScratch_, sortScratch_);
    readScratch_.erase(
        std::unique(readScratch_.begin(), readScratch_.end()),
        readScratch_.end());
    return readScratch_;
}

std::vector<uint64_t>
DramDevice::readAndCompare()
{
    return readAndCompareInto();
}

DramDevice::ReadDecisionCensus
DramDevice::readDecisionCensus() const
{
    ReadDecisionCensus census;
    if (!dataValid_ || exposureEquiv_ <= 0)
        return census;
    const QuantileBracket *brackets = quantileBrackets();
    std::vector<uint32_t> scratch;
    forEachCandidate(scratch, [&](const WeakCell &cell, uint8_t state) {
        ++census.candidates;
        if (decideFailure(cell, state, brackets) & kDecidedExact)
            ++census.exact;
    });
    return census;
}

const std::vector<uint64_t> &
DramDevice::trueFailingSetInto(Seconds t_refi, Celsius temp,
                               double pmin) const
{
    oracleScratch_.clear();
    double t_equiv = t_refi * model_.equivalentExposureScale(temp);
    double narrow = model_.sigmaNarrowScale(temp);

    size_t end = candidateEnd(t_equiv);
    for (size_t i = 0; i < end; ++i) {
        if (model_.failureProbabilityNarrowed(liveCell(i), t_equiv,
                                              narrow, 1.0) >= pmin)
            oracleScratch_.push_back(pop_->cells[i].addr);
    }
    for (const auto &a : vrtActive_) {
        if (model_.failureProbabilityNarrowed(a.cell, t_equiv, narrow,
                                              1.0) >= pmin)
            oracleScratch_.push_back(a.cell.addr);
    }

    std::sort(oracleScratch_.begin(), oracleScratch_.end());
    oracleScratch_.erase(
        std::unique(oracleScratch_.begin(), oracleScratch_.end()),
        oracleScratch_.end());
    return oracleScratch_;
}

std::vector<uint64_t>
DramDevice::trueFailingSet(Seconds t_refi, Celsius temp, double pmin) const
{
    return trueFailingSetInto(t_refi, temp, pmin);
}

std::vector<uint64_t>
DramDevice::readAndCompareReference() const
{
    std::vector<uint64_t> out;
    if (!dataValid_ || (exposureEquiv_ <= 0 && rowActs_.empty()))
        return out;

    if (exposureEquiv_ > 0) {
        double max_rel = model_.params().maxSigmaRel;
        double denom = 1.0 - 5.0 * max_rel;
        double mu_bound = denom > 0.05
                              ? exposureEquiv_ / denom
                              : std::numeric_limits<double>::infinity();

        const std::vector<WeakCell> &cells = pop_->cells;
        const size_t end = static_cast<size_t>(
            std::upper_bound(cells.begin(), cells.end(), mu_bound,
                             [](double bound, const WeakCell &c) {
                                 return bound <
                                        static_cast<double>(c.mu);
                             }) -
            cells.begin());
        for (size_t i = 0; i < end; ++i)
            collectIfFailed(liveCell(i), out);
        for (const auto &a : vrtActive_)
            collectIfFailed(a.cell, out);
    }
    collectDisturbFlips(out);

    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::vector<uint64_t>
DramDevice::trueFailingSetReference(Seconds t_refi, Celsius temp,
                                    double pmin) const
{
    std::vector<uint64_t> out;
    double t_equiv = t_refi * model_.equivalentExposureScale(temp);
    double max_rel = model_.params().maxSigmaRel;
    double denom = 1.0 - 5.0 * max_rel;
    double mu_bound = denom > 0.05
                          ? t_equiv / denom
                          : std::numeric_limits<double>::infinity();

    auto consider = [&](const WeakCell &c) {
        if (model_.failureProbability(c, t_equiv, temp, 1.0) >= pmin)
            out.push_back(c.addr);
    };
    const std::vector<WeakCell> &cells = pop_->cells;
    const size_t end = static_cast<size_t>(
        std::upper_bound(cells.begin(), cells.end(), mu_bound,
                         [](double bound, const WeakCell &c) {
                             return bound < static_cast<double>(c.mu);
                         }) -
        cells.begin());
    for (size_t i = 0; i < end; ++i)
        consider(liveCell(i));
    for (const auto &a : vrtActive_)
        consider(a.cell);

    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

double
DramDevice::expectedBer(Seconds t, Celsius temp) const
{
    return model_.berAt(t, temp);
}

} // namespace dram
} // namespace reaper
