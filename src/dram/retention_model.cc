#include "dram/retention_model.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace reaper {
namespace dram {

namespace {

/** Map a 64-bit hash to a uniform double in [0, 1). */
inline double
toUniform(uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** Number of static (non-random) pattern classes. */
constexpr int kNumStaticClasses = 10;

} // namespace

RetentionModel::RetentionModel(const RetentionParams &params,
                               Celsius reference_temp)
    : params_(params), refTemp_(reference_temp)
{
    if (params_.tailExponent <= 0)
        panic("RetentionModel: tailExponent must be > 0");
    // sigmaRel = min(lognormal draw, maxSigmaRel), and DramDevice's
    // read path relies on sigma = mu * sigmaRel being >= 0.
    if (!(params_.maxSigmaRel >= 0))
        fatal("RetentionModel: maxSigmaRel must be >= 0, got %g",
              params_.maxSigmaRel);
    tailK_ = params_.berAt1024ms / std::pow(1.024, params_.tailExponent);
}

double
RetentionModel::tailCdf(Seconds mu) const
{
    if (mu <= 0)
        return 0.0;
    return std::min(1.0, tailK_ * std::pow(mu, params_.tailExponent));
}

Seconds
RetentionModel::inverseTailCdf(double f) const
{
    if (f <= 0)
        return 0.0;
    return std::pow(f / tailK_, 1.0 / params_.tailExponent);
}

double
RetentionModel::berAt(Seconds t, Celsius temp) const
{
    // F(t * exp((k/p) dT)) = K t^p exp(k dT): Eq. 1 temperature scaling.
    return std::min(1.0,
                    tailCdf(t) *
                        std::exp(params_.tempCoeff * (temp - refTemp_)));
}

double
RetentionModel::equivalentExposureScale(Celsius temp) const
{
    return std::exp(params_.tempCoeff / params_.tailExponent *
                    (temp - refTemp_));
}

double
RetentionModel::sigmaNarrowScale(Celsius temp) const
{
    return std::exp(-params_.sigmaTempNarrow * (temp - refTemp_));
}

double
RetentionModel::dpdFactor(const WeakCell &cell, DataPattern p,
                          uint64_t write_nonce) const
{
    const double span = params_.dpdMaxFactor - 1.0;
    int cls = patternClass(p);
    if (isRandomPattern(p)) {
        // Random content redraws the coupling environment every write;
        // the u^bias shape makes near-worst-case draws common enough
        // that random data dominates coverage over many iterations
        // (Observation 3) without guaranteeing any single draw.
        double u = toUniform(hashCombine(cell.dpdSeed, write_nonce));
        return 1.0 + span * std::pow(u, params_.randomBiasExponent);
    }
    if (cls == cell.worstClass)
        return 1.0;
    // Deterministic per-(cell, pattern-class) factor; non-worst static
    // patterns never reach the worst-case retention.
    double u = toUniform(
        hashCombine(cell.dpdSeed, static_cast<uint64_t>(cls) + 0x1000));
    return 1.0 + span * (0.10 + 0.90 * u);
}

double
RetentionModel::worstCaseDpdFactor(const WeakCell &) const
{
    // By construction the worst-case written content achieves factor 1,
    // either via the cell's worst static class or via a sufficiently
    // adversarial random draw.
    return 1.0;
}

double
RetentionModel::failureProbability(const WeakCell &cell, Seconds t_equiv,
                                   Celsius temp, double factor) const
{
    return failureProbabilityNarrowed(cell, t_equiv,
                                      sigmaNarrowScale(temp), factor);
}

double
RetentionModel::failureProbabilityNarrowed(const WeakCell &cell,
                                           Seconds t_equiv,
                                           double sigma_narrow,
                                           double factor) const
{
    double state_factor = cell.vrtState ? cell.vrtFactor : 1.0;
    double mu_eff = static_cast<double>(cell.mu) * factor * state_factor;
    double sigma = static_cast<double>(cell.mu) * cell.sigmaRel *
                   sigma_narrow;
    if (sigma <= 0)
        return t_equiv >= mu_eff ? 1.0 : 0.0;
    return normalCdf((t_equiv - mu_eff) / sigma);
}

double
RetentionModel::worstCaseFailureProbability(const WeakCell &cell, Seconds t,
                                            Celsius temp) const
{
    return failureProbability(cell, t * equivalentExposureScale(temp), temp,
                              1.0);
}

Seconds
RetentionModel::envelopeMuCap(const TestEnvelope &env) const
{
    // Cover +6 sigma of the typical relative CDF spread. Cells with
    // extreme spreads whose mean lies above the cap contribute < 1% of
    // failures at the envelope edge and are deliberately not sampled to
    // keep the sparse population tractable.
    double mean_rel = std::min(
        std::exp(params_.lnSigmaRel +
                 0.5 * params_.sigmaRelSpread * params_.sigmaRelSpread),
        params_.maxSigmaRel);
    return env.maxInterval * (1.0 + 6.0 * mean_rel) *
           equivalentExposureScale(env.maxTemperature);
}

void
RetentionModel::populateCellStatics(WeakCell &cell, Rng &rng) const
{
    double rel = rng.lognormal(params_.lnSigmaRel, params_.sigmaRelSpread);
    cell.sigmaRel =
        static_cast<float>(std::min(rel, params_.maxSigmaRel));
    cell.dpdSeed = static_cast<uint32_t>(rng());
    if (rng.bernoulli(params_.randomOnlyFraction)) {
        cell.worstClass = kRandomOnlyClass;
    } else {
        cell.worstClass = static_cast<uint8_t>(
            rng.uniformInt(kNumStaticClasses));
    }
    cell.togglesVrt = rng.bernoulli(params_.weakVrtFraction);
    if (cell.togglesVrt) {
        double f = rng.lognormal(params_.weakVrtFactorLn,
                                 params_.weakVrtFactorSpread);
        cell.vrtFactor = static_cast<float>(std::max(f, 1.05));
        cell.vrtState = rng.bernoulli(0.5) ? 1 : 0;
    } else {
        cell.vrtFactor = 1.f;
        cell.vrtState = 0;
    }
}

std::vector<WeakCell>
RetentionModel::sampleWeakPopulation(uint64_t capacity_bits,
                                     const TestEnvelope &env,
                                     Rng &rng) const
{
    Seconds mu_cap = envelopeMuCap(env);
    double frac = tailCdf(mu_cap);
    double expected = static_cast<double>(capacity_bits) * frac;
    uint64_t count = rng.poisson(expected);

    std::vector<WeakCell> cells;
    cells.reserve(count);
    // Flat open-addressing set of the addresses drawn so far (linear
    // probing, load <= 1/2). It accepts and rejects exactly the draws
    // a node-based set would, so the RNG stream is unchanged.
    constexpr uint64_t kEmpty = ~0ull; // never an address: < capacity
    size_t slots = 16;
    while (slots < 2 * count)
        slots <<= 1;
    const int shift = 64 - std::countr_zero(slots);
    std::vector<uint64_t> used(slots, kEmpty);
    auto insert = [&](uint64_t addr) {
        size_t i = (addr * 0x9E3779B97F4A7C15ull) >> shift;
        while (used[i] != kEmpty) {
            if (used[i] == addr)
                return false;
            i = (i + 1) & (slots - 1);
        }
        used[i] = addr;
        return true;
    };
    double inv_p = 1.0 / params_.tailExponent;
    for (uint64_t i = 0; i < count; ++i) {
        WeakCell c;
        uint64_t addr;
        do {
            addr = rng.uniformInt(capacity_bits);
        } while (!insert(addr));
        c.addr = addr;
        double u;
        do {
            u = rng.uniform();
        } while (u <= 0.0);
        c.mu = static_cast<float>(mu_cap * std::pow(u, inv_p));
        populateCellStatics(c, rng);
        cells.push_back(c);
    }
    std::vector<uint64_t>().swap(used);

    // Sort 8-byte (mu, index) keys with the same mu-only comparator,
    // then gather: std::sort makes the same comparisons and moves on
    // the keys as on the cells, so the permutation is identical.
    struct SortKey
    {
        float mu;
        uint32_t index;
    };
    std::vector<SortKey> keys(cells.size());
    for (size_t i = 0; i < cells.size(); ++i)
        keys[i] = {cells[i].mu, static_cast<uint32_t>(i)};
    std::sort(keys.begin(), keys.end(),
              [](const SortKey &a, const SortKey &b) {
                  return a.mu < b.mu;
              });
    std::vector<WeakCell> sorted;
    sorted.reserve(cells.size());
    for (const SortKey &k : keys)
        sorted.push_back(cells[k.index]);
    return sorted;
}

double
RetentionModel::vrtCumulativeRate(Seconds mu, uint64_t capacity_bits) const
{
    if (mu <= 0)
        return 0.0;
    double per_sec_2gb = params_.vrtRateAt1024ms / 3600.0;
    double scale = static_cast<double>(capacity_bits) / kBitsPer2GB;
    double knee = params_.vrtKnee;
    double shape;
    if (mu <= knee) {
        shape = std::pow(mu / 1.024, params_.vrtExponent);
    } else {
        // The measured power law (Fig. 4) is a local fit over
        // 64 ms..4096 ms; extrapolating t^7.9 indefinitely would imply
        // absurd arrival rates, so the tail saturates to ~t^2.
        shape = std::pow(knee / 1.024, params_.vrtExponent) *
                std::pow(mu / knee, 2.0);
    }
    return per_sec_2gb * scale * shape;
}

Seconds
RetentionModel::sampleVrtMu(Seconds mu_cap, Rng &rng) const
{
    double knee = params_.vrtKnee;
    auto shape = [&](double mu) {
        if (mu <= knee)
            return std::pow(mu / knee, params_.vrtExponent);
        return std::pow(mu / knee, 2.0);
    };
    double s_cap = shape(mu_cap);
    double u;
    do {
        u = rng.uniform();
    } while (u <= 0.0);
    double s = u * s_cap;
    if (s <= 1.0)
        return knee * std::pow(s, 1.0 / params_.vrtExponent);
    return knee * std::sqrt(s);
}

WeakCell
RetentionModel::sampleVrtArrival(Seconds mu_cap, Rng &rng) const
{
    WeakCell c;
    c.mu = static_cast<float>(sampleVrtMu(mu_cap, rng));
    populateCellStatics(c, rng);
    // Arrival lifetime is governed by the arrival process itself; the
    // two-state toggling model does not apply on top of it.
    c.togglesVrt = false;
    c.vrtState = 0;
    c.vrtFactor = 1.f;
    return c;
}

} // namespace dram
} // namespace reaper
