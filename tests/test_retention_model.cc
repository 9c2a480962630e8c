/**
 * @file
 * Tests for the statistical retention model: tail CDF, temperature
 * scaling (Eq. 1), per-cell failure CDFs (Fig. 6), DPD factors
 * (Section 5.4), and VRT arrival rates (Fig. 4 calibration).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "common/stats.h"
#include "dram/retention_model.h"

namespace reaper {
namespace dram {
namespace {

RetentionModel
modelB()
{
    return RetentionModel(vendorParams(Vendor::B));
}

WeakCell
makeCell(double mu, double sigma_rel, uint8_t worst_class = 0)
{
    WeakCell c;
    c.addr = 42;
    c.mu = static_cast<float>(mu);
    c.sigmaRel = static_cast<float>(sigma_rel);
    c.dpdSeed = 0xDEADBEEF;
    c.worstClass = worst_class;
    return c;
}

TEST(RetentionModel, TailCdfCalibratedAt1024ms)
{
    RetentionModel m = modelB();
    EXPECT_NEAR(m.tailCdf(1.024), 1.434e-7, 1e-10);
}

TEST(RetentionModel, NegativeSpreadCapIsFatal)
{
    // sigma = mu * sigmaRel is a spread; the device's read path orders
    // latent failure times by it, so a negative cap is rejected.
    RetentionParams params = vendorParams(Vendor::B);
    params.maxSigmaRel = -0.05;
    EXPECT_EXIT(RetentionModel{params}, ::testing::ExitedWithCode(1),
                "maxSigmaRel");
}

TEST(RetentionModel, TailCdfMonotoneAndPowerLaw)
{
    RetentionModel m = modelB();
    double f1 = m.tailCdf(1.0);
    double f2 = m.tailCdf(2.0);
    EXPECT_GT(f2, f1);
    EXPECT_NEAR(f2 / f1, std::pow(2.0, 2.8), 1e-9);
}

TEST(RetentionModel, TailCdfInverseRoundTrip)
{
    RetentionModel m = modelB();
    for (double t : {0.064, 0.512, 1.024, 4.096})
        EXPECT_NEAR(m.inverseTailCdf(m.tailCdf(t)), t, 1e-9);
}

TEST(RetentionModel, TailCdfEdges)
{
    RetentionModel m = modelB();
    EXPECT_EQ(m.tailCdf(0.0), 0.0);
    EXPECT_EQ(m.tailCdf(-1.0), 0.0);
    EXPECT_EQ(m.inverseTailCdf(0.0), 0.0);
}

TEST(RetentionModel, PaperAnchor2464FailuresPer2GB)
{
    // Section 6.2.3: ~2464 failures at 1024 ms / 45 C in 2 GB.
    RetentionModel m = modelB();
    double expected = m.berAt(1.024, 45.0) * kBitsPer2GB;
    EXPECT_NEAR(expected, 2464.0, 2464.0 * 0.02);
}

TEST(RetentionModel, TemperatureScalingMatchesEq1)
{
    // Eq. 1: failure rate scales as exp(k dT), ~10x per 10 C.
    for (Vendor v : {Vendor::A, Vendor::B, Vendor::C}) {
        RetentionModel m{vendorParams(v)};
        double k = vendorParams(v).tempCoeff;
        double ratio = m.berAt(1.0, 55.0) / m.berAt(1.0, 45.0);
        EXPECT_NEAR(ratio, std::exp(10.0 * k), ratio * 1e-9)
            << toString(v);
        EXPECT_GT(ratio, 7.0);
        EXPECT_LT(ratio, 14.0);
    }
}

TEST(RetentionModel, ExposureScaleConsistentWithBer)
{
    // berAt(t, T) must equal tailCdf(t * equivalentExposureScale(T)).
    RetentionModel m = modelB();
    for (double temp : {40.0, 45.0, 50.0, 55.0}) {
        double lhs = m.berAt(0.8, temp);
        double rhs = m.tailCdf(0.8 * m.equivalentExposureScale(temp));
        EXPECT_NEAR(lhs, rhs, lhs * 1e-9) << temp;
    }
}

TEST(RetentionModel, SigmaNarrowsWithTemperature)
{
    RetentionModel m = modelB();
    EXPECT_LT(m.sigmaNarrowScale(55.0), 1.0);
    EXPECT_GT(m.sigmaNarrowScale(35.0), 1.0);
    EXPECT_DOUBLE_EQ(m.sigmaNarrowScale(45.0), 1.0);
}

TEST(RetentionModel, FailureProbabilityIsNormalCdf)
{
    RetentionModel m = modelB();
    WeakCell c = makeCell(2.0, 0.05);
    // At t = mu: 50%.
    EXPECT_NEAR(m.failureProbability(c, 2.0, 45.0, 1.0), 0.5, 1e-9);
    // One sigma above: ~84%.
    EXPECT_NEAR(m.failureProbability(c, 2.1, 45.0, 1.0), 0.8413, 1e-3);
    // Far below: ~0.
    EXPECT_LT(m.failureProbability(c, 1.0, 45.0, 1.0), 1e-9);
}

TEST(RetentionModel, FailureProbabilityMonotoneInExposure)
{
    RetentionModel m = modelB();
    WeakCell c = makeCell(1.5, 0.08);
    double prev = 0.0;
    for (double t = 0.5; t <= 3.0; t += 0.1) {
        double p = m.failureProbability(c, t, 45.0, 1.0);
        EXPECT_GE(p, prev);
        prev = p;
    }
}

TEST(RetentionModel, VrtStateRaisesRetention)
{
    RetentionModel m = modelB();
    WeakCell c = makeCell(1.0, 0.05);
    c.vrtFactor = 1.5f;
    c.vrtState = 0;
    double p_low = m.failureProbability(c, 1.2, 45.0, 1.0);
    c.vrtState = 1;
    double p_high = m.failureProbability(c, 1.2, 45.0, 1.0);
    EXPECT_GT(p_low, 0.99);
    EXPECT_LT(p_high, 0.01);
}

TEST(RetentionModel, WorstCaseProbabilityUsesTemperature)
{
    RetentionModel m = modelB();
    WeakCell c = makeCell(1.2, 0.05);
    double p45 = m.worstCaseFailureProbability(c, 1.0, 45.0);
    double p55 = m.worstCaseFailureProbability(c, 1.0, 55.0);
    EXPECT_GT(p55, p45);
}

TEST(RetentionModel, DpdWorstClassIsOne)
{
    RetentionModel m = modelB();
    WeakCell c = makeCell(1.0, 0.05, /*worst_class=*/3);
    EXPECT_DOUBLE_EQ(
        m.dpdFactor(c, DataPattern::CheckerboardInv, 1), 1.0);
}

TEST(RetentionModel, DpdNonWorstStaticInRange)
{
    RetentionModel m = modelB();
    double max_f = m.params().dpdMaxFactor;
    WeakCell c = makeCell(1.0, 0.05, /*worst_class=*/0);
    for (DataPattern p : allDataPatterns()) {
        if (isRandomPattern(p) || patternClass(p) == 0)
            continue;
        double f = m.dpdFactor(c, p, 7);
        EXPECT_GT(f, 1.0) << toString(p);
        EXPECT_LE(f, max_f) << toString(p);
    }
}

TEST(RetentionModel, DpdStaticFactorDeterministic)
{
    RetentionModel m = modelB();
    WeakCell c = makeCell(1.0, 0.05, 0);
    double f1 = m.dpdFactor(c, DataPattern::RowStripe, 1);
    double f2 = m.dpdFactor(c, DataPattern::RowStripe, 999);
    EXPECT_DOUBLE_EQ(f1, f2); // static factors ignore the write nonce
}

TEST(RetentionModel, DpdRandomRedrawsPerNonce)
{
    RetentionModel m = modelB();
    WeakCell c = makeCell(1.0, 0.05, 0);
    double f1 = m.dpdFactor(c, DataPattern::Random, 1);
    double f2 = m.dpdFactor(c, DataPattern::Random, 2);
    EXPECT_NE(f1, f2);
    EXPECT_GE(f1, 1.0);
    EXPECT_LE(f1, m.params().dpdMaxFactor);
}

TEST(RetentionModel, DpdRandomBiasedTowardWorstCase)
{
    // With bias exponent 2, the mean of u^2 is 1/3: random draws skew
    // toward low (more failure-prone) factors.
    RetentionModel m = modelB();
    WeakCell c = makeCell(1.0, 0.05, 0);
    RunningStats s;
    for (uint64_t nonce = 0; nonce < 20000; ++nonce)
        s.add(m.dpdFactor(c, DataPattern::Random, nonce));
    double span = m.params().dpdMaxFactor - 1.0;
    EXPECT_NEAR(s.mean(), 1.0 + span / 3.0, span * 0.02);
}

TEST(RetentionModel, SampleWeakPopulationCountMatchesTail)
{
    RetentionModel m = modelB();
    Rng rng(17);
    TestEnvelope env{2.0, 45.0};
    uint64_t bits = 8ull * 1024 * 1024 * 1024; // 1 GB
    auto cells = m.sampleWeakPopulation(bits, env, rng);
    double expected =
        m.tailCdf(m.envelopeMuCap(env)) * static_cast<double>(bits);
    EXPECT_GT(expected, 100.0); // sanity: test has statistical power
    double sd = std::sqrt(expected);
    EXPECT_NEAR(static_cast<double>(cells.size()), expected, 6.0 * sd);
}

TEST(RetentionModel, SampleWeakPopulationSortedUniqueInRange)
{
    RetentionModel m = modelB();
    Rng rng(18);
    TestEnvelope env{2.0, 45.0};
    uint64_t bits = 8ull * 1024 * 1024 * 1024;
    auto cells = m.sampleWeakPopulation(bits, env, rng);
    ASSERT_GT(cells.size(), 10u);
    double mu_cap = m.envelopeMuCap(env);
    std::set<uint64_t> addrs;
    float prev_mu = 0.f;
    for (const auto &c : cells) {
        EXPECT_GE(c.mu, prev_mu); // sorted
        prev_mu = c.mu;
        EXPECT_GT(c.mu, 0.f);
        EXPECT_LE(c.mu, mu_cap * 1.0001);
        EXPECT_LT(c.addr, bits);
        addrs.insert(c.addr);
        EXPECT_GT(c.sigmaRel, 0.f);
        EXPECT_LE(c.sigmaRel, m.params().maxSigmaRel + 1e-6);
    }
    EXPECT_EQ(addrs.size(), cells.size()); // unique addresses
}

TEST(RetentionModel, SampleWeakPopulationMuFollowsPowerLaw)
{
    // P(mu <= x) within the sampled population should be (x/cap)^p.
    RetentionModel m = modelB();
    Rng rng(19);
    TestEnvelope env{2.0, 45.0};
    auto cells = m.sampleWeakPopulation(16ull * 1024 * 1024 * 1024, env,
                                        rng);
    ASSERT_GT(cells.size(), 300u);
    double cap = m.envelopeMuCap(env);
    double below_half = 0;
    for (const auto &c : cells)
        below_half += (c.mu <= cap / 2);
    double frac = below_half / static_cast<double>(cells.size());
    double expect = std::pow(0.5, 2.8);
    EXPECT_NEAR(frac, expect, 0.05);
}

TEST(RetentionModel, WeakVrtFractionRespected)
{
    RetentionModel m = modelB();
    Rng rng(20);
    TestEnvelope env{2.0, 45.0};
    auto cells = m.sampleWeakPopulation(32ull * 1024 * 1024 * 1024, env,
                                        rng);
    ASSERT_GT(cells.size(), 500u);
    double togglers = 0;
    for (const auto &c : cells) {
        if (c.togglesVrt) {
            ++togglers;
            EXPECT_GE(c.vrtFactor, 1.05f);
        }
    }
    double frac = togglers / static_cast<double>(cells.size());
    EXPECT_NEAR(frac, m.params().weakVrtFraction, 0.02);
}

TEST(RetentionModel, VrtRateCalibratedAt1024And2048)
{
    // Section 6.2.3: 0.73 cells/hour at 1024 ms; Fig. 3: ~1 cell/20 s
    // at 2048 ms, both per 2 GB at 45 C.
    RetentionModel m = modelB();
    uint64_t bits = static_cast<uint64_t>(kBitsPer2GB);
    double rate_1024 = m.vrtCumulativeRate(1.024, bits) * 3600.0;
    EXPECT_NEAR(rate_1024, 0.73, 0.01);
    double rate_2048 = m.vrtCumulativeRate(2.048, bits) * 3600.0;
    EXPECT_NEAR(rate_2048, 180.0, 20.0);
}

TEST(RetentionModel, VrtRateSaturatesBeyondKnee)
{
    RetentionModel m = modelB();
    uint64_t bits = static_cast<uint64_t>(kBitsPer2GB);
    double knee = m.params().vrtKnee;
    double r1 = m.vrtCumulativeRate(2.0 * knee, bits);
    double r2 = m.vrtCumulativeRate(4.0 * knee, bits);
    EXPECT_NEAR(r2 / r1, 4.0, 1e-6); // ~t^2 beyond the knee
}

TEST(RetentionModel, VrtRateScalesWithCapacity)
{
    RetentionModel m = modelB();
    uint64_t bits = static_cast<uint64_t>(kBitsPer2GB);
    EXPECT_NEAR(m.vrtCumulativeRate(1.0, bits * 4) /
                    m.vrtCumulativeRate(1.0, bits),
                4.0, 1e-9);
}

TEST(RetentionModel, SampleVrtMuWithinCap)
{
    RetentionModel m = modelB();
    Rng rng(21);
    for (int i = 0; i < 2000; ++i) {
        double mu = m.sampleVrtMu(3.0, rng);
        EXPECT_GT(mu, 0.0);
        EXPECT_LE(mu, 3.0);
    }
}

TEST(RetentionModel, SampleVrtMuMatchesRateShape)
{
    // The fraction of arrivals with mu <= x must equal
    // rate(x) / rate(cap).
    RetentionModel m = modelB();
    Rng rng(22);
    uint64_t bits = 1000;
    double cap = 3.0;
    double x = 1.5;
    double expect = m.vrtCumulativeRate(x, bits) /
                    m.vrtCumulativeRate(cap, bits);
    int below = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        below += (m.sampleVrtMu(cap, rng) <= x);
    EXPECT_NEAR(static_cast<double>(below) / n, expect,
                0.02 + 3.0 * std::sqrt(expect / n));
}

TEST(RetentionModel, VrtArrivalHasNoToggling)
{
    RetentionModel m = modelB();
    Rng rng(23);
    for (int i = 0; i < 100; ++i) {
        WeakCell c = m.sampleVrtArrival(2.0, rng);
        EXPECT_FALSE(c.togglesVrt);
        EXPECT_EQ(c.vrtState, 0);
    }
}

TEST(RetentionModel, VendorsDiffer)
{
    RetentionModel a{vendorParams(Vendor::A)};
    RetentionModel b{vendorParams(Vendor::B)};
    RetentionModel c{vendorParams(Vendor::C)};
    EXPECT_LT(a.berAt(1.024, 45.0), b.berAt(1.024, 45.0));
    EXPECT_LT(b.berAt(1.024, 45.0), c.berAt(1.024, 45.0));
}

} // namespace
} // namespace dram
} // namespace reaper
