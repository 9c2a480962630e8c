/**
 * @file
 * Tests for the functional DRAM device: exposure semantics, failure
 * sampling, determinism, temperature behaviour, VRT dynamics, and the
 * oracle interface.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "common/units.h"
#include "dram/device.h"

namespace reaper {
namespace dram {
namespace {

/** A small chip (64 MB) keeps populations tiny and tests fast. */
DeviceConfig
smallConfig(uint64_t seed = 1)
{
    DeviceConfig cfg;
    cfg.capacityBits = 512ull * 1024 * 1024; // 64 MB
    cfg.seed = seed;
    cfg.envelope = {2.5, 50.0};
    return cfg;
}

/** A larger chip (512 MB) for statistical assertions. */
DeviceConfig
statsConfig(uint64_t seed = 1)
{
    DeviceConfig cfg;
    cfg.capacityBits = 4ull * 1024 * 1024 * 1024; // 512 MB
    cfg.seed = seed;
    cfg.envelope = {2.5, 50.0};
    return cfg;
}

TEST(DramDevice, NoFailuresBeforeWrite)
{
    DramDevice d(smallConfig());
    EXPECT_TRUE(d.readAndCompare().empty());
}

TEST(DramDevice, NoFailuresWithRefreshEnabled)
{
    DramDevice d(smallConfig());
    d.writePattern(DataPattern::Random);
    d.wait(10.0); // refresh enabled: no exposure accumulates
    EXPECT_TRUE(d.readAndCompare().empty());
    EXPECT_EQ(d.exposureEquivalent(), 0.0);
}

TEST(DramDevice, FailuresAppearAfterExposure)
{
    DramDevice d(statsConfig());
    d.writePattern(DataPattern::Random);
    d.disableRefresh();
    d.wait(2.0);
    d.enableRefresh();
    auto fails = d.readAndCompare();
    EXPECT_GT(fails.size(), 0u);
}

TEST(DramDevice, RepeatedReadsConsistent)
{
    DramDevice d(statsConfig());
    d.writePattern(DataPattern::Checkerboard);
    d.disableRefresh();
    d.wait(2.0);
    d.enableRefresh();
    auto a = d.readAndCompare();
    auto b = d.readAndCompare();
    EXPECT_EQ(a, b);
}

TEST(DramDevice, FailuresMonotoneInExposure)
{
    DramDevice d(statsConfig());
    d.writePattern(DataPattern::Random);
    d.disableRefresh();
    d.wait(1.0);
    auto early = d.readAndCompare();
    d.wait(1.0);
    auto late = d.readAndCompare();
    EXPECT_GE(late.size(), early.size());
    // Every early failure persists (retention loss is not undone).
    EXPECT_TRUE(std::includes(late.begin(), late.end(), early.begin(),
                              early.end()));
}

TEST(DramDevice, FailuresLatchAfterRefreshReenabled)
{
    // Algorithm 1 re-enables refresh before reading: refresh restores
    // the (already wrong) value, so failures must still be visible.
    DramDevice d(statsConfig());
    d.writePattern(DataPattern::Random);
    d.disableRefresh();
    d.wait(2.0);
    d.enableRefresh();
    d.wait(5.0); // refreshed while holding the corrupted data
    auto fails = d.readAndCompare();
    EXPECT_GT(fails.size(), 0u);
}

TEST(DramDevice, WriteResetsExposure)
{
    DramDevice d(statsConfig());
    d.writePattern(DataPattern::Random);
    d.disableRefresh();
    d.wait(2.0);
    d.enableRefresh();
    ASSERT_GT(d.readAndCompare().size(), 0u);
    d.writePattern(DataPattern::Random);
    EXPECT_EQ(d.exposureEquivalent(), 0.0);
    EXPECT_TRUE(d.readAndCompare().empty());
}

TEST(DramDevice, DeterministicAcrossInstances)
{
    auto run = [](uint64_t seed) {
        DramDevice d(smallConfig(seed));
        d.writePattern(DataPattern::Random);
        d.disableRefresh();
        d.wait(2.0);
        d.enableRefresh();
        return d.readAndCompare();
    };
    EXPECT_EQ(run(5), run(5));
    // Different seeds produce different populations.
    DramDevice a(smallConfig(1)), b(smallConfig(2));
    EXPECT_NE(a.weakCellCount(), 0u);
    // Cell counts may coincide, but addresses will not.
}

TEST(DramDevice, FailureCountTracksExpectedBer)
{
    // Union over many patterns/iterations approaches the true failing
    // set; a single random-pattern read sees a large fraction of the
    // cells with mu <= t. Check the order of magnitude band.
    DramDevice d(statsConfig(3));
    double t = 2.0;
    double expected =
        d.expectedBer(t, 45.0) * static_cast<double>(
            d.config().capacityBits);
    ASSERT_GT(expected, 50.0);
    d.writePattern(DataPattern::Random);
    d.disableRefresh();
    d.wait(t);
    d.enableRefresh();
    auto fails = d.readAndCompare();
    EXPECT_GT(static_cast<double>(fails.size()), expected * 0.2);
    EXPECT_LT(static_cast<double>(fails.size()), expected * 3.0);
}

TEST(DramDevice, HigherTemperatureMoreFailures)
{
    uint64_t f45, f50;
    {
        DramDevice d(statsConfig(4));
        d.setTemperature(45.0);
        d.writePattern(DataPattern::Random);
        d.disableRefresh();
        d.wait(1.5);
        f45 = d.readAndCompare().size();
    }
    {
        DramDevice d(statsConfig(4));
        d.setTemperature(50.0);
        d.writePattern(DataPattern::Random);
        d.disableRefresh();
        d.wait(1.5);
        f50 = d.readAndCompare().size();
    }
    ASSERT_GT(f45, 0u);
    // Eq. 1: ~e (2.7x) more failures for +5 C; allow a wide band.
    EXPECT_GT(static_cast<double>(f50),
              1.5 * static_cast<double>(f45));
}

TEST(DramDevice, TemperatureAboveEnvelopeIsFatal)
{
    DramDevice d(smallConfig());
    EXPECT_EXIT(d.setTemperature(55.0),
                ::testing::ExitedWithCode(1), "envelope");
}

TEST(DramDevice, ExposureBeyondEnvelopeIsFatal)
{
    DramDevice d(smallConfig());
    d.writePattern(DataPattern::Solid0);
    d.disableRefresh();
    EXPECT_EXIT(d.wait(10.0), ::testing::ExitedWithCode(1), "envelope");
}

TEST(DramDevice, TrueFailingSetMonotoneInInterval)
{
    DramDevice d(statsConfig(5));
    auto small = d.trueFailingSet(1.0, 45.0);
    auto large = d.trueFailingSet(2.0, 45.0);
    EXPECT_GT(large.size(), small.size());
    EXPECT_TRUE(std::includes(large.begin(), large.end(), small.begin(),
                              small.end()));
}

TEST(DramDevice, TrueFailingSetMonotoneInPmin)
{
    DramDevice d(statsConfig(6));
    auto loose = d.trueFailingSet(1.5, 45.0, 0.01);
    auto strict = d.trueFailingSet(1.5, 45.0, 0.5);
    EXPECT_GE(loose.size(), strict.size());
    EXPECT_TRUE(std::includes(loose.begin(), loose.end(), strict.begin(),
                              strict.end()));
}

TEST(DramDevice, TrueFailingSetCountNearExpectedBer)
{
    DramDevice d(statsConfig(7));
    double t = 1.5;
    auto truth = d.trueFailingSet(t, 45.0, 0.5);
    double expected =
        d.expectedBer(t, 45.0) *
        static_cast<double>(d.config().capacityBits);
    // pmin=0.5 counts cells with mu <= t (the CDF median), which is the
    // closed-form BER integral; agree within sampling noise.
    EXPECT_NEAR(static_cast<double>(truth.size()), expected,
                6.0 * std::sqrt(expected) + 0.05 * expected);
}

TEST(DramDevice, VrtArrivalsAccumulateOverTime)
{
    DramDevice d(statsConfig(8));
    EXPECT_EQ(d.activeVrtCount(), 0u);
    d.wait(hoursToSec(12.0));
    EXPECT_GT(d.activeVrtCount(), 0u);
}

TEST(DramDevice, VrtPopulationReachesSteadyState)
{
    // Arrivals are balanced by expiries: the active count after 2x the
    // dwell should be within a factor band of the steady state
    // rate * dwell.
    DramDevice d(statsConfig(9));
    double dwell_h = d.model().params().vrtDwellMeanHours;
    d.wait(hoursToSec(6.0 * dwell_h));
    double steady =
        d.model().vrtCumulativeRate(
            d.model().envelopeMuCap(d.config().envelope),
            d.config().capacityBits) *
        3600.0 * dwell_h;
    ASSERT_GT(steady, 20.0);
    EXPECT_NEAR(static_cast<double>(d.activeVrtCount()), steady,
                0.5 * steady);
}

TEST(DramDevice, NewFailuresDiscoveredOverTime)
{
    // Fig. 3's mechanism: profiling rounds separated by hours discover
    // new (VRT) failures.
    DramDevice d(statsConfig(10));
    auto round = [&d]() {
        std::set<uint64_t> found;
        d.writePattern(DataPattern::Random);
        d.disableRefresh();
        d.wait(2.0);
        d.enableRefresh();
        for (uint64_t a : d.readAndCompare())
            found.insert(a);
        return found;
    };
    auto first = round();
    d.wait(hoursToSec(24.0));
    auto second = round();
    size_t new_cells = 0;
    for (uint64_t a : second)
        new_cells += first.count(a) == 0;
    EXPECT_GT(new_cells, 0u);
}

TEST(DramDevice, WeakCellCountScalesWithCapacity)
{
    DramDevice small(smallConfig(11));
    DeviceConfig big_cfg = smallConfig(11);
    big_cfg.capacityBits *= 8;
    DramDevice big(big_cfg);
    double ratio = static_cast<double>(big.weakCellCount()) /
                   static_cast<double>(small.weakCellCount());
    EXPECT_NEAR(ratio, 8.0, 2.5);
}

TEST(DramDevice, NegativeWaitPanics)
{
    DramDevice d(smallConfig());
    EXPECT_DEATH(d.wait(-1.0), "negative");
}

// ---- Optimized read path vs. the reference (seed) implementation ----
//
// readAndCompare/trueFailingSet were rewritten around a sorted
// structure-of-arrays index with a 5-sigma fast-reject sweep and
// memoized temperature factors; the *Reference() methods pin the
// original per-cell implementation. The two must agree bit-exactly.

TEST(DramDeviceReadPath, MatchesReferenceAcrossPatterns)
{
    DramDevice d(statsConfig(31));
    for (DataPattern p : allDataPatterns()) {
        d.writePattern(p);
        d.disableRefresh();
        d.wait(1.8);
        d.enableRefresh();
        EXPECT_EQ(d.readAndCompare(), d.readAndCompareReference());
    }
}

TEST(DramDeviceReadPath, MatchesReferenceAcrossTemperatures)
{
    for (Celsius temp : {40.0, 45.0, 48.0}) {
        DramDevice d(statsConfig(32));
        d.setTemperature(temp);
        d.writePattern(DataPattern::Random);
        d.disableRefresh();
        d.wait(1.5);
        d.enableRefresh();
        EXPECT_EQ(d.readAndCompare(), d.readAndCompareReference());
    }
}

TEST(DramDeviceReadPath, MatchesReferenceAcrossExposures)
{
    DramDevice d(statsConfig(33));
    d.writePattern(DataPattern::ColStripe);
    d.disableRefresh();
    for (int step = 0; step < 4; ++step) {
        d.wait(0.5);
        EXPECT_EQ(d.readAndCompare(), d.readAndCompareReference());
    }
}

TEST(DramDeviceReadPath, MatchesReferenceWithActiveVrt)
{
    DramDevice d(statsConfig(34));
    d.wait(hoursToSec(24.0)); // populate the active VRT set
    ASSERT_GT(d.activeVrtCount(), 0u);
    d.writePattern(DataPattern::Random);
    d.disableRefresh();
    d.wait(1.8);
    d.enableRefresh();
    EXPECT_EQ(d.readAndCompare(), d.readAndCompareReference());
}

TEST(DramDeviceReadPath, TrueFailingSetMatchesReference)
{
    DramDevice d(statsConfig(35));
    for (Celsius temp : {40.0, 45.0, 48.0}) {
        for (Seconds t : {0.8, 1.5, 2.2}) {
            for (double pmin : {0.01, 0.05, 0.5}) {
                EXPECT_EQ(d.trueFailingSet(t, temp, pmin),
                          d.trueFailingSetReference(t, temp, pmin));
            }
        }
    }
}

TEST(DramDeviceReadPath, TrueFailingSetMatchesReferenceWithVrt)
{
    DramDevice d(statsConfig(36));
    d.wait(hoursToSec(24.0));
    ASSERT_GT(d.activeVrtCount(), 0u);
    EXPECT_EQ(d.trueFailingSet(1.5, 45.0),
              d.trueFailingSetReference(1.5, 45.0));
}

TEST(DramDeviceReadPath, ScratchReuseIsConsistent)
{
    // The Into variants reuse a member buffer; repeated and
    // interleaved calls must keep returning the same content as the
    // copying API.
    DramDevice d(statsConfig(37));
    d.writePattern(DataPattern::Checkerboard);
    d.disableRefresh();
    d.wait(1.8);
    d.enableRefresh();
    auto copy = d.readAndCompare();
    EXPECT_EQ(d.readAndCompareInto(), copy);
    EXPECT_EQ(d.readAndCompareInto(), copy);
    auto truth_copy = d.trueFailingSet(1.5, 45.0);
    EXPECT_EQ(d.trueFailingSetInto(1.5, 45.0), truth_copy);
    EXPECT_EQ(d.readAndCompareInto(), copy); // interleaved
}

// ---- The bracketed decision vs. the exact latent failure time ----
//
// readAndCompareInto decides each candidate from the quantile bracket
// of its draw and evaluates normalQuantile only when the bracket
// cannot settle the outcome; readAndCompareReference compares against
// latentFailureTime for every candidate. The sweeps below cover every
// input of that decision: vendor and seed (the population), data
// pattern (static and random DPD factors), temperature (exposure scale
// and CDF narrowing), exposure up to the envelope, repeated
// restoreData() windows (fresh draws), active VRT arrivals, and
// parameter overrides at the edges of the bracket's assumptions.

/**
 * Every data pattern at `temp`, three restoreData() windows each with
 * exposure stepped up to the envelope, the optimized read checked
 * against the reference after every step. Returns the failing cells
 * seen, so callers can assert the sweep saw failures at all.
 */
size_t
sweepAgainstReference(DramDevice &d, Celsius temp)
{
    size_t seen = 0;
    d.setTemperature(temp);
    const Seconds step = d.config().envelope.maxInterval / 4;
    for (DataPattern p : allDataPatterns()) {
        d.writePattern(p);
        d.disableRefresh();
        for (int window = 0; window < 3; ++window) {
            if (window > 0)
                d.restoreData();
            for (int k = 1; k <= 4; ++k) {
                d.wait(step);
                std::vector<uint64_t> fast = d.readAndCompare();
                EXPECT_EQ(fast, d.readAndCompareReference())
                    << toString(p) << " at " << temp << " C, window "
                    << window << ", exposure step " << k;
                seen += fast.size();
            }
        }
        d.enableRefresh();
    }
    return seen;
}

DeviceConfig
overrideConfig(Vendor v, uint64_t seed, RetentionParams params)
{
    DeviceConfig cfg = smallConfig(seed);
    cfg.vendor = v;
    cfg.hasParamOverride = true;
    cfg.paramOverride = params;
    return cfg;
}

TEST(DramDeviceReadPath, MatchesReferenceAcrossVendorsSeedsPatterns)
{
    for (Vendor v : {Vendor::A, Vendor::B, Vendor::C}) {
        for (uint64_t seed : {51, 52, 53}) {
            for (Celsius temp : {40.0, 45.0, 48.0}) {
                DeviceConfig cfg = smallConfig(seed);
                cfg.vendor = v;
                DramDevice d(cfg);
                EXPECT_GT(sweepAgainstReference(d, temp), 0u)
                    << toString(v) << " seed " << seed;
            }
        }
    }
}

TEST(DramDeviceReadPath, MatchesReferenceAcrossPatternsWithActiveVrt)
{
    for (Vendor v : {Vendor::A, Vendor::B, Vendor::C}) {
        DeviceConfig cfg = statsConfig(54);
        cfg.vendor = v;
        DramDevice d(cfg);
        d.wait(hoursToSec(24.0)); // populate the active VRT set
        ASSERT_GT(d.activeVrtCount(), 0u) << toString(v);
        EXPECT_GT(sweepAgainstReference(d, 45.0), 0u) << toString(v);
    }
}

TEST(DramDeviceReadPath, MatchesReferenceWithUnitDpdFactor)
{
    // dpdMaxFactor = 1 makes every DPD factor exactly 1: the
    // unit-factor bound is tight for every cell.
    for (Vendor v : {Vendor::A, Vendor::B, Vendor::C}) {
        RetentionParams params = vendorParams(v);
        params.dpdMaxFactor = 1.0;
        DramDevice d(overrideConfig(v, 55, params));
        EXPECT_GT(sweepAgainstReference(d, 45.0), 0u) << toString(v);
    }
}

TEST(DramDeviceReadPath, MatchesReferenceWithSubUnitDpdFactor)
{
    // dpdMaxFactor < 1 yields factors below 1, where the unit-factor
    // bound does not hold; the read must skip it.
    RetentionParams params = vendorParams(Vendor::B);
    params.dpdMaxFactor = 0.8;
    DramDevice d(overrideConfig(Vendor::B, 56, params));
    EXPECT_GT(sweepAgainstReference(d, 45.0), 0u);
}

TEST(DramDeviceReadPath, MatchesReferenceWithDegenerateSpread)
{
    // Near-zero and zero sigma collapse the bracket onto mu_eff.
    for (double max_rel : {1e-9, 0.0}) {
        RetentionParams params = vendorParams(Vendor::A);
        params.maxSigmaRel = max_rel;
        DramDevice d(overrideConfig(Vendor::A, 57, params));
        EXPECT_GT(sweepAgainstReference(d, 45.0), 0u)
            << "maxSigmaRel " << max_rel;
    }
}

TEST(DramDeviceReadPath, ExposureEqualToLatentTimeFails)
{
    // For cells across the failing set, bisect each exact latent time L
    // and check the optimized read at L (the cell must fail) and one ulp
    // below (it must not). At the reference temperature the exposure
    // scale is exp(0) = 1, so one wait(dt) after a write leaves the
    // exposure at exactly dt; bisecting dt over fresh, identical devices
    // (on the bit patterns of positive doubles, which order like the
    // values) finds the smallest exposure at which the reference read
    // reports the cell. Exposure L lies inside the cell's quantile
    // bracket, so this pins the exact comparison at its tightest point.
    const DeviceConfig cfg = smallConfig(58);
    auto fails = [&](DataPattern p, uint64_t dt_bits, uint64_t addr,
                     bool reference) {
        DramDevice d(cfg);
        d.writePattern(p);
        d.disableRefresh();
        d.wait(std::bit_cast<double>(dt_bits));
        std::vector<uint64_t> out = reference
                                        ? d.readAndCompareReference()
                                        : d.readAndCompare();
        return std::binary_search(out.begin(), out.end(), addr);
    };
    for (DataPattern p : {DataPattern::Checkerboard, DataPattern::Random}) {
        DramDevice probe(cfg);
        probe.writePattern(p);
        probe.disableRefresh();
        probe.wait(1.0);
        std::vector<uint64_t> failing = probe.readAndCompareReference();
        ASSERT_GE(failing.size(), 8u);
        for (size_t n = 0; n < 8; ++n) {
            uint64_t addr = failing[n * failing.size() / 8];
            uint64_t lo = 0; // dt = 0: no exposure, nothing fails
            uint64_t hi = std::bit_cast<uint64_t>(1.0);
            while (hi - lo > 1) {
                uint64_t mid = lo + (hi - lo) / 2;
                (fails(p, mid, addr, true) ? hi : lo) = mid;
            }
            EXPECT_TRUE(fails(p, hi, addr, false))
                << toString(p) << " cell " << addr << " at L = "
                << std::bit_cast<double>(hi);
            EXPECT_FALSE(fails(p, lo, addr, false))
                << toString(p) << " cell " << addr << " below L";
        }
    }
}

TEST(DramDeviceReadPath, FewCandidatesNeedTheExactQuantile)
{
    // The bracket settles almost every candidate; the share left to
    // normalQuantile is what the read path still pays per cell.
    DramDevice d(statsConfig(59));
    d.writePattern(DataPattern::Random);
    d.disableRefresh();
    d.wait(1.024);
    DramDevice::ReadDecisionCensus census = d.readDecisionCensus();
    ASSERT_GT(census.candidates, 1000u);
    RecordProperty("candidates", static_cast<int>(census.candidates));
    RecordProperty("exact", static_cast<int>(census.exact));
    EXPECT_LT(static_cast<double>(census.exact),
              0.01 * static_cast<double>(census.candidates));
}

// ---- The radix-sorted read output ----
//
// readAndCompareInto radix-sorts the failing addresses and drops
// duplicates; readAndCompareReference uses std::sort. The checks below
// put weak cells, VRT arrivals and disturb flips in one read, with
// addresses from 23 bits (3 digit passes) to 36 bits (4 passes).

/** Vendor B scaled so a read holds VRT arrivals, dense retention
 *  failures (ber_scale) and dense disturb victims. */
DeviceConfig
mixedSourceConfig(uint64_t capacity_bits, Seconds max_interval,
                  double ber_scale, uint64_t seed)
{
    DeviceConfig cfg;
    cfg.capacityBits = capacity_bits;
    cfg.seed = seed;
    cfg.envelope = {max_interval, 50.0};
    cfg.hasParamOverride = true;
    cfg.paramOverride = vendorParams(Vendor::B);
    cfg.paramOverride.berAt1024ms *= ber_scale;
    cfg.paramOverride.vrtRateAt1024ms *= 50.0;
    cfg.hasDisturbOverride = true;
    cfg.disturbOverride = vendorDisturbParams(Vendor::B);
    cfg.disturbOverride.victimsPerRowMean = 1500.0;
    return cfg;
}

/**
 * Read `d` after an exposure of `t` with every other row of
 * [first_row, first_row + rows) hammered, and check the read against
 * the reference and against the union of its sources: retention
 * failures (a copy that is not hammered) and disturb flips (a copy
 * hammered with no exposure). Returns how many addresses both sources
 * named, i.e. the duplicates unique() had to drop.
 */
size_t
checkMixedSourceRead(DramDevice &d, uint64_t first_row, uint64_t rows,
                     Seconds t)
{
    d.wait(hoursToSec(24.0)); // VRT arrivals, refresh on: no exposure
    EXPECT_GT(d.activeVrtCount(), 0u);
    std::vector<uint64_t> aggressors;
    for (uint64_t r = first_row; r < first_row + rows; r += 2)
        aggressors.push_back(r);

    d.writePattern(DataPattern::Checkerboard);
    DramDevice flips_only = d;
    flips_only.hammer(aggressors, 1ull << 18);
    const std::vector<uint64_t> flips = flips_only.readAndCompare();

    d.disableRefresh();
    d.wait(t);
    DramDevice retention_only = d;
    const std::vector<uint64_t> retention = retention_only.readAndCompare();
    d.hammer(aggressors, 1ull << 18);
    const std::vector<uint64_t> got = d.readAndCompare();

    EXPECT_EQ(got, d.readAndCompareReference());
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
    std::vector<uint64_t> both;
    std::set_union(retention.begin(), retention.end(), flips.begin(),
                   flips.end(), std::back_inserter(both));
    EXPECT_EQ(got, both);
    EXPECT_GT(flips.size(), 0u);
    EXPECT_GT(retention.size(), 0u);
    ::testing::Test::RecordProperty("retention",
                                    static_cast<int>(retention.size()));
    ::testing::Test::RecordProperty("flips",
                                    static_cast<int>(flips.size()));
    ::testing::Test::RecordProperty("active_vrt",
                                    static_cast<int>(d.activeVrtCount()));
    return retention.size() + flips.size() - got.size();
}

TEST(DramDeviceReadPath, RadixSortedReadMatchesReferenceOnTinyChip)
{
    // 1 MB: 512 rows, every other one hammered, so disturb flips are
    // dense enough to hit retention failures and VRT arrivals.
    DramDevice d(mixedSourceConfig(8ull << 20, 2.5, 1000.0, 61));
    const uint64_t rows = d.geometry().totalRows();
    EXPECT_GT(checkMixedSourceRead(d, 0, rows, 2.0), 0u)
        << "no address was both a retention failure and a disturb "
           "flip, so unique() dropped nothing";
}

TEST(DramDeviceReadPath, RadixSortedReadMatchesReferenceOn64GbChip)
{
    // 8 GB: addresses need 36 bits. A short envelope keeps the weak
    // population small; the hammered rows sit at the top of the chip.
    DramDevice d(mixedSourceConfig(64ull << 30, 0.5, 1.0, 62));
    const uint64_t rows = d.geometry().totalRows();
    checkMixedSourceRead(d, rows - 64, 64, 0.45);
    std::vector<uint64_t> got = d.readAndCompareInto();
    ASSERT_FALSE(got.empty());
    EXPECT_GT(got.back(), 1ull << 32);
    EXPECT_LT(got.front(), 1ull << 32)
        << "retention failures should spread below the hammered rows";
}

// ---- Copies share the population, not the dynamic state ----

/** Drive a device through toggles, arrivals, a write, a restore and a
 *  hammer, reading after each exposure. */
std::vector<std::vector<uint64_t>>
exerciseDevice(DramDevice &d)
{
    std::vector<std::vector<uint64_t>> reads;
    for (DataPattern p : {DataPattern::Random, DataPattern::RowStripe}) {
        d.wait(hoursToSec(6.0));
        d.writePattern(p);
        d.disableRefresh();
        d.wait(1.5);
        reads.push_back(d.readAndCompare());
        d.restoreData();
        d.hammer({1, 3}, 1ull << 18);
        d.wait(2.0);
        reads.push_back(d.readAndCompare());
        reads.push_back(d.trueFailingSet(2.0, 45.0));
        d.enableRefresh();
    }
    return reads;
}

TEST(DramDeviceCopy, CopyOfFreshDeviceBehavesLikeRebuilding)
{
    for (Vendor v : {Vendor::A, Vendor::B, Vendor::C}) {
        DeviceConfig cfg = smallConfig(63);
        cfg.vendor = v;
        const DramDevice pristine(cfg);
        DramDevice copy = pristine;
        DramDevice rebuilt(cfg);
        const std::vector<std::vector<uint64_t>> reads =
            exerciseDevice(copy);
        ASSERT_FALSE(reads.front().empty()) << toString(v);
        EXPECT_EQ(reads, exerciseDevice(rebuilt)) << toString(v);
        EXPECT_EQ(copy.activeVrtCount(), rebuilt.activeVrtCount());
        EXPECT_EQ(copy.now(), rebuilt.now());
        EXPECT_EQ(copy.weakCellCount(), rebuilt.weakCellCount());
    }
}

TEST(DramDeviceCopy, CopiesEvolveIndependently)
{
    const DramDevice pristine(smallConfig(64));
    DramDevice a = pristine;
    DramDevice b = pristine;
    const std::vector<std::vector<uint64_t>> want = exerciseDevice(a);
    // b starts where a started, whatever a went through.
    EXPECT_EQ(b.now(), 0.0);
    EXPECT_EQ(b.activeVrtCount(), 0u);
    EXPECT_EQ(exerciseDevice(b), want);
    // And the pristine device is untouched by either.
    DramDevice c = pristine;
    EXPECT_EQ(exerciseDevice(c), want);
}

TEST(DramDevice, SolidPatternsSeeFewerFailuresThanUnion)
{
    // A single static pattern cannot see cells whose worst pattern is a
    // different class (DPD, Observation 3).
    DramDevice d(statsConfig(12));
    double t = 2.0;
    std::set<uint64_t> unions;
    size_t solid0_count = 0;
    for (DataPattern p : allDataPatterns()) {
        d.writePattern(p);
        d.disableRefresh();
        d.wait(t);
        d.enableRefresh();
        auto fails = d.readAndCompare();
        if (p == DataPattern::Solid0)
            solid0_count = fails.size();
        unions.insert(fails.begin(), fails.end());
    }
    EXPECT_LT(solid0_count, unions.size());
}

} // namespace
} // namespace dram
} // namespace reaper
