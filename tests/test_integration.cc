/**
 * @file
 * Cross-module integration tests: the full REAPER pipeline exercised
 * end to end — device -> profiler -> (serialized) profile ->
 * mitigation mechanism -> ECC -> safety, for each mitigation
 * mechanism the library provides.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "reaper/reaper.h"

namespace reaper {
namespace {

dram::ModuleConfig
moduleConfig(uint64_t seed)
{
    dram::ModuleConfig mc;
    mc.numChips = 1;
    mc.chipCapacityBits = 2ull * 1024 * 1024 * 1024; // 256 MB
    mc.seed = seed;
    mc.envelope = {2.0, 50.0};
    mc.chipVariation = 0.0;
    return mc;
}

testbed::HostConfig
instantHost()
{
    testbed::HostConfig h;
    h.useChamber = false;
    return h;
}

profiling::RetentionProfile
reachProfileOf(dram::DramModule &module,
               profiling::Conditions target = {1.024, 45.0})
{
    testbed::SoftMcHost host(module, instantHost());
    profiling::ReachConfig cfg;
    cfg.target = target;
    cfg.deltaRefreshInterval = 0.250;
    cfg.iterations = 4;
    return profiling::ReachProfiler{}.run(host, cfg).profile;
}

TEST(Integration, FirmwareWithRaidrReducesRefreshSafely)
{
    dram::DramModule module(moduleConfig(1));
    testbed::SoftMcHost host(module, instantHost());
    mitigation::RaidrConfig rc;
    rc.totalRows = module.capacityBits() / (2048 * 8);
    rc.binIntervals = {0.064, 1.024};
    mitigation::Raidr raidr(rc);
    firmware::OnlineReaperConfig cfg;
    cfg.target = {1.024, 45.0};
    firmware::OnlineReaper reaper(host, raidr, cfg);
    reaper.runFor(hoursToSec(20.0));

    // All but the profiled rows refresh 16x slower.
    EXPECT_LT(raidr.refreshWorkRelative(), 0.10);
    EXPECT_GT(raidr.stats().protectedRows, 0u);
    auto audit = reaper.auditSafety();
    EXPECT_TRUE(audit.safe)
        << audit.uncovered << " vs " << audit.tolerable;
}

TEST(Integration, FirmwareWithBloomRaidr)
{
    dram::DramModule module(moduleConfig(2));
    testbed::SoftMcHost host(module, instantHost());
    mitigation::RaidrConfig rc;
    rc.totalRows = module.capacityBits() / (2048 * 8);
    rc.useBloomFilters = true;
    rc.bloomExpectedRows = 4096;
    mitigation::Raidr raidr(rc);
    firmware::OnlineReaperConfig cfg;
    cfg.target = {1.024, 45.0};
    firmware::OnlineReaper reaper(host, raidr, cfg);
    reaper.profileOnce();
    // Bloom filters have no false negatives: safety must still hold.
    auto audit = reaper.auditSafety();
    EXPECT_TRUE(audit.safe);
    EXPECT_GT(raidr.bloomStorageBits(), 0u);
}

TEST(Integration, FirmwareWithRowMapOut)
{
    dram::DramModule module(moduleConfig(3));
    testbed::SoftMcHost host(module, instantHost());
    mitigation::RowMapConfig rc;
    rc.totalRows = module.capacityBits() / (2048 * 8);
    rc.maxMappedFraction = 0.05;
    mitigation::RowMapOut rowmap(rc);
    firmware::OnlineReaperConfig cfg;
    cfg.target = {1.024, 45.0};
    firmware::OnlineReaper reaper(host, rowmap, cfg);
    reaper.profileOnce();
    EXPECT_FALSE(rowmap.budgetExceeded());
    EXPECT_GT(rowmap.mappedRows(), 0u);
    EXPECT_TRUE(reaper.auditSafety().safe);
}

TEST(Integration, ProfileSurvivesSerializationIntoMitigation)
{
    // Profile -> save -> (reboot) -> load -> ArchShield behaves
    // identically.
    dram::DramModule module(moduleConfig(4));
    profiling::RetentionProfile original = reachProfileOf(module);
    ASSERT_GT(original.size(), 50u);

    std::stringstream persisted;
    ASSERT_TRUE(profiling::writeProfile(original, persisted,
                                        profiling::ProfileFormat::TextV1)
                    .hasValue());
    common::Expected<profiling::RetentionProfile> loaded =
        profiling::readProfile(
            profiling::ProfileSource::fromMemory(persisted.str()));
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    const profiling::RetentionProfile &restored = loaded.value();

    mitigation::ArchShieldConfig ac;
    ac.capacityBits = module.capacityBits();
    mitigation::ArchShield from_original(ac), from_restored(ac);
    from_original.applyProfile(original);
    from_restored.applyProfile(restored);
    for (const auto &cell : module.trueFailingSet(1.024, 45.0)) {
        EXPECT_EQ(from_original.covers(cell),
                  from_restored.covers(cell));
    }
}

TEST(Integration, EscapedFailuresFitEccBudgetInProtectedMemory)
{
    // The Section 6.2 contract, executed on real data words: inject
    // the failures that escape a reach profile into SECDED-protected
    // memory and verify a scrub corrects all of them.
    dram::DramModule module(moduleConfig(5));
    profiling::RetentionProfile profile = reachProfileOf(module);
    auto truth = module.trueFailingSet(1.024, 45.0);

    std::vector<uint64_t> escaped;
    for (const auto &cell : truth) {
        if (!profile.contains(cell))
            escaped.push_back(cell.addr);
    }
    double tolerable = ecc::tolerableBitErrors(
        ecc::kConsumerUber, ecc::EccConfig::secded(),
        module.capacityBits());
    ASSERT_LE(static_cast<double>(escaped.size()), tolerable);

    ecc::EccProtectedMemory mem(module.capacityBits());
    Rng rng(6);
    // Back the escaped cells' words with real data.
    for (uint64_t addr : escaped)
        mem.writeWord(addr / 64, rng());
    mem.injectFailures(escaped);
    auto report = mem.scrub();
    EXPECT_EQ(report.uncorrectable, 0u);
    EXPECT_EQ(report.corrected, escaped.size());
}

TEST(Integration, RapidRankedByTwoIntervalProfiles)
{
    // REAPER profiles at two target intervals feed RAPID's ranking;
    // a partial allocation then runs at the long interval.
    dram::DramModule module(moduleConfig(7));
    profiling::RetentionProfile at_256 =
        reachProfileOf(module, {0.256, 45.0});
    profiling::RetentionProfile at_1024 =
        reachProfileOf(module, {1.024, 45.0});

    mitigation::RapidConfig rc;
    rc.totalRows = module.capacityBits() / (2048 * 8);
    rc.profiledIntervals = {0.256, 1.024};
    mitigation::Rapid rapid(rc);
    rapid.applyRankedProfiles({at_256, at_1024});

    auto census = rapid.classCensus();
    ASSERT_EQ(census.size(), 3u);
    EXPECT_GT(census[1] + census[2], 0u);
    // Allocating just the clean rows supports the 1024 ms interval.
    EXPECT_DOUBLE_EQ(rapid.refreshIntervalFor(census[0]), 1.024);
    // Full occupancy cannot (some rows fail even at 256 ms... if any).
    EXPECT_LE(rapid.refreshIntervalFor(rc.totalRows), 1.024);
}

TEST(Integration, TraceFileDrivesSimulator)
{
    // Generate -> save -> load -> simulate.
    const workload::BenchmarkSpec &spec =
        workload::benchmarkByName("milc");
    sim::Trace t =
        workload::generateTrace(spec, 5000, 11, 1ull << 32);
    std::string path = ::testing::TempDir() + "reaper_itrace.txt";
    sim::saveTraceFile(t, path);
    std::vector<sim::Trace> loaded = {sim::loadTraceFile(path)};
    std::remove(path.c_str());

    sim::SystemConfig cfg;
    cfg.channels = 2;
    cfg.setDram(8, 0.064);
    sim::System sys(cfg, loaded);
    sys.run(50000);
    EXPECT_GT(sys.stats().coreIpc.at(0), 0.0);
}

TEST(Integration, OverheadModelMatchesFirmwareMeasurement)
{
    // The analytic Eq. 8/9 overhead and the firmware's measured
    // profiling share must agree for the same scenario.
    dram::DramModule module(moduleConfig(8));
    testbed::SoftMcHost host(module, instantHost());
    mitigation::ArchShieldConfig ac;
    ac.capacityBits = module.capacityBits();
    mitigation::ArchShield shield(ac);
    firmware::OnlineReaperConfig cfg;
    cfg.target = {1.024, 45.0};
    firmware::OnlineReaper reaper(host, shield, cfg);
    Seconds interval = reaper.scheduledReprofileInterval();
    reaper.runFor(3.0 * interval);

    double measured = reaper.overheadFraction();
    // Analytic: reach round time over the reprofiling interval.
    double expected = reaper.log().front().roundTime /
                      (reaper.log().front().roundTime + interval);
    EXPECT_NEAR(measured, expected, expected * 0.5 + 0.002);
}

} // namespace
} // namespace reaper
