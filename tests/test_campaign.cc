/**
 * @file
 * Tests for the campaign orchestration subsystem: journaled resume
 * (bit-identical store contents across interruption and worker
 * counts), fault injection with retry/backoff, and the persistent
 * profile store.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "campaign/campaign.h"
#include "common/rng.h"

namespace fs = std::filesystem;

namespace reaper {
namespace campaign {
namespace {

/** Fresh scratch directory for one test. */
std::string
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("reaper_" + name);
    fs::remove_all(dir);
    return dir.string();
}

/** Every file in a directory, name -> full contents. */
std::map<std::string, std::string>
dirContents(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &entry : fs::directory_iterator(dir)) {
        std::ifstream is(entry.path(), std::ios::binary);
        std::ostringstream ss;
        ss << is.rdbuf();
        out[entry.path().filename().string()] = ss.str();
    }
    return out;
}

/** Small 3-chip x 2-round campaign that still finds failing cells. */
CampaignConfig
smallCampaign(const std::string &dir, unsigned threads = 1)
{
    CampaignConfig cfg;
    cfg.dir = dir;
    cfg.name = "test-campaign";
    cfg.baseSeed = 42;
    cfg.chips = makeChipFleet(3, cfg.baseSeed,
                              1ull << 26 /* 8 MB */, {2.4, 52.0});
    RoundSpec brute;
    brute.target = {msToSec(1024.0), 45.0};
    brute.profiler = ProfilerKind::BruteForce;
    brute.iterations = 2;
    RoundSpec reach;
    reach.target = {msToSec(1536.0), 45.0};
    reach.profiler = ProfilerKind::Reach;
    reach.reachDeltaRefresh = 0.250;
    reach.iterations = 2;
    cfg.rounds = {brute, reach};
    cfg.host.useChamber = false; // instant temperature for test speed
    cfg.fleet.threads = threads;
    return cfg;
}

TEST(Campaign, CompletesAndPopulatesStore)
{
    CampaignConfig cfg = smallCampaign(scratchDir("complete"));
    CampaignStats stats = runCampaign(cfg);
    EXPECT_EQ(stats.tasksTotal, 6u);
    EXPECT_EQ(stats.roundsCompleted, 6u);
    EXPECT_EQ(stats.roundsThisRun, 6u);
    EXPECT_EQ(stats.roundsResumed, 0u);
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.faults.total(), 0u);
    EXPECT_TRUE(stats.complete());
    EXPECT_FALSE(stats.interrupted);

    ProfileStore store(cfg.dir + "/store");
    EXPECT_EQ(store.size(), 6u);
    for (size_t c = 0; c < cfg.chips.size(); ++c) {
        for (size_t r = 0; r < cfg.rounds.size(); ++r) {
            common::Expected<profiling::RetentionProfile> loaded =
                store.load(roundKey(cfg, c, r));
            ASSERT_TRUE(loaded.hasValue())
                << loaded.error().describe();
            const profiling::RetentionProfile &p = loaded.value();
            EXPECT_GT(p.size(), 0u);
            EXPECT_DOUBLE_EQ(p.conditions().refreshInterval,
                             cfg.rounds[r].target.refreshInterval);
        }
    }
}

TEST(Campaign, RerunOfCompleteCampaignIsANoOp)
{
    CampaignConfig cfg = smallCampaign(scratchDir("noop"));
    runCampaign(cfg);
    auto before = dirContents(cfg.dir + "/store");
    CampaignStats stats = runCampaign(cfg);
    EXPECT_EQ(stats.roundsThisRun, 0u);
    EXPECT_EQ(stats.roundsResumed, 6u);
    EXPECT_TRUE(stats.complete());
    EXPECT_EQ(dirContents(cfg.dir + "/store"), before);
}

/** Interrupt after k commits, resume, and require byte-identical
 *  store contents vs. the uninterrupted run — at 1 and 8 threads. */
TEST(Campaign, ResumeIsBitIdenticalAcrossInterruptAndThreads)
{
    CampaignConfig ref = smallCampaign(scratchDir("resume_ref"), 1);
    runCampaign(ref);
    auto want = dirContents(ref.dir + "/store");
    ASSERT_GE(want.size(), 7u); // 6 profiles + index

    for (unsigned threads : {1u, 8u}) {
        // Interrupt at 1 thread so the kill point is deterministic
        // (at N threads every task may already be in flight — and
        // in-flight rounds commit, exactly as under a real SIGKILL);
        // the resume leg then runs at the thread count under test.
        CampaignConfig cfg = smallCampaign(
            scratchDir("resume_t" + std::to_string(threads)), 1);
        cfg.interruptAfter = 2;
        CampaignStats killed = runCampaign(cfg);
        EXPECT_TRUE(killed.interrupted);
        EXPECT_EQ(killed.roundsThisRun, 2u);
        EXPECT_LT(killed.roundsCompleted, killed.tasksTotal);

        cfg.interruptAfter = 0;
        cfg.fleet.threads = threads;
        CampaignStats resumed = runCampaign(cfg);
        EXPECT_FALSE(resumed.interrupted);
        EXPECT_TRUE(resumed.complete());
        EXPECT_EQ(resumed.roundsResumed, killed.roundsCompleted);
        EXPECT_EQ(dirContents(cfg.dir + "/store"), want)
            << "store diverged at " << threads << " threads";
    }
}

/** Interrupt between a chip's two rounds: the resume builds that chip
 *  for its one pending round, and the store must still come out
 *  byte-identical to an uninterrupted run, at 1 and 4 threads. */
TEST(Campaign, ResumeSplittingAChipsRoundsIsBitIdentical)
{
    CampaignConfig ref = smallCampaign(scratchDir("split_ref"), 1);
    runCampaign(ref);
    auto want = dirContents(ref.dir + "/store");

    for (unsigned threads : {1u, 4u}) {
        // At 1 thread tasks run in (chip, round) order, so stopping
        // after 3 commits leaves chip 1 with round 0 done and round 1
        // pending.
        CampaignConfig cfg = smallCampaign(
            scratchDir("split_t" + std::to_string(threads)), 1);
        cfg.interruptAfter = 3;
        CampaignStats killed = runCampaign(cfg);
        ASSERT_TRUE(killed.interrupted);
        ASSERT_EQ(killed.roundsThisRun, 3u);
        ProfileStore partial(cfg.dir + "/store");
        EXPECT_TRUE(partial.load(roundKey(cfg, 1, 0)).hasValue());
        EXPECT_FALSE(partial.load(roundKey(cfg, 1, 1)).hasValue());

        cfg.interruptAfter = 0;
        cfg.fleet.threads = threads;
        CampaignStats resumed = runCampaign(cfg);
        EXPECT_TRUE(resumed.complete());
        EXPECT_EQ(resumed.roundsThisRun, 3u);
        EXPECT_EQ(dirContents(cfg.dir + "/store"), want)
            << "store diverged at " << threads << " threads";
    }
}

TEST(Campaign, ResumeSurvivesTornJournalTail)
{
    CampaignConfig ref = smallCampaign(scratchDir("torn_ref"));
    runCampaign(ref);
    auto want = dirContents(ref.dir + "/store");

    CampaignConfig cfg = smallCampaign(scratchDir("torn"));
    cfg.interruptAfter = 3;
    runCampaign(cfg);
    {
        // A kill mid-append leaves a partial final line.
        std::ofstream os(cfg.dir + "/journal.log", std::ios::app);
        os << "done 2 1 17";
    }
    cfg.interruptAfter = 0;
    CampaignStats resumed = runCampaign(cfg);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(dirContents(cfg.dir + "/store"), want);
}

TEST(Campaign, FaultInjectionConvergesToFaultFreeProfiles)
{
    CampaignConfig ref = smallCampaign(scratchDir("faults_ref"));
    runCampaign(ref);
    auto want = dirContents(ref.dir + "/store");

    CampaignConfig cfg = smallCampaign(scratchDir("faults"));
    // A round spans ~120 host commands, so per-command rates compound
    // into a sizable per-attempt abort probability; keep them low
    // enough that 25 attempts cannot plausibly all fail.
    cfg.faults.seed = 7;
    cfg.faults.commandTimeoutRate = 0.002;
    cfg.faults.settleFailureRate = 0.1;
    cfg.faults.readCorruptionRate = 0.01;
    cfg.retry.maxAttempts = 25;
    CampaignStats stats = runCampaign(cfg);

    EXPECT_TRUE(stats.complete());
    EXPECT_GT(stats.faults.total(), 0u) << "fault schedule never fired";
    // Every injected fault aborts exactly one attempt, so the retry
    // counter must match the injected schedule exactly.
    EXPECT_EQ(stats.retries, stats.faults.total());
    EXPECT_EQ(stats.attempts,
              stats.roundsCompleted + stats.faults.total());
    EXPECT_GT(stats.backoffTime, 0.0);
    // Faults are detected-and-retried, never absorbed into results:
    // the store is byte-identical to the fault-free campaign.
    EXPECT_EQ(dirContents(cfg.dir + "/store"), want);

    // The schedule is deterministic: an identical campaign in a fresh
    // directory reproduces the same counters.
    CampaignConfig again = cfg;
    again.dir = scratchDir("faults_again");
    CampaignStats stats2 = runCampaign(again);
    EXPECT_EQ(stats2.faults, stats.faults);
    EXPECT_EQ(stats2.retries, stats.retries);
    EXPECT_EQ(stats2.attempts, stats.attempts);
}

TEST(Campaign, RetriesDisabledPropagatesError)
{
    CampaignConfig cfg = smallCampaign(scratchDir("noretry"));
    cfg.faults.seed = 7;
    cfg.faults.commandTimeoutRate = 0.5;
    cfg.retry.maxAttempts = 1;
    EXPECT_THROW(runCampaign(cfg), CampaignError);
    // No partial/torn state: whatever was committed before the error
    // is loadable, and the resumed (fault-free) campaign completes to
    // the reference contents.
    ProfileStore store(cfg.dir + "/store");
    for (const StoreEntry &e : store.entries()) {
        common::Expected<profiling::RetentionProfile> loaded =
            store.load(e.key);
        EXPECT_TRUE(loaded.hasValue()) << loaded.error().describe();
    }
    cfg.faults = {};
    CampaignStats resumed = runCampaign(cfg);
    EXPECT_TRUE(resumed.complete());
    CampaignConfig ref = smallCampaign(scratchDir("noretry_ref"));
    runCampaign(ref);
    auto want = dirContents(ref.dir + "/store");
    auto got = dirContents(cfg.dir + "/store");
    // The interrupted campaign journaled surviving faults; only the
    // store (the deliverable) must match, and it must bit-match.
    EXPECT_EQ(got, want);
}

TEST(Campaign, MismatchedFingerprintRefusesResume)
{
    CampaignConfig cfg = smallCampaign(scratchDir("fingerprint"));
    cfg.interruptAfter = 1;
    runCampaign(cfg);
    cfg.interruptAfter = 0;
    cfg.baseSeed = 43;
    cfg.chips = makeChipFleet(3, cfg.baseSeed, 1ull << 26,
                              {2.4, 52.0});
    EXPECT_THROW(runCampaign(cfg), CampaignError);
}

TEST(Campaign, ValidatesConfig)
{
    CampaignConfig cfg = smallCampaign(scratchDir("validate"));
    cfg.chips.clear();
    EXPECT_THROW(runCampaign(cfg), CampaignError);

    cfg = smallCampaign(scratchDir("validate"));
    cfg.rounds.clear();
    EXPECT_THROW(runCampaign(cfg), CampaignError);

    cfg = smallCampaign(scratchDir("validate"));
    cfg.chips[1].id = cfg.chips[0].id;
    EXPECT_THROW(runCampaign(cfg), CampaignError);

    cfg = smallCampaign(scratchDir("validate"));
    cfg.chips[0].id = "bad id/with space";
    EXPECT_THROW(runCampaign(cfg), CampaignError);

    cfg = smallCampaign(scratchDir("validate"));
    cfg.retry.maxAttempts = 0;
    EXPECT_THROW(runCampaign(cfg), CampaignError);
}

TEST(Campaign, MakeChipFleetDerivesDistinctSeeds)
{
    auto chips = makeChipFleet(9, 5, 1ull << 26, {2.4, 52.0});
    ASSERT_EQ(chips.size(), 9u);
    for (size_t i = 0; i < chips.size(); ++i) {
        for (size_t j = 0; j < i; ++j) {
            EXPECT_NE(chips[i].id, chips[j].id);
            EXPECT_NE(chips[i].config.seed, chips[j].config.seed);
        }
    }
}

TEST(FaultyHost, ZeroRatesBehaveLikePlainHost)
{
    dram::ModuleConfig mc;
    mc.chipCapacityBits = 1ull << 26;
    mc.seed = 11;
    testbed::HostConfig hc;
    hc.useChamber = false;

    dram::DramModule m1(mc), m2(mc);
    testbed::SoftMcHost plain(m1, hc);
    FaultyHost faulty(m2, hc, {}, 99);
    for (testbed::SoftMcHost *host : {&plain,
                                      static_cast<testbed::SoftMcHost *>(
                                          &faulty)}) {
        host->writeAll(dram::DataPattern::Checkerboard);
        host->disableRefresh();
        host->wait(2.0);
        host->enableRefresh();
    }
    EXPECT_EQ(plain.readAndCompareAll(), faulty.readAndCompareAll());
    EXPECT_DOUBLE_EQ(plain.now(), faulty.now());
    EXPECT_EQ(faulty.counts().total(), 0u);
}

TEST(FaultyHost, CertainFaultFiresAndCounts)
{
    dram::ModuleConfig mc;
    mc.chipCapacityBits = 1ull << 24;
    testbed::HostConfig hc;
    hc.useChamber = false;
    dram::DramModule module(mc);
    FaultConfig faults;
    faults.commandTimeoutRate = 1.0;
    FaultyHost host(module, hc, faults, 1);
    try {
        host.wait(1.0);
        FAIL() << "expected HostFaultError";
    } catch (const HostFaultError &e) {
        EXPECT_EQ(e.kind(), FaultKind::CommandTimeout);
    }
    EXPECT_EQ(host.counts().commandTimeouts, 1u);
}

TEST(FaultyHost, ScheduleIsDeterministicPerSeed)
{
    dram::ModuleConfig mc;
    mc.chipCapacityBits = 1ull << 24;
    testbed::HostConfig hc;
    hc.useChamber = false;
    FaultConfig faults;
    faults.commandTimeoutRate = 0.3;

    auto schedule = [&](uint64_t seed) {
        dram::DramModule module(mc);
        FaultyHost host(module, hc, faults, seed);
        std::vector<int> fired;
        for (int i = 0; i < 50; ++i) {
            try {
                host.wait(0.1);
            } catch (const HostFaultError &) {
                fired.push_back(i);
            }
        }
        return fired;
    };
    EXPECT_EQ(schedule(123), schedule(123));
    EXPECT_NE(schedule(123), schedule(124));
}

TEST(ProfileStore, CommitLoadRoundTrip)
{
    ProfileStore store(scratchDir("store_roundtrip"));
    profiling::RetentionProfile p(
        profiling::Conditions{msToSec(1024.0), 45.0});
    p.add({{0, 5}, {1, 9}, {0, 1ull << 33}});
    std::string key =
        ProfileStore::profileKey("B-007", p.conditions());
    EXPECT_FALSE(store.has(key));
    store.commit(key, p);
    EXPECT_TRUE(store.has(key));

    common::Expected<profiling::RetentionProfile> loaded =
        store.load(key);
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    EXPECT_EQ(loaded.value().cells(), p.cells());

    // A second store over the same directory sees the same contents.
    ProfileStore reopened(store.dir());
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_TRUE(reopened.has(key));
}

TEST(ProfileStore, LoadOrProfileComputesExactlyOnce)
{
    ProfileStore store(scratchDir("store_loadorprofile"));
    profiling::Conditions cond{msToSec(512.0), 45.0};
    std::string key = ProfileStore::profileKey("A-000", cond);
    int computed = 0;
    auto profileFn = [&]() {
        ++computed;
        profiling::RetentionProfile p(cond);
        p.add({{0, 77}});
        return p;
    };
    profiling::RetentionProfile first =
        store.loadOrProfile(key, profileFn);
    profiling::RetentionProfile second =
        store.loadOrProfile(key, profileFn);
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(first.cells(), second.cells());
}

TEST(ProfileStore, RecoversIndexFromDirectoryScan)
{
    std::string dir = scratchDir("store_recover");
    std::string key;
    {
        ProfileStore store(dir);
        profiling::RetentionProfile p(
            profiling::Conditions{msToSec(1024.0), 45.0});
        p.add({{2, 4}});
        key = ProfileStore::profileKey("C-002", p.conditions());
        store.commit(key, p);
    }
    // Simulate a crash between the profile rename and the index write.
    fs::remove(fs::path(dir) / "index.txt");
    ProfileStore recovered(dir);
    EXPECT_TRUE(recovered.has(key));
    common::Expected<profiling::RetentionProfile> loaded =
        recovered.load(key);
    EXPECT_TRUE(loaded.hasValue()) << loaded.error().describe();
    EXPECT_EQ(loaded.value().size(), 1u);
}

/** A store directory holding both v1 text and v2 binary profiles —
 *  e.g. a campaign resumed with a different --profile-format — must
 *  load every profile, and index recovery must sniff each file's
 *  actual format rather than assuming the store's write format. */
TEST(ProfileStore, MixedFormatDirectoryRecoversAndServes)
{
    std::string dir = scratchDir("store_mixed");
    profiling::Conditions cond1{msToSec(1024.0), 45.0};
    profiling::Conditions cond2{msToSec(1536.0), 45.0};
    std::string keyText = ProfileStore::profileKey("M-000", cond1);
    std::string keyBin = ProfileStore::profileKey("M-001", cond2);

    {
        ProfileStore textStore(dir, profiling::ProfileFormat::TextV1);
        profiling::RetentionProfile p(cond1);
        p.add({{0, 11}, {1, 22}});
        textStore.commit(keyText, p);
    }
    {
        ProfileStore binStore(dir); // default format: v2 binary
        EXPECT_TRUE(binStore.has(keyText));
        profiling::RetentionProfile p(cond2);
        p.add({{0, 33}, {2, 44}, {2, 55}});
        binStore.commit(keyBin, p);

        auto formatOf = [&](const std::string &key) {
            for (const StoreEntry &e : binStore.entries())
                if (e.key == key)
                    return e.format;
            ADD_FAILURE() << "missing entry " << key;
            return profiling::ProfileFormat::TextV1;
        };
        EXPECT_EQ(formatOf(keyText), profiling::ProfileFormat::TextV1);
        EXPECT_EQ(formatOf(keyBin), profiling::ProfileFormat::BinaryV2);

        common::Expected<profiling::RetentionProfile> t =
            binStore.load(keyText);
        ASSERT_TRUE(t.hasValue()) << t.error().describe();
        EXPECT_EQ(t.value().size(), 2u);
        common::Expected<profiling::RetentionProfile> b =
            binStore.load(keyBin);
        ASSERT_TRUE(b.hasValue()) << b.error().describe();
        EXPECT_EQ(b.value().size(), 3u);
    }

    // Crash-recovery over the mixed directory: the scan sniffs each
    // file's format and both profiles keep loading.
    fs::remove(fs::path(dir) / "index.txt");
    ProfileStore recovered(dir);
    ASSERT_TRUE(recovered.has(keyText));
    ASSERT_TRUE(recovered.has(keyBin));
    common::Expected<profiling::RetentionProfile> t =
        recovered.load(keyText);
    ASSERT_TRUE(t.hasValue()) << t.error().describe();
    EXPECT_EQ(t.value().size(), 2u);
    common::Expected<profiling::RetentionProfile> b =
        recovered.load(keyBin);
    ASSERT_TRUE(b.hasValue()) << b.error().describe();
    EXPECT_EQ(b.value().size(), 3u);
    for (const StoreEntry &e : recovered.entries()) {
        if (e.key == keyText)
            EXPECT_EQ(e.format, profiling::ProfileFormat::TextV1);
        if (e.key == keyBin)
            EXPECT_EQ(e.format, profiling::ProfileFormat::BinaryV2);
    }
}

TEST(ProfileStore, MissingKeyReportsNotFound)
{
    ProfileStore store(scratchDir("store_missing"));
    common::Expected<profiling::RetentionProfile> loaded =
        store.load("nope@trefi1.000ms@45.00C");
    ASSERT_FALSE(loaded.hasValue());
    EXPECT_EQ(loaded.error().category, common::ErrorCategory::NotFound);
    EXPECT_FALSE(loaded.error().message.empty());
}

namespace {

profiling::RetentionProfile
randomStoreProfile(uint64_t seed, size_t cells,
                   profiling::Conditions cond = {1.024, 45.0})
{
    Rng rng(seed);
    std::vector<dram::ChipFailure> v;
    v.reserve(cells);
    for (size_t i = 0; i < cells; ++i)
        v.push_back({static_cast<uint32_t>(rng.uniformInt(4)),
                     rng.uniformInt(1ull << 40)});
    profiling::RetentionProfile p(cond);
    p.add(v);
    return p;
}

/** Random add/remove drift of a profile (a reprofiling round). */
profiling::RetentionProfile
driftProfile(const profiling::RetentionProfile &base, uint64_t seed)
{
    Rng rng(seed);
    std::vector<dram::ChipFailure> cells;
    for (const dram::ChipFailure &f : base.cells())
        if (rng.uniform() >= 0.15)
            cells.push_back(f);
    size_t adds = 1 + rng.uniformInt(20);
    for (size_t i = 0; i < adds; ++i)
        cells.push_back({static_cast<uint32_t>(rng.uniformInt(4)),
                         rng.uniformInt(1ull << 40)});
    profiling::RetentionProfile p(base.conditions());
    p.add(cells);
    return p;
}

} // namespace

TEST(ProfileStoreDelta, CommitDeltaExtendsChainAndLoadResolves)
{
    ProfileStore store(scratchDir("store_delta_chain"));
    profiling::RetentionProfile p = randomStoreProfile(1, 200);
    std::string key =
        ProfileStore::profileKey("D-000", p.conditions());
    store.commit(key, p);

    for (uint64_t round = 1; round <= 4; ++round) {
        p = driftProfile(p, round);
        store.commitDelta(key, p);
        common::Expected<profiling::RetentionProfile> loaded =
            store.load(key);
        ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
        EXPECT_EQ(loaded.value().cells(), p.cells());
    }
    ASSERT_EQ(store.entries().size(), 1u);
    EXPECT_EQ(store.entries()[0].deltas, 4u);
    EXPECT_EQ(store.entries()[0].cells, p.size());
    // The chain files exist on disk next to the base.
    std::string base = store.entries()[0].file;
    for (uint32_t k = 1; k <= 4; ++k)
        EXPECT_TRUE(fs::exists(
            fs::path(store.dir()) /
            ProfileStore::deltaFileName(base, k)));
}

TEST(ProfileStoreDelta, UnchangedCommitDeltaIsANoOp)
{
    ProfileStore store(scratchDir("store_delta_noop"));
    profiling::RetentionProfile p = randomStoreProfile(2, 50);
    std::string key =
        ProfileStore::profileKey("D-001", p.conditions());
    store.commit(key, p);
    store.commitDelta(key, p); // identical: must not grow the chain
    EXPECT_EQ(store.entries()[0].deltas, 0u);
}

// The core property: resolving and compacting a delta chain yields a
// base file BYTE-IDENTICAL to committing the final profile directly,
// for randomized add/remove sequences of any length.
TEST(ProfileStoreDelta, CompactionIsByteIdenticalToFullCommit)
{
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        std::string chainDir = scratchDir(
            "store_delta_prop_chain" + std::to_string(seed));
        std::string fullDir = scratchDir(
            "store_delta_prop_full" + std::to_string(seed));
        ProfileStore chained(chainDir);
        profiling::RetentionProfile p =
            randomStoreProfile(seed * 7, 150);
        std::string key =
            ProfileStore::profileKey("P-00" + std::to_string(seed),
                                     p.conditions());
        chained.commit(key, p);
        Rng rng(seed);
        size_t rounds = 1 + rng.uniformInt(6);
        for (size_t r = 0; r < rounds; ++r) {
            p = driftProfile(p, seed * 100 + r);
            chained.commitDelta(key, p);
        }
        // openView compacts the chain in place...
        common::Expected<profiling::ProfileView> view =
            chained.openView(key);
        ASSERT_TRUE(view.hasValue()) << view.error().describe();
        EXPECT_EQ(view.value().cellCount(), p.size());
        EXPECT_EQ(chained.entries()[0].deltas, 0u);

        // ...and the compacted base equals a direct commit, byte for
        // byte.
        ProfileStore direct(fullDir);
        direct.commit(key, p);
        std::string file = chained.entries()[0].file;
        std::ifstream a(fs::path(chainDir) / file,
                        std::ios::binary);
        std::ifstream b(fs::path(fullDir) / file, std::ios::binary);
        std::ostringstream sa, sb;
        sa << a.rdbuf();
        sb << b.rdbuf();
        ASSERT_FALSE(sa.str().empty());
        EXPECT_EQ(sa.str(), sb.str())
            << "seed " << seed << ": compacted chain differs from "
            << "direct commit";
        // No leftover delta files after compaction.
        for (const auto &entry : fs::directory_iterator(chainDir))
            EXPECT_EQ(
                entry.path().string().find(".d"), std::string::npos)
                << entry.path();
    }
}

TEST(ProfileStoreDelta, ChainSurvivesReopenAndIndexLoss)
{
    std::string dir = scratchDir("store_delta_recover");
    profiling::RetentionProfile p = randomStoreProfile(3, 120);
    std::string key =
        ProfileStore::profileKey("R-000", p.conditions());
    {
        ProfileStore store(dir);
        store.commit(key, p);
        for (uint64_t r = 1; r <= 3; ++r) {
            p = driftProfile(p, 200 + r);
            store.commitDelta(key, p);
        }
    }
    // Plain reopen: the v3 index row restores the chain.
    {
        ProfileStore store(dir);
        ASSERT_EQ(store.entries().size(), 1u);
        EXPECT_EQ(store.entries()[0].deltas, 3u);
        common::Expected<profiling::RetentionProfile> loaded =
            store.load(key);
        ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
        EXPECT_EQ(loaded.value().cells(), p.cells());
    }
    // Crash between renames: no index at all. The directory scan must
    // rebuild the entry AND re-adopt the whole valid chain.
    fs::remove(fs::path(dir) / "index.txt");
    {
        ProfileStore store(dir);
        ASSERT_EQ(store.entries().size(), 1u);
        EXPECT_EQ(store.entries()[0].deltas, 3u);
        common::Expected<profiling::RetentionProfile> loaded =
            store.load(key);
        ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
        EXPECT_EQ(loaded.value().cells(), p.cells());
    }
}

TEST(ProfileStoreDelta, StaleDeltaFromCrashedCompactionIsRemoved)
{
    std::string dir = scratchDir("store_delta_stale");
    profiling::RetentionProfile p = randomStoreProfile(4, 100);
    std::string key =
        ProfileStore::profileKey("S-000", p.conditions());
    std::string baseFile, staleName, staleBytes;
    {
        ProfileStore store(dir);
        store.commit(key, p);
        profiling::RetentionProfile next = driftProfile(p, 301);
        store.commitDelta(key, next);
        baseFile = store.entries()[0].file;
        staleName = ProfileStore::deltaFileName(baseFile, 1);
        std::ifstream is(fs::path(dir) / staleName,
                         std::ios::binary);
        std::ostringstream ss;
        ss << is.rdbuf();
        staleBytes = ss.str();
        // Compact (via openView), then simulate a crash that renamed
        // the new base but failed to unlink the old link file.
        ASSERT_TRUE(store.openView(key).hasValue());
        p = next;
    }
    {
        std::ofstream os(fs::path(dir) / staleName,
                         std::ios::binary);
        os.write(staleBytes.data(),
                 static_cast<std::streamsize>(staleBytes.size()));
    }
    ProfileStore recovered(dir);
    // The stale link's baseCrc no longer matches the compacted base,
    // so recovery discards it instead of resurrecting old cells.
    EXPECT_EQ(recovered.entries()[0].deltas, 0u);
    EXPECT_FALSE(fs::exists(fs::path(dir) / staleName));
    common::Expected<profiling::RetentionProfile> loaded =
        recovered.load(key);
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    EXPECT_EQ(loaded.value().cells(), p.cells());
}

TEST(ProfileStoreDelta, ChainAutoCompactsAtCap)
{
    ProfileStore store(scratchDir("store_delta_cap"));
    profiling::RetentionProfile p = randomStoreProfile(5, 60);
    std::string key =
        ProfileStore::profileKey("C-000", p.conditions());
    store.commit(key, p);
    for (uint64_t r = 1; r <= ProfileStore::kMaxDeltaChain; ++r) {
        p = driftProfile(p, 400 + r);
        store.commitDelta(key, p);
    }
    // The cap-triggering commit compacted in place.
    EXPECT_EQ(store.entries()[0].deltas, 0u);
    common::Expected<profiling::RetentionProfile> loaded =
        store.load(key);
    ASSERT_TRUE(loaded.hasValue());
    EXPECT_EQ(loaded.value().cells(), p.cells());
}

TEST(ProfileStoreDelta, CommitDeltaOnTextStoreFallsBackToFullCommit)
{
    ProfileStore store(scratchDir("store_delta_text"),
                       profiling::ProfileFormat::TextV1);
    profiling::RetentionProfile p = randomStoreProfile(6, 40);
    std::string key =
        ProfileStore::profileKey("T-000", p.conditions());
    store.commit(key, p);
    p = driftProfile(p, 500);
    store.commitDelta(key, p);
    EXPECT_EQ(store.entries()[0].deltas, 0u);
    common::Expected<profiling::RetentionProfile> loaded =
        store.load(key);
    ASSERT_TRUE(loaded.hasValue());
    EXPECT_EQ(loaded.value().cells(), p.cells());
}

TEST(ProfileStoreDelta, OpenViewAnswersPointLookups)
{
    ProfileStore store(scratchDir("store_openview"));
    profiling::RetentionProfile p = randomStoreProfile(7, 300);
    std::string key =
        ProfileStore::profileKey("V-000", p.conditions());
    store.commit(key, p);
    common::Expected<profiling::ProfileView> view =
        store.openView(key);
    ASSERT_TRUE(view.hasValue()) << view.error().describe();
    for (size_t i = 0; i < p.cells().size(); i += 17)
        EXPECT_TRUE(view.value().contains(p.cells()[i]).value());
    EXPECT_FALSE(store.openView("missing@x").hasValue());
}

TEST(ProfileStoreDelta, OpenViewOnTextProfileIsInvalidConfig)
{
    ProfileStore store(scratchDir("store_openview_text"),
                       profiling::ProfileFormat::TextV1);
    profiling::RetentionProfile p = randomStoreProfile(8, 10);
    std::string key =
        ProfileStore::profileKey("V-001", p.conditions());
    store.commit(key, p);
    common::Expected<profiling::ProfileView> view =
        store.openView(key);
    ASSERT_FALSE(view.hasValue());
    EXPECT_EQ(view.error().category,
              common::ErrorCategory::InvalidConfig);
}

TEST(ProfileStore, DeltaIsNotAStoreFormat)
{
    std::string dir = scratchDir("store_delta_format");
    EXPECT_THROW(ProfileStore(dir, profiling::ProfileFormat::DeltaV2),
                 CampaignError);
    EXPECT_FALSE(fs::exists(dir));
}

/** Names in a store directory that end in ".tmp". */
std::vector<std::string>
tempFilesIn(const std::string &dir)
{
    std::vector<std::string> out;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".tmp")
            out.push_back(entry.path().filename().string());
    return out;
}

// Each write goes to `<file>.tmp` first. Making that path a directory
// makes the write fail; the failed write must leave no temp behind.
TEST(ProfileStore, FailedCommitLeavesNoTempFile)
{
    ProfileStore store(scratchDir("store_failed_commit"));
    profiling::RetentionProfile p = randomStoreProfile(9, 40);
    std::string key = ProfileStore::profileKey("F-000", p.conditions());
    fs::path tmp = fs::path(store.dir()) /
                   (ProfileStore::fileNameForKey(key) + ".tmp");
    fs::create_directory(tmp);
    EXPECT_THROW(store.commit(key, p), CampaignError);
    EXPECT_EQ(tempFilesIn(store.dir()), std::vector<std::string>{});
    EXPECT_FALSE(store.has(key));
    // With the obstacle gone the same commit goes through.
    store.commit(key, p);
    EXPECT_TRUE(store.has(key));
}

TEST(ProfileStore, FailedDeltaCommitLeavesNoTempFile)
{
    ProfileStore store(scratchDir("store_failed_delta"));
    profiling::RetentionProfile p = randomStoreProfile(10, 80);
    std::string key = ProfileStore::profileKey("F-001", p.conditions());
    store.commit(key, p);
    std::string link = ProfileStore::deltaFileName(
        ProfileStore::fileNameForKey(key), 1);
    fs::create_directory(fs::path(store.dir()) / (link + ".tmp"));
    EXPECT_THROW(store.commitDelta(key, driftProfile(p, 700)),
                 CampaignError);
    EXPECT_EQ(tempFilesIn(store.dir()), std::vector<std::string>{});
    EXPECT_EQ(store.entries()[0].deltas, 0u);
}

TEST(ProfileStore, FailedCompactionLeavesNoTempFile)
{
    ProfileStore store(scratchDir("store_failed_compaction"));
    profiling::RetentionProfile p = randomStoreProfile(11, 80);
    std::string key = ProfileStore::profileKey("F-002", p.conditions());
    store.commit(key, p);
    profiling::RetentionProfile next = driftProfile(p, 701);
    store.commitDelta(key, next);
    ASSERT_EQ(store.entries()[0].deltas, 1u);
    // openView compacts the chain by rewriting the base via its temp.
    fs::create_directory(fs::path(store.dir()) /
                         (store.entries()[0].file + ".tmp"));
    EXPECT_FALSE(store.openView(key).hasValue());
    EXPECT_EQ(tempFilesIn(store.dir()), std::vector<std::string>{});
    // The chain is intact and still resolves.
    EXPECT_EQ(store.entries()[0].deltas, 1u);
    common::Expected<profiling::RetentionProfile> loaded =
        store.load(key);
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    EXPECT_EQ(loaded.value().cells(), next.cells());
}

TEST(ProfileStore, ReopenRemovesStaleTempFiles)
{
    std::string dir = scratchDir("store_stale_tmp");
    profiling::RetentionProfile p = randomStoreProfile(12, 40);
    std::string key = ProfileStore::profileKey("F-003", p.conditions());
    {
        ProfileStore store(dir);
        store.commit(key, p);
    }
    // Temps of writes killed before their rename: a profile, a delta
    // link and the index.
    for (std::string name :
         {ProfileStore::fileNameForKey(key) + ".tmp",
          ProfileStore::deltaFileName(ProfileStore::fileNameForKey(key),
                                      1) +
              ".tmp",
          std::string("index.txt.tmp")}) {
        std::ofstream os(fs::path(dir) / name);
        os << "partial";
    }
    ProfileStore reopened(dir);
    EXPECT_EQ(tempFilesIn(dir), std::vector<std::string>{});
    EXPECT_EQ(reopened.size(), 1u);
    common::Expected<profiling::RetentionProfile> loaded =
        reopened.load(key);
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    EXPECT_EQ(loaded.value().cells(), p.cells());
}

TEST(Campaign, DefaultCampaignDirReadsEnv)
{
    unsetenv("REAPER_CAMPAIGN_DIR");
    EXPECT_EQ(defaultCampaignDir("fallback"), "fallback");
    setenv("REAPER_CAMPAIGN_DIR", "/tmp/somewhere", 1);
    EXPECT_EQ(defaultCampaignDir("fallback"), "/tmp/somewhere");
    unsetenv("REAPER_CAMPAIGN_DIR");
}

} // namespace
} // namespace campaign
} // namespace reaper
