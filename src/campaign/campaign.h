/**
 * @file
 * Campaign orchestration: checkpointed, fault-tolerant multi-chip
 * profiling campaigns.
 *
 * The paper's evaluation is a weeks-long campaign — hundreds of chips
 * times many (pattern, tREFI, temperature) rounds (Sections 4-5) — and
 * real testbeds running at that scale need three things the bench
 * harnesses don't provide: durable progress (a kill or crash must not
 * lose completed rounds), tolerance of transient infrastructure faults
 * (flaky host links, thermal-chamber hiccups), and a persistent,
 * restorable profile store. runCampaign() provides them on top of the
 * fleet engine:
 *
 *  - every (chip, round) task is a pure function of the campaign
 *    config and seeds derived with eval::fleetSeed, so results are
 *    bit-identical at any worker count and across resume boundaries;
 *  - completed rounds are committed atomically to a ProfileStore and
 *    recorded in an append-only CampaignJournal; a resumed campaign
 *    skips journaled rounds and converges to byte-identical store
 *    contents;
 *  - each chip is built once per run; every round and every attempt
 *    profiles a copy of that pristine module, which shares its
 *    read-only weak-cell population;
 *  - each task runs its host operations through a FaultyHost and, on
 *    an injected (or, in a real deployment, genuine) transient fault,
 *    retries the whole round on a fresh copy under a configurable
 *    retry/backoff policy. Exhausted retries surface as a
 *    CampaignError, never a crash or a silently corrupt store.
 */

#ifndef REAPER_CAMPAIGN_CAMPAIGN_H
#define REAPER_CAMPAIGN_CAMPAIGN_H

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/error.h"
#include "campaign/faulty_host.h"
#include "campaign/journal.h"
#include "campaign/profile_store.h"
#include "eval/fleet.h"
#include "profiling/brute_force.h"
#include "profiling/profiler.h"
#include "profiling/reach.h"

namespace reaper {
namespace campaign {

/**
 * Which profiler a round runs. Retained for source compatibility;
 * rounds are dispatched through the profiling::makeProfiler factory,
 * and RoundSpec::profilerName (any registered mechanism, including
 * ones this enum has no member for) takes precedence when set.
 */
enum class ProfilerKind : uint8_t
{
    BruteForce,
    Reach,
};

/** One chip of the campaign fleet. */
struct ChipSpec
{
    /** Stable, filename-safe identifier (keys the profile store). */
    std::string id;
    /** Module construction parameters, including the per-chip seed. */
    dram::ModuleConfig config;
};

/** One profiling round applied to every chip. */
struct RoundSpec
{
    /** Target conditions the resulting profile is valid for. */
    profiling::Conditions target{};
    /**
     * Profiler mechanism by registry name ("brute_force", "reach",
     * "ecc_scrub", or anything registered via
     * profiling::registerProfiler). Empty means: use the legacy
     * `profiler` enum below.
     */
    std::string profilerName;
    ProfilerKind profiler = ProfilerKind::Reach;
    /** Reach offsets ("reach" only). */
    Seconds reachDeltaRefresh = 0.250;
    Celsius reachDeltaTemp = 0.0;
    int iterations = 4;
    /** Command the chamber to the test temperature first. */
    bool setTemperature = true;
};

/**
 * The mechanism name a round resolves to: profilerName when set,
 * otherwise the name of the legacy enum value. This resolved name is
 * what the manifest records and the campaign fingerprint hashes.
 */
std::string resolvedProfilerName(const RoundSpec &r);

/** Retry/backoff policy for transient host faults. */
struct RetryPolicy
{
    /** Total attempts per (chip, round); 1 disables retries. */
    int maxAttempts = 3;
    /** Virtual backoff before the first retry, in seconds. */
    Seconds backoff = 30.0;
    /** Backoff growth factor per further retry. */
    double backoffMultiplier = 2.0;
};

/** Everything one campaign needs. */
struct CampaignConfig
{
    /** Campaign directory: manifest, journal, and profile store live
     *  here. Created if absent. */
    std::string dir;
    std::string name = "campaign";
    /** Base seed; per-task streams derive via eval::fleetSeed. */
    uint64_t baseSeed = 1;
    std::vector<ChipSpec> chips;
    std::vector<RoundSpec> rounds;
    /** Host model shared by all tasks (chamber, I/O cost). */
    testbed::HostConfig host{};
    FaultConfig faults{};
    RetryPolicy retry{};
    /** Worker threads; results are identical for any value. */
    eval::FleetOptions fleet{};
    /**
     * On-disk format for store commits (--profile-format). Does not
     * enter the campaign fingerprint: profile *contents* are
     * format-independent, so a resume may legitimately switch formats
     * and the store ends up mixed — the sniffing reader handles that.
     */
    profiling::ProfileFormat profileFormat =
        profiling::ProfileFormat::BinaryV2;
    /**
     * Test/bench hook simulating a kill: once this many rounds have
     * committed in this run, stop dispatching further tasks (0 = run
     * to completion). In-flight rounds still commit, exactly as a
     * SIGKILL would leave them.
     */
    size_t interruptAfter = 0;
};

/** Campaign-lifetime counters (computed from the journal). */
struct CampaignStats
{
    size_t tasksTotal = 0;      ///< chips x rounds
    size_t roundsCompleted = 0; ///< lifetime completed rounds
    size_t roundsThisRun = 0;   ///< completed by this invocation
    size_t roundsResumed = 0;   ///< found already journaled at start
    uint64_t attempts = 0;      ///< lifetime attempts
    uint64_t retries = 0;       ///< attempts - roundsCompleted
    FaultCounts faults;         ///< lifetime faults survived
    Seconds backoffTime = 0.0;  ///< virtual backoff spent this run
    bool interrupted = false;   ///< stopped by interruptAfter

    bool complete() const { return roundsCompleted == tasksTotal; }
};

/**
 * Fingerprint of everything that affects profile contents (seeds,
 * chips, rounds, host model). Retry, fleet, and fault settings are
 * excluded: they change how a campaign runs, not what it produces.
 */
uint64_t campaignFingerprint(const CampaignConfig &cfg);

/** The profile-store key a (chip, round) pair commits under. */
std::string roundKey(const CampaignConfig &cfg, size_t chip,
                     size_t round);

/**
 * Convenience fleet builder: n chips cycling through the three
 * vendors, ids "A-000", "B-001", ..., with per-chip seeds derived from
 * baseSeed via eval::fleetSeed.
 */
std::vector<ChipSpec> makeChipFleet(size_t n, uint64_t baseSeed,
                                    uint64_t chipCapacityBits,
                                    dram::TestEnvelope envelope);

/**
 * Run (or resume) a campaign. Validates the config, opens the journal
 * and store under cfg.dir, runs every not-yet-journaled (chip, round)
 * task on the fleet engine, and returns lifetime stats. Throws
 * CampaignError on permanent failures (exhausted retries, mismatched
 * journal fingerprint, store I/O errors).
 */
CampaignStats runCampaign(const CampaignConfig &cfg);

/**
 * The campaign directory from REAPER_CAMPAIGN_DIR, or `fallback` when
 * the variable is unset or empty.
 */
std::string defaultCampaignDir(const std::string &fallback);

} // namespace campaign
} // namespace reaper

#endif // REAPER_CAMPAIGN_CAMPAIGN_H
