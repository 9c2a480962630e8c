#include "campaign/campaign.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/logging.h"
#include "dram/vendor_model.h"
#include "obs/obs.h"

namespace fs = std::filesystem;

namespace reaper {
namespace campaign {

namespace {

uint64_t
hashDouble(uint64_t h, double v)
{
    return hashCombine(h, std::bit_cast<uint64_t>(v));
}

uint64_t
hashString(uint64_t h, const std::string &s)
{
    h = hashCombine(h, s.size());
    for (char c : s)
        h = hashCombine(h, static_cast<uint64_t>(
                               static_cast<unsigned char>(c)));
    return h;
}

bool
filenameSafeId(const std::string &id)
{
    if (id.empty())
        return false;
    for (char c : id) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        if (!ok)
            return false;
    }
    return true;
}

void
validate(const CampaignConfig &cfg)
{
    if (cfg.dir.empty())
        throw CampaignError("campaign: dir must not be empty");
    if (cfg.chips.empty())
        throw CampaignError("campaign: no chips configured");
    if (cfg.rounds.empty())
        throw CampaignError("campaign: no rounds configured");
    if (cfg.retry.maxAttempts < 1)
        throw CampaignError("campaign: retry.maxAttempts must be >= 1");
    for (size_t i = 0; i < cfg.chips.size(); ++i) {
        if (!filenameSafeId(cfg.chips[i].id))
            throw CampaignError(
                "campaign: chip " + std::to_string(i) +
                " id '" + cfg.chips[i].id +
                "' must be non-empty and filename-safe "
                "([A-Za-z0-9._-])");
        for (size_t j = 0; j < i; ++j)
            if (cfg.chips[j].id == cfg.chips[i].id)
                throw CampaignError("campaign: duplicate chip id '" +
                                    cfg.chips[i].id + "'");
    }
    for (size_t r = 0; r < cfg.rounds.size(); ++r) {
        if (cfg.rounds[r].iterations < 1)
            throw CampaignError("campaign: round " + std::to_string(r) +
                                " iterations must be >= 1");
        common::Expected<std::unique_ptr<profiling::Profiler>> p =
            profiling::makeProfiler(
                resolvedProfilerName(cfg.rounds[r]));
        if (!p)
            throw CampaignError("campaign: round " + std::to_string(r) +
                                ": " + p.error().describe());
    }
}

/** The configured profiler spec of one round. */
profiling::ProfilerSpec
roundSpec(const RoundSpec &r)
{
    profiling::ProfilerSpec spec;
    spec.iterations = r.iterations;
    spec.setTemperature = r.setTemperature;
    spec.reachDeltaRefresh = r.reachDeltaRefresh;
    spec.reachDeltaTemp = r.reachDeltaTemp;
    return spec;
}

/** Write the human-readable manifest once, atomically. */
void
writeManifestIfAbsent(const CampaignConfig &cfg, uint64_t fingerprint)
{
    fs::path path = fs::path(cfg.dir) / "campaign.manifest";
    if (fs::exists(path))
        return;
    fs::path tmp = path;
    tmp += ".tmp";
    {
        std::ofstream os(tmp);
        if (!os)
            throw CampaignError("campaign: cannot write manifest '" +
                                tmp.string() + "'");
        os << "REAPER-CAMPAIGN v1\n";
        os << "name " << cfg.name << "\n";
        std::ostringstream fp;
        fp << std::hex << fingerprint;
        os << "fingerprint " << fp.str() << "\n";
        os << "base_seed " << cfg.baseSeed << "\n";
        os << "chips " << cfg.chips.size() << "\n";
        os << "rounds " << cfg.rounds.size() << "\n";
        for (size_t i = 0; i < cfg.chips.size(); ++i) {
            const ChipSpec &c = cfg.chips[i];
            os << "chip " << i << " " << c.id << " "
               << dram::toString(c.config.vendor) << " "
               << c.config.chipCapacityBits << " " << c.config.seed
               << "\n";
        }
        for (size_t r = 0; r < cfg.rounds.size(); ++r) {
            const RoundSpec &rs = cfg.rounds[r];
            os << "round " << r << " " << resolvedProfilerName(rs)
               << " trefi_ms " << secToMs(rs.target.refreshInterval)
               << " temp_c " << rs.target.temperature << " iterations "
               << rs.iterations << "\n";
        }
        os.flush();
        if (!os)
            throw CampaignError("campaign: manifest write failed");
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        throw CampaignError("campaign: manifest rename failed: " +
                            ec.message());
}

} // namespace

std::string
resolvedProfilerName(const RoundSpec &r)
{
    if (!r.profilerName.empty())
        return r.profilerName;
    switch (r.profiler) {
    case ProfilerKind::BruteForce:
        return "brute_force";
    case ProfilerKind::Reach:
        return "reach";
    }
    panic("resolvedProfilerName: unknown ProfilerKind %d",
          static_cast<int>(r.profiler));
}

uint64_t
campaignFingerprint(const CampaignConfig &cfg)
{
    uint64_t h = hashCombine(0x5245415045520001ull, cfg.baseSeed);
    h = hashCombine(h, cfg.chips.size());
    for (const ChipSpec &c : cfg.chips) {
        h = hashString(h, c.id);
        h = hashCombine(h, static_cast<uint64_t>(c.config.vendor));
        h = hashCombine(h, c.config.numChips);
        h = hashCombine(h, c.config.chipCapacityBits);
        h = hashCombine(h, c.config.seed);
        h = hashDouble(h, c.config.envelope.maxInterval);
        h = hashDouble(h, c.config.envelope.maxTemperature);
        h = hashDouble(h, c.config.initialTemp);
        h = hashDouble(h, c.config.chipVariation);
        h = hashDouble(h, c.config.vrtRateScale);
    }
    h = hashCombine(h, cfg.rounds.size());
    for (const RoundSpec &r : cfg.rounds) {
        // The resolved mechanism *name* is hashed (not the legacy enum
        // value) so a round is fingerprint-identical whether it was
        // configured via profilerName or via the enum.
        h = hashString(h, resolvedProfilerName(r));
        h = hashDouble(h, r.target.refreshInterval);
        h = hashDouble(h, r.target.temperature);
        h = hashDouble(h, r.reachDeltaRefresh);
        h = hashDouble(h, r.reachDeltaTemp);
        h = hashCombine(h, static_cast<uint64_t>(r.iterations));
        h = hashCombine(h, r.setTemperature ? 1 : 0);
    }
    h = hashDouble(h, cfg.host.rwSecondsPerGB);
    h = hashCombine(h, cfg.host.useChamber ? 1 : 0);
    return h;
}

std::string
roundKey(const CampaignConfig &cfg, size_t chip, size_t round)
{
    return ProfileStore::profileKey(cfg.chips[chip].id,
                                    cfg.rounds[round].target);
}

std::vector<ChipSpec>
makeChipFleet(size_t n, uint64_t baseSeed, uint64_t chipCapacityBits,
              dram::TestEnvelope envelope)
{
    static const dram::Vendor vendors[] = {
        dram::Vendor::A, dram::Vendor::B, dram::Vendor::C};
    std::vector<ChipSpec> chips;
    chips.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        ChipSpec c;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s-%03zu",
                      dram::toString(vendors[i % 3]).c_str(), i);
        c.id = buf;
        c.config.numChips = 1;
        c.config.chipCapacityBits = chipCapacityBits;
        c.config.vendor = vendors[i % 3];
        c.config.seed = eval::fleetSeed(baseSeed, i);
        c.config.envelope = envelope;
        chips.push_back(std::move(c));
    }
    return chips;
}

std::string
defaultCampaignDir(const std::string &fallback)
{
    const char *env = std::getenv("REAPER_CAMPAIGN_DIR");
    if (env && env[0] != '\0')
        return env;
    return fallback;
}

CampaignStats
runCampaign(const CampaignConfig &cfg)
{
    validate(cfg);

    REAPER_OBS_SPAN(campaignSpan, "campaign.run");

    std::error_code ec;
    fs::create_directories(cfg.dir, ec);
    if (ec)
        throw CampaignError("campaign: cannot create '" + cfg.dir +
                            "': " + ec.message());

    const uint64_t fingerprint = campaignFingerprint(cfg);
    writeManifestIfAbsent(cfg, fingerprint);

    ProfileStore store((fs::path(cfg.dir) / "store").string(),
                       cfg.profileFormat);
    common::Expected<std::unique_ptr<CampaignJournal>> opened =
        CampaignJournal::open(
            (fs::path(cfg.dir) / "journal.log").string(), fingerprint);
    if (!opened)
        throw CampaignError(opened.error().describe());
    CampaignJournal &journal = *opened.value();

    const size_t n_rounds = cfg.rounds.size();
    std::vector<size_t> pending; // encoded chip * n_rounds + round
    for (size_t c = 0; c < cfg.chips.size(); ++c)
        for (size_t r = 0; r < n_rounds; ++r)
            if (!journal.isDone(static_cast<uint32_t>(c),
                                static_cast<uint32_t>(r)))
                pending.push_back(c * n_rounds + r);

    // One pristine module per chip: the chip's first pending round
    // builds it under the slot's lock, every attempt of every round
    // profiles a copy (which shares the weak-cell population), and the
    // slot lets go once the chip's last pending round has taken it, so
    // only chips in flight hold a population.
    struct ChipSlot
    {
        std::mutex mtx;
        std::shared_ptr<const dram::DramModule> pristine;
        size_t takers = 0; ///< pending rounds yet to take the module
    };
    std::vector<ChipSlot> slots(cfg.chips.size());
    for (size_t task : pending)
        ++slots[task / n_rounds].takers;
    auto takePristine = [&](size_t c) {
        ChipSlot &slot = slots[c];
        std::lock_guard<std::mutex> lock(slot.mtx);
        if (!slot.pristine)
            slot.pristine =
                std::make_shared<const dram::DramModule>(cfg.chips[c].config);
        std::shared_ptr<const dram::DramModule> taken = slot.pristine;
        if (--slot.takers == 0)
            slot.pristine.reset();
        return taken;
    };

    std::mutex mtx; // serializes store commits + journal appends
    std::atomic<bool> stopped{false};
    size_t commits_this_run = 0;
    Seconds backoff_total = 0.0;

    eval::runFleet(
        pending.size(),
        [&](size_t i) -> int {
            if (stopped.load(std::memory_order_relaxed))
                return 0; // simulated kill: task never dispatched
            const size_t task = pending[i];
            const size_t c = task / n_rounds;
            const size_t r = task % n_rounds;
            const ChipSpec &chip = cfg.chips[c];
            const uint64_t fault_base =
                eval::fleetSeed(cfg.faults.seed, task);

            REAPER_OBS_SPAN(taskSpan, "campaign.round");

            // validate() already proved the name resolves.
            std::unique_ptr<profiling::Profiler> profiler =
                std::move(profiling::makeProfiler(
                              resolvedProfilerName(cfg.rounds[r]),
                              roundSpec(cfg.rounds[r]))
                              .value());

            const std::shared_ptr<const dram::DramModule> pristine =
                takePristine(c);

            RoundRecord rec;
            rec.chip = static_cast<uint32_t>(c);
            rec.round = static_cast<uint32_t>(r);
            profiling::RetentionProfile profile;
            Seconds backoff = 0.0;
            for (int attempt = 1;; ++attempt) {
                // A fresh copy per attempt: every round and retry
                // observes the same chip, while dynamic (VRT) state
                // cannot leak across rounds or attempts.
                dram::DramModule module(*pristine);
                FaultyHost host(module, cfg.host, cfg.faults,
                                hashCombine(fault_base,
                                            static_cast<uint64_t>(
                                                attempt)));
                common::Expected<profiling::ProfilingResult> result =
                    profiler->profile(host, cfg.rounds[r].target);
                if (result) {
                    profile = std::move(result).value().profile;
                    rec.attempts = static_cast<uint32_t>(attempt);
                    break;
                }
                const common::Error &err = result.error();
                if (err.category != common::ErrorCategory::Fault)
                    throw CampaignError("campaign: chip " + chip.id +
                                        " round " + std::to_string(r) +
                                        ": " + err.describe());
                rec.faults += host.counts();
                REAPER_OBS_COUNT("campaign.retries");
                if (attempt >= cfg.retry.maxAttempts)
                    throw CampaignError(
                        "campaign: chip " + chip.id + " round " +
                        std::to_string(r) + " failed after " +
                        std::to_string(attempt) +
                        " attempts: " + err.message);
                backoff += cfg.retry.backoff *
                           std::pow(cfg.retry.backoffMultiplier,
                                    attempt - 1);
            }
            rec.cells = profile.size();

            std::lock_guard<std::mutex> lock(mtx);
            {
                REAPER_OBS_SPAN(commitSpan, "campaign.commit");
                store.commit(roundKey(cfg, c, r), profile);
                journal.append(rec);
            }
            REAPER_OBS_COUNT("campaign.rounds_completed");
            backoff_total += backoff;
            ++commits_this_run;
            if (cfg.interruptAfter > 0 &&
                commits_this_run >= cfg.interruptAfter)
                stopped.store(true, std::memory_order_relaxed);
            return 0;
        },
        cfg.fleet);

    CampaignStats stats;
    stats.tasksTotal = cfg.chips.size() * n_rounds;
    stats.roundsResumed = journal.resumedCount();
    stats.roundsCompleted = journal.completed().size();
    stats.roundsThisRun = stats.roundsCompleted - stats.roundsResumed;
    for (const RoundRecord &rec : journal.completed()) {
        stats.attempts += rec.attempts;
        stats.faults += rec.faults;
    }
    stats.retries = stats.attempts - stats.roundsCompleted;
    stats.backoffTime = backoff_total;
    stats.interrupted = stopped.load() && !stats.complete();
    return stats;
}

} // namespace campaign
} // namespace reaper
