/**
 * @file
 * vrt_campaign: a fresh campaign::runCampaign over a vendor-cycling
 * fleet of 512 MB chips with the thermal chamber on, running a
 * brute-force round and a reach round on every chip.
 *
 * The untraced pass is one runCampaign into an empty directory. The
 * traced pass replays the same (chip, round) tasks through the public
 * layer calls — module construction, profiling::Profiler::profile on a
 * benchmark-side SoftMcHost that times each host operation, and
 * campaign::ProfileStore::commit — and must leave a byte-identical
 * store.
 */

#include <filesystem>
#include <mutex>

#include "campaign/campaign.h"
#include "golden.h"
#include "workloads.h"

namespace fs = std::filesystem;

namespace perfbench {

using namespace reaper;

namespace {

campaign::CampaignConfig
campaignConfig(Size size, uint64_t seed, unsigned threads,
               const std::string &dir)
{
    campaign::CampaignConfig cfg;
    cfg.dir = dir;
    cfg.name = "perfbench-vrt";
    cfg.baseSeed = seed;
    const size_t chips = size == Size::Full ? 12 : 3;
    const uint64_t capacityBits =
        size == Size::Full ? (512ull << 23) : (16ull << 23);
    cfg.chips =
        campaign::makeChipFleet(chips, seed, capacityBits, {2.4, 52.0});
    campaign::RoundSpec brute;
    brute.profilerName = "brute_force";
    brute.target = {msToSec(1024.0), 45.0};
    brute.iterations = size == Size::Full ? 16 : 4;
    campaign::RoundSpec reach;
    reach.profilerName = "reach";
    // A distinct target keeps both rounds' profiles in the store.
    reach.target = {msToSec(1536.0), 45.0};
    reach.reachDeltaRefresh = 0.250;
    reach.iterations = size == Size::Full ? 8 : 2;
    cfg.rounds = {brute, reach};
    cfg.host.useChamber = true;
    cfg.fleet.threads = threads;
    return cfg;
}

/**
 * Run one campaign into an emptied directory; return its store digest
 * (0 and a failure note when the campaign did not complete cleanly) and
 * the wall time of the runCampaign call alone in `seconds`.
 */
uint64_t
freshCampaign(const campaign::CampaignConfig &cfg, Result &r,
              double *seconds = nullptr)
{
    fs::remove_all(cfg.dir);
    campaign::CampaignStats st;
    try {
        double t0 = nowS();
        st = campaign::runCampaign(cfg);
        if (seconds)
            *seconds = nowS() - t0;
    } catch (const std::exception &e) {
        r.fail(std::string("vrt_campaign: ") + e.what());
        return 0;
    }
    if (!st.complete() || st.roundsThisRun != st.tasksTotal ||
        st.retries != 0) {
        r.fail("vrt_campaign: campaign incomplete (" +
                   std::to_string(st.roundsThisRun) + "/" +
                   std::to_string(st.tasksTotal) + " rounds, " +
                   std::to_string(st.retries) + " retries)",
               st.tasksTotal - std::min(st.tasksTotal, st.roundsThisRun));
        return 0;
    }
    return directoryDigest((fs::path(cfg.dir) / "store").string());
}

/** Counts gathered by the timing host. */
struct HostCounts
{
    std::atomic<uint64_t> readCompares{0};
};

/**
 * The benchmark's boundary in front of the DRAM model: forwards every
 * virtual host operation to SoftMcHost under a span.
 */
class TimedHost : public testbed::SoftMcHost
{
  public:
    TimedHost(dram::DramModule &module, const testbed::HostConfig &cfg,
              HostCounts &counts)
        : SoftMcHost(module, cfg), counts_(counts)
    {
    }

    void
    setAmbient(Celsius ambient) override
    {
        Span s("testbed.set_ambient");
        SoftMcHost::setAmbient(ambient);
    }
    void
    writeAll(dram::DataPattern p) override
    {
        Span s("testbed.write");
        SoftMcHost::writeAll(p);
    }
    void
    restoreAll() override
    {
        Span s("testbed.write");
        SoftMcHost::restoreAll();
    }
    void
    disableRefresh() override
    {
        Span s("testbed.refresh_ctl");
        SoftMcHost::disableRefresh();
    }
    void
    enableRefresh() override
    {
        Span s("testbed.refresh_ctl");
        SoftMcHost::enableRefresh();
    }
    void
    wait(Seconds t) override
    {
        Span s("testbed.wait");
        SoftMcHost::wait(t);
    }
    std::vector<dram::ChipFailure>
    readAndCompareAll() override
    {
        Span s("testbed.read_compare");
        counts_.readCompares.fetch_add(1, std::memory_order_relaxed);
        return SoftMcHost::readAndCompareAll();
    }

  private:
    HostCounts &counts_;
};

struct ReplayTotals
{
    uint64_t digest = 0;
    uint64_t cells = 0;
    double virtualS = 0;
    bool ok = true;
};

/** The campaign's tasks, one public layer call at a time. */
ReplayTotals
replayCampaign(const campaign::CampaignConfig &cfg, HostCounts &counts,
               double *seconds)
{
    fs::remove_all(cfg.dir);
    fs::create_directories(cfg.dir);
    const double t0 = nowS();
    Span pass("vrt.pass");
    campaign::ProfileStore store((fs::path(cfg.dir) / "store").string(),
                                 cfg.profileFormat);
    const size_t rounds = cfg.rounds.size();
    std::mutex mu; // serializes commits, as runCampaign does
    ReplayTotals totals;
    std::vector<Seconds> virtualS(cfg.chips.size() * rounds, 0.0);
    std::vector<uint64_t> cells(virtualS.size(), 0);
    const uint64_t parent = pass.id();
    eval::runFleet(
        cfg.chips.size() * rounds,
        [&](size_t task) {
            Span t("campaign.task", parent, 0);
            const size_t c = task / rounds, rIdx = task % rounds;
            const campaign::RoundSpec &round = cfg.rounds[rIdx];
            profiling::ProfilerSpec spec;
            spec.iterations = round.iterations;
            spec.setTemperature = round.setTemperature;
            spec.reachDeltaRefresh = round.reachDeltaRefresh;
            spec.reachDeltaTemp = round.reachDeltaTemp;
            const std::string name = campaign::resolvedProfilerName(round);
            std::unique_ptr<profiling::Profiler> profiler =
                std::move(profiling::makeProfiler(name, spec).value());
            std::unique_ptr<dram::DramModule> module;
            {
                Span s("dram.build");
                module = std::make_unique<dram::DramModule>(
                    cfg.chips[c].config);
            }
            TimedHost host(*module, cfg.host, counts);
            common::Expected<profiling::ProfilingResult> res = [&] {
                Span s(name == "brute_force" ? "profiling.brute_force.round"
                                             : "profiling.reach.round");
                return profiler->profile(host, round.target);
            }();
            virtualS[task] = host.now();
            if (!res)
                return 0;
            cells[task] = res.value().profile.size();
            std::lock_guard<std::mutex> lock(mu);
            Span s("campaign.commit");
            store.commit(campaign::roundKey(cfg, c, rIdx),
                         res.value().profile);
            return 1;
        },
        cfg.fleet);
    pass.close();
    *seconds = nowS() - t0;
    for (size_t i = 0; i < virtualS.size(); ++i) {
        totals.virtualS += virtualS[i];
        totals.cells += cells[i];
    }
    totals.ok = store.size() == virtualS.size();
    totals.digest = directoryDigest(store.dir());
    return totals;
}

} // namespace

uint64_t
campaignReferenceDigest(const std::string &workDir)
{
    Result ignored;
    return freshCampaign(
        campaignConfig(Size::Tiny, golden::kReferenceSeed, 0,
                       (fs::path(workDir) / "vrt_reference").string()),
        ignored);
}

Result
runVrtCampaign(const Options &opt)
{
    Result r;
    const unsigned threads = opt.threads ? opt.threads : hardwareThreads();
    const std::string dir = (fs::path(opt.workDir) / "vrt").string();
    const campaign::CampaignConfig cfg =
        campaignConfig(opt.size, opt.seed, threads, dir);
    const size_t tasks = cfg.chips.size() * cfg.rounds.size();
    r.note("vrt_campaign: " + std::to_string(cfg.chips.size()) +
           " chips x " + std::to_string(cfg.rounds.size()) +
           " rounds, " + std::to_string(threads) + " fleet threads");

    // Set-up: configure the fleet and run one cold campaign, 3 times.
    Samples setup;
    uint64_t digest = 0;
    for (int i = 0; i < 3; ++i) {
        double t0 = nowS();
        uint64_t d = freshCampaign(cfg, r);
        setup.add(nowS() - t0);
        r.attempted += tasks;
        if (i > 0 && d != digest)
            r.fail("vrt_campaign: store bytes differ between set-up runs");
        digest = d;
    }

    // peak_rss_mb is the median over campaigns of each one's peak: the
    // peak of a whole run depends on which chips' models happened to be
    // live at once, and it moved twice as much.
    uint64_t mismatches = 0;
    Samples passes, rssMb;
    auto campaignPass = [&] {
        double sec = 0;
        resetPeakRss();
        if (freshCampaign(cfg, r, &sec) != digest)
            ++mismatches;
        passes.add(sec);
        rssMb.add(peakRssMb());
    };
    // A traced run times its untraced campaigns between the traced ones
    // (below), so drift over the run does not read as tracing overhead.
    if (!opt.trace)
        for (double end = nowS() + opt.seconds;
             passes.size() < 3 || nowS() < end;)
            campaignPass();
    else
        campaignPass(); // leaves the store whose size is reported
    const uint64_t storeBytes =
        directoryBytes((fs::path(dir) / "store").string());

    // Gate: the store must be byte-identical at 1 and N threads.
    campaign::CampaignConfig single = cfg;
    single.fleet.threads = 1;
    r.attempted += tasks;
    if (freshCampaign(single, r) != digest)
        r.fail("vrt_campaign: store bytes differ at 1 and " +
               std::to_string(threads) + " threads");
    ++r.attempted;
    if (campaignReferenceDigest(opt.workDir) != golden::kCampaignDigest)
        r.fail("vrt_campaign: reference store digest changed (stored "
               "profile bytes are no longer identical)");

    auto judgeCampaigns = [&] {
        r.attempted += passes.size() * tasks;
        if (mismatches)
            r.fail("vrt_campaign: store bytes differ between runs",
                   mismatches);
    };
    if (!opt.trace) {
        judgeCampaigns();
        r.set("setup_s", setup.median(), "s");
        r.set("peak_rss_mb", rssMb.median(), "MB");
        r.set("throughput_per_s",
              static_cast<double>(tasks) / passes.median(), "1/s");
        r.set("latency_p50_ms", passes.median() * 1e3, "ms");
        r.note("vrt_campaign: " + std::to_string(passes.size()) +
               " campaigns (latency n=" + std::to_string(passes.size()) +
               ", p90 " + std::to_string(passes.quantile(0.9) * 1e3) +
               " ms), " + std::to_string(tasks) + " chip-rounds each");
        fs::remove_all(dir);
        return r;
    }

    HostCounts counts;
    ReplayTotals last;
    uint64_t replayMismatch = 0;
    Tracer::instance().collect();
    Samples traced;
    for (const double end = nowS() + opt.seconds;
         traced.size() < 2 || nowS() < end;) {
        campaignPass();
        Tracer::instance().enable(true);
        double sec = 0;
        last = replayCampaign(cfg, counts, &sec);
        Tracer::instance().enable(false);
        if (!last.ok || last.digest != digest)
            ++replayMismatch;
        traced.add(sec);
    }
    judgeCampaigns();
    std::vector<SpanRecord> spans = Tracer::instance().collect();
    r.attempted += traced.size() * tasks;
    if (replayMismatch)
        r.fail("vrt_campaign: layer-by-layer replay store differs from "
               "runCampaign's",
               replayMismatch);
    std::vector<uint64_t> roots;
    for (const SpanRecord &s : spans)
        if (s.name == "vrt.pass")
            roots.push_back(s.id);

    const double n = static_cast<double>(traced.size());
    std::map<std::string, uint64_t> self = selfTimeByName(spans);
    auto perPass = [&](const char *name) {
        return static_cast<double>(self[name]) * 1e-9 / n;
    };
    r.set("dram.build_s", perPass("dram.build"), "s");
    r.set("testbed.read_compare_s", perPass("testbed.read_compare"), "s");
    r.set("testbed.read_compare_calls",
          static_cast<double>(counts.readCompares.load()) / n, "count");
    r.set("testbed.write_s", perPass("testbed.write"), "s");
    r.set("testbed.virtual_s", last.virtualS, "s");
    r.set("profiling.brute_force.round_s",
          perPass("profiling.brute_force.round"), "s");
    r.set("profiling.reach.round_s", perPass("profiling.reach.round"), "s");
    r.set("profiling.cells_found", static_cast<double>(last.cells),
          "count");
    r.set("campaign.commit_s", perPass("campaign.commit"), "s");
    r.set("campaign.store_bytes", static_cast<double>(storeBytes), "B");
    addTraceSummary(r, spans, roots, passes.median(), traced.median());
    if (!opt.spanFile.empty())
        writeSpans(opt.spanFile, spans);
    fs::remove_all(dir);
    return r;
}

} // namespace perfbench
