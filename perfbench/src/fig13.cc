/**
 * @file
 * fig13_sweep: the Fig. 13 end-to-end evaluator over both chip sizes
 * with the 64 ms baseline, two extended intervals and no refresh.
 *
 * The untraced pass is one eval::EndToEndEvaluator::run. The traced
 * pass replays the same sweep through the layers' public calls
 * (workload trace generation, sim::System, power::DramPowerModel,
 * eval::computeOverhead) with a span around each, and must produce
 * bit-identical sweep points; that replay is also the correctness
 * reference for the evaluator.
 */

#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "eval/endtoend.h"
#include "eval/fleet.h"
#include "golden.h"
#include "workloads.h"

namespace perfbench {

using namespace reaper;

namespace {

eval::EndToEndConfig
sweepConfig(Size size, uint64_t seed, unsigned threads)
{
    eval::EndToEndConfig cfg;
    cfg.refreshIntervals = {0.512, 1.280};
    cfg.includeNoRefresh = true;
    cfg.chipGbits = {8, 64};
    cfg.seed = seed;
    cfg.threads = threads;
    if (size == Size::Full) {
        // Many short runs: simulation speed depends on a mix's memory
        // intensity, so more mixes keep the rate steady across seeds
        // (10 mixes: a quartile spread of 0.11 over five seeds, 20: 0.08).
        cfg.numMixes = 20;
        cfg.accessesPerCore = 20000;
        cfg.runCycles = 80000;
    } else {
        cfg.numMixes = 2;
        cfg.accessesPerCore = 2000;
        cfg.runCycles = 8000;
    }
    return cfg;
}

/** Digest of every number a sweep produces. */
uint64_t
sweepDigest(const std::vector<eval::SweepPoint> &points)
{
    Digest d;
    for (const eval::SweepPoint &p : points) {
        d.u64(p.chipGbit);
        d.f64(p.interval);
        d.u64(p.noRefresh);
        for (size_t k = 0; k < eval::kNumProfilerKinds; ++k) {
            d.u64(p.perfImprovement[k].size());
            for (double v : p.perfImprovement[k])
                d.f64(v);
            d.u64(p.powerReduction[k].size());
            for (double v : p.powerReduction[k])
                d.f64(v);
            const eval::OverheadResult &o = p.overhead[k];
            d.f64(o.roundTime);
            d.f64(o.longevity);
            d.f64(o.reprofileInterval);
            d.f64(o.overheadFraction);
        }
    }
    return d.value();
}

/** Simulator statistics summed over one replayed sweep. */
struct SimTotals
{
    uint64_t memCycles = 0;
    uint64_t insts = 0;
    uint64_t act = 0;
    uint64_t ref = 0;
    uint64_t cas = 0;
    uint64_t rowHits = 0;
    uint64_t llcHits = 0;
    uint64_t llcAccesses = 0;
    uint64_t refreshStall = 0;
    uint64_t readLatencySum = 0;
    uint64_t reads = 0;
    /** Every job's per-core IPC and command counts. */
    uint64_t statsDigest = 0;
};

struct Replay
{
    uint64_t digest = 0;
    SimTotals sim;
};

/**
 * The evaluator's sweep, one public layer call at a time. The
 * assembly arithmetic mirrors eval/endtoend.cc term for term so the
 * results are bit-identical.
 */
Replay
replaySweep(const eval::EndToEndConfig &cfg)
{
    Span pass("fig13.pass");
    std::vector<workload::WorkloadMix> mixes =
        workload::makeMixes(cfg.numMixes, cfg.seed);
    std::vector<eval::ProfilerKind> kinds;
    for (const std::string &name : cfg.profilers)
        kinds.push_back(eval::profilerKindByName(name).value());

    std::vector<std::vector<sim::Trace>> mixTraces;
    for (const auto &mix : mixes) {
        Span s("workload.trace_gen");
        mixTraces.push_back(workload::tracesForMix(
            mix, cfg.accessesPerCore, cfg.seed));
    }
    std::set<int> benchSet;
    for (const auto &mix : mixes)
        benchSet.insert(mix.benchmarks.begin(), mix.benchmarks.end());
    std::vector<int> benchmarks(benchSet.begin(), benchSet.end());

    std::vector<Seconds> intervals{kJedecRefreshInterval};
    for (Seconds t : cfg.refreshIntervals)
        if (t != kJedecRefreshInterval)
            intervals.push_back(t);
    if (cfg.includeNoRefresh)
        intervals.push_back(0.0);

    struct Job
    {
        unsigned chip;
        size_t intervalIdx;
        int mix;
        int bench;
    };
    std::vector<Job> jobs;
    for (unsigned chip : cfg.chipGbits) {
        for (int b : benchmarks)
            jobs.push_back({chip, 0, -1, b});
        for (size_t ti = 0; ti < intervals.size(); ++ti)
            for (int m = 0; m < static_cast<int>(mixes.size()); ++m)
                jobs.push_back({chip, ti, m, -1});
    }

    std::vector<sim::SystemStats> results;
    {
        Span fleet("eval.fleet");
        const uint64_t parent = fleet.id();
        eval::FleetOptions fo;
        fo.threads = cfg.threads;
        results = eval::runFleet(
            jobs.size(),
            [&](size_t i) {
                Span job("eval.job", parent, 0);
                const Job &j = jobs[i];
                std::vector<sim::Trace> alone;
                if (j.mix < 0) {
                    Span s("workload.trace_gen");
                    alone = {workload::generateTrace(
                        workload::specBenchmarks().at(
                            static_cast<size_t>(j.bench)),
                        cfg.accessesPerCore, hashCombine(cfg.seed, 0),
                        1ull << 32)};
                }
                sim::SystemConfig sys = cfg.system;
                sys.setDram(j.chip, j.mix < 0 ? kJedecRefreshInterval
                                              : intervals[j.intervalIdx]);
                std::unique_ptr<sim::System> system;
                {
                    Span s("sim.build");
                    system = std::make_unique<sim::System>(
                        sys, j.mix < 0 ? alone
                                       : mixTraces[static_cast<size_t>(
                                             j.mix)]);
                }
                {
                    Span s("sim.run");
                    system->run(cfg.runCycles);
                }
                Span s("sim.stats");
                return system->stats();
            },
            fo);
    }

    Replay out;
    Digest statsDigest;
    std::map<std::tuple<unsigned, size_t, int>, const sim::SystemStats *>
        mixRuns;
    std::map<std::pair<unsigned, int>, double> aloneIpc;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const Job &j = jobs[i];
        const sim::SystemStats &st = results[i];
        SimTotals &t = out.sim;
        t.memCycles += st.memCycles;
        for (uint64_t n : st.coreInsts)
            t.insts += n;
        const sim::CommandCounts &c = st.channels.commands;
        t.act += c.act;
        t.ref += c.refab + c.refpb;
        t.cas += c.rd + c.wr;
        t.rowHits += st.channels.rowHits();
        t.llcHits += st.llc.hits;
        t.llcAccesses += st.llc.hits + st.llc.misses;
        t.refreshStall += st.channels.refreshStallCycles;
        t.readLatencySum += st.channels.readLatencySum;
        t.reads += st.channels.readsServed;
        for (double ipc : st.coreIpc)
            statsDigest.f64(ipc);
        for (uint64_t v : {c.act, c.pre, c.rd, c.wr, c.refab, c.refpb})
            statsDigest.u64(v);
        if (j.mix < 0)
            aloneIpc[{j.chip, j.bench}] = st.coreIpc.at(0);
        else
            mixRuns[{j.chip, j.intervalIdx, j.mix}] = &st;
    }
    out.sim.statsDigest = statsDigest.value();

    std::vector<eval::SweepPoint> points;
    for (unsigned chip : cfg.chipGbits) {
        power::DramPowerModel model(power::EnergyParams::lpddr4(), chip,
                                    cfg.overhead.numChips,
                                    cfg.system.channels);
        auto totalPower = [&](const sim::SystemStats &st) {
            Span s("power.eval");
            return model
                .fromCounts(st.channels.commands, st.simulatedSeconds)
                .total();
        };
        auto aloneOf = [&](size_t m) {
            std::vector<double> alone;
            for (int b : mixes[m].benchmarks)
                alone.push_back(aloneIpc.at({chip, b}));
            return alone;
        };
        std::vector<double> baseWs(mixes.size()), basePower(mixes.size());
        for (size_t m = 0; m < mixes.size(); ++m) {
            const sim::SystemStats &r =
                *mixRuns.at({chip, 0, static_cast<int>(m)});
            baseWs[m] = workload::weightedSpeedup(r.coreIpc, aloneOf(m));
            basePower[m] = totalPower(r);
        }
        for (size_t ti = 1; ti < intervals.size(); ++ti) {
            eval::SweepPoint pt;
            pt.chipGbit = chip;
            pt.noRefresh = intervals[ti] <= 0;
            pt.interval = pt.noRefresh ? 0.0 : intervals[ti];
            eval::OverheadConfig ocfg = cfg.overhead;
            ocfg.chipGbit = chip;
            ocfg.targetRefreshInterval = pt.noRefresh ? 0.0 : pt.interval;
            for (eval::ProfilerKind kind : kinds) {
                size_t ki = static_cast<size_t>(eval::profilerIndex(kind));
                if (pt.noRefresh) {
                    pt.overhead[ki] = eval::OverheadResult{};
                    continue;
                }
                Span s("eval.overhead");
                pt.overhead[ki] = eval::computeOverhead(ocfg, kind);
            }
            for (size_t m = 0; m < mixes.size(); ++m) {
                const sim::SystemStats &r =
                    *mixRuns.at({chip, ti, static_cast<int>(m)});
                double ws = workload::weightedSpeedup(r.coreIpc, aloneOf(m));
                double idealGain = ws / baseWs[m] - 1.0;
                double pTotal = totalPower(r);
                for (eval::ProfilerKind kind : kinds) {
                    size_t ki =
                        static_cast<size_t>(eval::profilerIndex(kind));
                    if (pt.noRefresh && kind != eval::ProfilerKind::Ideal)
                        continue;
                    double ov = pt.overhead[ki].overheadFraction;
                    pt.perfImprovement[ki].push_back(
                        (1.0 + idealGain) * (1.0 - ov) - 1.0);
                    double pProf = 0.0;
                    if (!pt.noRefresh &&
                        kind != eval::ProfilerKind::Ideal &&
                        pt.overhead[ki].reprofileInterval > 0 &&
                        std::isfinite(pt.overhead[ki].reprofileInterval)) {
                        double roundEnergy;
                        {
                            Span s("power.eval");
                            roundEnergy = model.profilingRoundEnergy(
                                ocfg.iterations, ocfg.numPatterns);
                        }
                        if (kind == eval::ProfilerKind::Reaper)
                            roundEnergy /= ocfg.reaperSpeedup;
                        pProf = roundEnergy /
                                pt.overhead[ki].reprofileInterval;
                    }
                    pt.powerReduction[ki].push_back(
                        1.0 - (pTotal + pProf) / basePower[m]);
                }
            }
            points.push_back(std::move(pt));
        }
    }
    out.digest = sweepDigest(points);
    return out;
}

uint64_t
evaluatorDigest(const eval::EndToEndConfig &cfg)
{
    eval::EndToEndEvaluator ev(cfg);
    return sweepDigest(ev.run());
}

} // namespace

uint64_t
fig13ReferenceDigest()
{
    return evaluatorDigest(
        sweepConfig(Size::Tiny, golden::kReferenceSeed, 0));
}

Result
runFig13(const Options &opt)
{
    Result r;
    const unsigned threads = opt.threads ? opt.threads : hardwareThreads();
    const eval::EndToEndConfig cfg =
        sweepConfig(opt.size, opt.seed, threads);
    r.note("fig13_sweep: " + std::to_string(cfg.numMixes) + " mixes x " +
           std::to_string(cfg.accessesPerCore) + " accesses/core, " +
           std::to_string(cfg.runCycles) + " cycles/run, " +
           std::to_string(threads) + " fleet threads");

    // Set-up: build the evaluator and run one cold sweep, three times.
    Samples setup;
    uint64_t digest = 0;
    for (int i = 0; i < 3; ++i) {
        double t0 = nowS();
        uint64_t d = evaluatorDigest(cfg);
        setup.add(nowS() - t0);
        ++r.attempted;
        if (i > 0 && d != digest)
            r.fail("fig13: sweep results differ between set-up runs");
        digest = d;
    }

    uint64_t mismatches = 0;
    auto sweep = [&] {
        eval::EndToEndEvaluator ev(cfg);
        if (sweepDigest(ev.run()) != digest)
            ++mismatches;
    };
    // A traced run times its untraced sweeps between the traced ones
    // (below), so drift over the run does not read as tracing overhead.
    // peak_rss_mb is the median over sweeps of each one's peak.
    Samples passes, rssMb;
    if (!opt.trace)
        for (double end = nowS() + opt.seconds;
             passes.size() < 3 || nowS() < end;) {
            resetPeakRss();
            passes.add(timePasses(0, 1, sweep));
            rssMb.add(peakRssMb());
        }

    // The layer-by-layer replay is the reference: same numbers, bit
    // for bit. In a traced run it is also what the spans time.
    Replay reference = replaySweep(cfg);
    ++r.attempted;
    if (reference.digest != digest)
        r.fail("fig13: evaluator disagrees with the layer-by-layer "
               "replay of the same sweep");
    ++r.attempted;
    if (fig13ReferenceDigest() != golden::kFig13Digest)
        r.fail("fig13: reference sweep digest changed (simulated "
               "statistics are no longer identical)");

    const double memCycles = static_cast<double>(reference.sim.memCycles);
    auto judgeSweeps = [&] {
        r.attempted += passes.size();
        if (mismatches)
            r.fail("fig13: evaluator results did not repeat exactly",
                   mismatches);
    };
    if (!opt.trace) {
        judgeSweeps();
        r.set("setup_s", setup.median(), "s");
        r.set("peak_rss_mb", rssMb.median(), "MB");
        r.set("throughput_per_s", memCycles / passes.median(), "1/s");
        r.set("latency_p50_ms", passes.median() * 1e3, "ms");
        r.note("fig13_sweep: " + std::to_string(passes.size()) +
               " sweeps (latency n=" + std::to_string(passes.size()) +
               ", p90 " + std::to_string(passes.quantile(0.9) * 1e3) +
               " ms), " + std::to_string(reference.sim.memCycles) +
               " simulated controller cycles per sweep");
        return r;
    }

    Tracer::instance().collect();
    std::vector<uint64_t> roots;
    uint64_t replayMismatch = 0;
    Samples traced;
    for (const double end = nowS() + opt.seconds;
         traced.size() < 2 || nowS() < end;) {
        passes.add(timePasses(0, 1, sweep));
        Tracer::instance().enable(true);
        traced.add(timePasses(0, 1, [&] {
            Replay rp = replaySweep(cfg);
            if (rp.digest != digest ||
                rp.sim.statsDigest != reference.sim.statsDigest)
                ++replayMismatch;
        }));
        Tracer::instance().enable(false);
    }
    judgeSweeps();
    std::vector<SpanRecord> spans = Tracer::instance().collect();
    for (const SpanRecord &s : spans)
        if (s.name == "fig13.pass")
            roots.push_back(s.id);
    r.attempted += traced.size();
    if (replayMismatch)
        r.fail("fig13: traced replay results or per-job simulator "
               "statistics differ",
               replayMismatch);

    const double n = static_cast<double>(traced.size());
    std::map<std::string, uint64_t> self = selfTimeByName(spans);
    const SimTotals &t = reference.sim;
    auto perPass = [&](const char *name) {
        return static_cast<double>(self[name]) * 1e-9 / n;
    };
    r.set("sim.run_s", perPass("sim.run"), "s");
    r.set("sim.host_ns_per_mem_cycle",
          static_cast<double>(self["sim.run"]) / n / memCycles, "ns");
    r.set("sim.mem_cycles", memCycles, "count");
    r.set("sim.insts", static_cast<double>(t.insts), "count");
    r.set("sim.act_cmds", static_cast<double>(t.act), "count");
    r.set("sim.ref_cmds", static_cast<double>(t.ref), "count");
    r.set("sim.row_hit_rate",
          t.cas ? static_cast<double>(t.rowHits) / t.cas : 0, "ratio");
    r.set("sim.llc_hit_rate",
          t.llcAccesses ? static_cast<double>(t.llcHits) / t.llcAccesses
                        : 0,
          "ratio");
    r.set("sim.refresh_stall_cycles", static_cast<double>(t.refreshStall),
          "count");
    r.set("sim.avg_read_latency_cycles",
          t.reads ? static_cast<double>(t.readLatencySum) / t.reads : 0,
          "count");
    r.set("workload.trace_gen_s", perPass("workload.trace_gen"), "s");
    r.set("power.eval_s", perPass("power.eval"), "s");
    r.set("eval.overhead_s", perPass("eval.overhead"), "s");
    addTraceSummary(r, spans, roots, passes.median(), traced.median());
    if (!opt.spanFile.empty())
        writeSpans(opt.spanFile, spans);
    return r;
}

} // namespace perfbench
