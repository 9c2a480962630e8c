/**
 * @file
 * Workload dispatch, the metric tables, and the tracing summary every
 * workload's traced run ends with.
 */

#include <algorithm>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig13_sweep", "vrt_campaign", "serve_hot"};
    return names;
}

bool
runWorkload(const Options &opt, Result &out)
{
    if (opt.workload == "fig13_sweep")
        out = runFig13(opt);
    else if (opt.workload == "vrt_campaign")
        out = runVrtCampaign(opt);
    else if (opt.workload == "serve_hot")
        out = runServe(opt);
    else
        return false;
    return true;
}

const std::vector<LayerMetric> &
endToEndMetrics()
{
    static const std::vector<LayerMetric> table = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"throughput_per_s", "1/s"},
        {"latency_p50_ms", "ms"},
    };
    return table;
}

const std::vector<LayerMetric> &
layerMetrics()
{
    static const std::vector<LayerMetric> table = {
        {"sim.run_s", "s"},
        {"sim.host_ns_per_mem_cycle", "ns"},
        {"sim.mem_cycles", "count"},
        {"sim.insts", "count"},
        {"sim.act_cmds", "count"},
        {"sim.ref_cmds", "count"},
        {"sim.row_hit_rate", "ratio"},
        {"sim.llc_hit_rate", "ratio"},
        {"sim.refresh_stall_cycles", "count"},
        {"sim.avg_read_latency_cycles", "count"},
        {"workload.trace_gen_s", "s"},
        {"power.eval_s", "s"},
        {"eval.overhead_s", "s"},
        {"dram.build_s", "s"},
        {"testbed.read_compare_s", "s"},
        {"testbed.read_compare_calls", "count"},
        {"testbed.write_s", "s"},
        {"testbed.virtual_s", "s"},
        {"profiling.brute_force.round_s", "s"},
        {"profiling.reach.round_s", "s"},
        {"profiling.cells_found", "count"},
        {"campaign.commit_s", "s"},
        {"campaign.store_bytes", "B"},
        {"campaign.commit_delta_s", "s"},
        {"campaign.compactions", "count"},
        {"campaign.open_view_s", "s"},
        {"campaign.load_s", "s"},
        {"serve.cache.get_ns", "ns"},
        {"serve.cache.view_ns", "ns"},
        {"serve.cache.hit_rate", "ratio"},
        {"serve.cache.loads", "count"},
        {"serve.cache.view_loads", "count"},
        {"serve.cache.evictions", "count"},
        {"serve.cache.bytes_over_budget", "B"},
        {"serve.engine.latency_p50_us", "us"},
        {"serve.engine.latency_p99_us", "us"},
        {"serve.writer.commit_p50_ms", "ms"},
        {"serve.writer.commit_p95_ms", "ms"},
        {"net.send_s", "s"},
        {"net.recv_s", "s"},
        {"net.frames_out", "count"},
        {"net.bytes_out", "B"},
        {"net.rejected", "count"},
        {"net.protocol_errors", "count"},
        {"loadgen.lag_p99_us", "us"},
        {"loadgen.query_p99_us", "us"},
        {"loadgen.max_qps_at_slo", "1/s"},
        {"trace.overhead_pct", "%"},
        {"trace.accounted_pct", "%"},
        {"trace.glue_pct", "%"},
    };
    return table;
}

void
reportAccounting(Result &r, const std::string &basis, double accountedPct,
                 double gluePct, double overheadPct)
{
    r.set("trace.overhead_pct", overheadPct, "%");
    r.set("trace.accounted_pct", accountedPct, "%");
    r.set("trace.glue_pct", gluePct, "%");
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "trace: layer spans on the blocking path cover %.1f%% of "
                  "%s (tolerance +-%.0f%%: %s); tracing overhead %.1f%%",
                  accountedPct, basis.c_str(), kAccountingTolerancePct,
                  accountingWithinTolerance(accountedPct) ? "within"
                                                          : "OUTSIDE",
                  overheadPct);
    r.note(buf);
}

void
addTraceSummary(Result &r, const std::vector<SpanRecord> &spans,
                const std::vector<uint64_t> &roots, double untracedPassS,
                double tracedPassS)
{
    double wall = 0, glue = 0;
    for (uint64_t root : roots) {
        for (const SpanRecord &s : spans)
            if (s.id == root)
                wall += static_cast<double>(s.end - s.start);
        std::map<std::string, double> share = wallShareByName(spans, root);
        for (const SpanRecord &s : spans)
            if (s.id == root)
                glue += share[s.name];
    }
    const double passes = static_cast<double>(roots.size());
    const double layerS = (wall - glue) * 1e-9 / std::max(passes, 1.0);
    reportAccounting(r,
                     "the untraced pass (" + std::to_string(roots.size()) +
                         " traced passes)",
                     100.0 * layerS / untracedPassS,
                     wall > 0 ? 100.0 * glue / wall : 0,
                     100.0 * (tracedPassS - untracedPassS) / untracedPassS);
}

} // namespace perfbench
