/**
 * @file
 * The benchmark's workloads and the per-layer metric table they share.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/** fig13_sweep: eval::EndToEndEvaluator::run, all of it in sim. */
Result runFig13(const Options &opt);
/** vrt_campaign: campaign::runCampaign on a fresh chip fleet. */
Result runVrtCampaign(const Options &opt);
/** serve_hot: open-loop REAPER-NET load on net::Server; its traced run
 *  adds a churn probe (cache misses, delta commits). */
Result runServe(const Options &opt);

/** Dispatch by workload name; false when the name is unknown. */
bool runWorkload(const Options &opt, Result &out);

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** One per-layer metric of the traced run. */
struct LayerMetric
{
    const char *name;
    const char *unit;
};

/** Every end-to-end metric an untraced run prints, on every workload. */
const std::vector<LayerMetric> &endToEndMetrics();

/**
 * Every per-layer metric a traced run prints, on every workload; a
 * layer a workload does not exercise reads 0.
 */
const std::vector<LayerMetric> &layerMetrics();

/**
 * Tracing summary shared by all workloads: the overhead of the traced
 * passes over the untraced ones, and how much of the untraced wall time
 * the layer spans on the blocking path account for.
 *
 * @param spans every span of the traced passes
 * @param roots the root span of each traced pass
 * @param untracedPassS median wall time of an untraced pass
 * @param tracedPassS median wall time of a traced pass
 */
void addTraceSummary(Result &r, const std::vector<SpanRecord> &spans,
                     const std::vector<uint64_t> &roots,
                     double untracedPassS, double tracedPassS);

/**
 * Set trace.accounted_pct, trace.glue_pct and trace.overhead_pct, and
 * note them with what the accounting is measured against (`basis`).
 */
void reportAccounting(Result &r, const std::string &basis,
                      double accountedPct, double gluePct,
                      double overheadPct);

/** Accounting tolerance: |accounted - 100%| the benchmark accepts. */
constexpr double kAccountingTolerancePct = 15.0;

inline bool
accountingWithinTolerance(double accountedPct)
{
    return accountedPct >= 100.0 - kAccountingTolerancePct &&
           accountedPct <= 100.0 + kAccountingTolerancePct;
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
