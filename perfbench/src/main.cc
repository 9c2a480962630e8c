/**
 * @file
 * Benchmark entry point.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans PATH] [--work-dir DIR] [--git-sha SHA]
 *             [--source-digest D]
 *   perfbench --print-golden
 *
 * Prints a stamp line and human-readable notes, then, as the last line
 * of standard output, one JSON object with the keys correct, attempted,
 * failed and metrics. Exits 1 when any correctness gate failed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <malloc.h>
#include <string>
#include <sys/prctl.h>

#include "golden.h"
#include "obs/obs.h"
#include "workloads.h"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH] [--work-dir DIR] "
                 "[--git-sha SHA] [--source-digest D]\n"
              << "       perfbench --print-golden\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    // End-to-end numbers are measured with the library's own
    // observability off; the benchmark's spans are its own.
    setenv("REAPER_OBS", "off", 1);
    reaper::obs::setMode(reaper::obs::ObsMode::Off);
    // Pin glibc's mmap and trim thresholds at their initial 128 KiB.
    // Left dynamic, the first large free raises them, later large
    // blocks stay resident after they are freed, and peak RSS then
    // depends on allocation timing: it varied 3x between runs of the
    // same input. Pinned, freed large blocks go back to the system.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    mallopt(M_TRIM_THRESHOLD, 128 * 1024);
    // Timed sleeps (the load generator's schedule) wake within a few
    // microseconds instead of the default 50 us slack; threads started
    // later inherit this.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

    Options opt;
    bool printGolden = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                opt.workload = next();
            else if (arg == "--seed")
                opt.seed = std::stoull(next());
            else if (arg == "--seconds")
                opt.seconds = std::stod(next());
            else if (arg == "--trace")
                opt.trace = std::stoi(next()) != 0;
            else if (arg == "--spans")
                opt.spanFile = next();
            else if (arg == "--work-dir")
                opt.workDir = next();
            else if (arg == "--git-sha")
                opt.gitSha = next();
            else if (arg == "--source-digest")
                opt.sourceDigest = next();
            else if (arg == "--print-golden")
                printGolden = true;
            else
                usage(("unknown argument " + arg).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + arg).c_str());
        }
    }

    if (printGolden) {
        std::printf("kFig13Digest = 0x%016llxull\n",
                    static_cast<unsigned long long>(
                        fig13ReferenceDigest()));
        std::printf("kCampaignDigest = 0x%016llxull\n",
                    static_cast<unsigned long long>(
                        campaignReferenceDigest(opt.workDir)));
        return 0;
    }
    if (!(opt.seconds > 0))
        usage("--seconds must be positive");

    Result r;
    if (!runWorkload(opt, r))
        usage(("unknown workload '" + opt.workload + "'").c_str());

    if (opt.trace) {
        // Every per-layer metric on every workload; a layer the
        // workload does not exercise reads 0.
        Result out;
        out.correct = r.correct;
        out.attempted = r.attempted;
        out.failed = r.failed;
        out.notes = r.notes;
        for (const LayerMetric &m : layerMetrics()) {
            double v = r.get(m.name);
            out.set(m.name, std::isnan(v) ? 0.0 : v, m.unit);
        }
        r = out;
    } else {
        if (std::isnan(r.get("peak_rss_mb")))
            r.set("peak_rss_mb", peakRssMb(), "MB");
        Result out = r;
        out.metrics.clear();
        for (const LayerMetric &m : endToEndMetrics()) {
            double v = r.get(m.name);
            if (!std::isfinite(v) || v <= 0)
                out.fail(std::string("no measurement for ") + m.name);
            out.set(m.name, v, m.unit);
        }
        r = out;
    }

    std::cout << "stamp " << stampJson(opt) << "\n";
    for (const std::string &line : r.notes)
        std::cout << "# " << line << "\n";
    std::cout << resultJson(r) << std::endl;
    return r.correct ? 0 : 1;
}
