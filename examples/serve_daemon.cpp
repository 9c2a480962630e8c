/**
 * @file
 * Profile-serving daemon: a metered query service over a profile
 * store (src/serve/).
 *
 * Opens (or seeds) a campaign profile store, compiles its retention
 * profiles into query-optimized RefreshDirectory objects through the
 * sharded ProfileCache, and runs a zipfian stream of point lookups
 * ("is row r of chip c weak?" / "which refresh bin?") through the
 * multi-worker QueryEngine — the serving path a memory controller
 * would hit on every refresh decision. Prints a human summary plus
 * the serve::Metrics JSON snapshot (counters + latency percentiles).
 *
 * When the store directory is empty it is seeded with synthetic
 * retention profiles so the example is runnable standalone; point
 * --dir at a campaign_runner output directory to serve real
 * campaign-profiled chips instead.
 *
 * Usage: serve_daemon [options]
 *   --dir PATH          profile store directory (default:
 *                       ./reaper_serve_store, seeded if empty)
 *   --queries N         total queries to run (default 200000)
 *   --workers N         engine worker threads (default 4)
 *   --cache-mb N        cache capacity in MiB (default 64)
 *   --zipf S            zipf exponent over chips (default 0.99)
 *   --unknown-frac R    fraction of queries for absent keys
 *                       (default 0.01)
 *   --bloom             use Bloom-filter directories (over-refresh
 *                       only, smaller footprint)
 *   --views / --no-views  serve point lookups from lazy mmap-backed
 *                       ProfileViews (default on; ignored with
 *                       --bloom, whose one-sided answers differ)
 *   --profile-format F  format for newly committed profiles (demo
 *                       seeding): v2|binary (default) or v1|text;
 *                       stored profiles in either format are served
 *   --seed S            workload seed (default 1)
 *   --obs-dump PATH     write Chrome trace (PATH) + Prometheus text
 *                       (PATH.prom) at exit; pair with REAPER_OBS=
 *                       counters|trace
 *   --listen [H:]PORT   networked mode: serve the REAPER-NET wire
 *                       protocol (src/net/) on H:PORT (default host
 *                       127.0.0.1; port 0 = ephemeral) instead of
 *                       running the in-process workload. SIGINT or
 *                       SIGTERM shuts down gracefully: the listener
 *                       closes, in-flight queries drain, responses
 *                       flush, then metrics (and --obs-dump) are
 *                       written
 *   --port-file PATH    networked mode: write the bound port to PATH
 *                       once listening (how scripts find an
 *                       ephemeral port)
 *   --max-conns N       networked mode: connection cap (default 256)
 *   --queue-cap N       engine queue capacity (default 4096); small
 *                       values surface Rejected backpressure
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "reaper/reaper.h"

using namespace reaper;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0 << " [options]\n"
              << "  --dir PATH        store directory (default "
                 "./reaper_serve_store)\n"
              << "  --queries N       total queries (default 200000)\n"
              << "  --workers N       worker threads (default 4)\n"
              << "  --cache-mb N      cache capacity MiB (default 64)\n"
              << "  --zipf S          zipf exponent (default 0.99)\n"
              << "  --unknown-frac R  absent-key fraction (default "
                 "0.01)\n"
              << "  --bloom           Bloom-filter directories\n"
              << "  --views/--no-views  lazy view point lookups "
                 "(default on)\n"
              << "  --profile-format F  v2|binary (default) or "
                 "v1|text\n"
              << "  --seed S          workload seed (default 1)\n"
              << "  --obs-dump PATH   write Chrome trace + PATH.prom "
                 "at exit\n"
              << "  --listen [H:]PORT networked mode on H:PORT "
                 "(port 0 = ephemeral)\n"
              << "  --port-file PATH  write the bound port to PATH\n"
              << "  --max-conns N     connection cap (default 256)\n"
              << "  --queue-cap N     engine queue capacity (default "
                 "4096)\n";
    std::exit(2);
}

constexpr uint64_t kRowBits = 2048 * 8; ///< 2 KiB rows
constexpr uint64_t kRowsPerChip = 1ull << 16;

/** Seed an empty store with synthetic per-chip retention profiles
 *  (stand-in for a campaign_runner output directory). */
void
seedDemoStore(campaign::ProfileStore &store)
{
    const size_t chips = 12, cells = 20000;
    std::cout << "Seeding empty store with " << chips
              << " synthetic chip profiles...\n";
    for (size_t c = 0; c < chips; ++c) {
        Rng rng(100 + c);
        std::vector<dram::ChipFailure> fails;
        fails.reserve(cells);
        for (size_t i = 0; i < cells; ++i)
            fails.push_back({0, rng.uniformInt(kRowsPerChip * kRowBits)});
        profiling::RetentionProfile p({1.024, 45.0});
        p.add(fails);
        store.commit(campaign::ProfileStore::profileKey(
                         "demo-chip-" + std::to_string(c),
                         {1.024, 45.0}),
                     p);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir = "./reaper_serve_store";
    uint64_t queries = 200000, seed = 1;
    unsigned workers = 4;
    size_t cache_mb = 64;
    double zipf = 0.99, unknown_frac = 0.01;
    bool bloom = false;
    bool views = true;
    std::string obs_dump;
    bool listen = false;
    std::string listen_host = "127.0.0.1";
    uint16_t listen_port = 0;
    std::string port_file;
    size_t max_conns = 256;
    size_t queue_cap = 4096;
    profiling::ProfileFormat profile_format =
        profiling::ProfileFormat::BinaryV2;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--dir")
            dir = next();
        else if (arg == "--queries")
            queries = std::stoull(next());
        else if (arg == "--workers")
            workers = static_cast<unsigned>(std::stoul(next()));
        else if (arg == "--cache-mb")
            cache_mb = std::stoull(next());
        else if (arg == "--zipf")
            zipf = std::stod(next());
        else if (arg == "--unknown-frac")
            unknown_frac = std::stod(next());
        else if (arg == "--bloom")
            bloom = true;
        else if (arg == "--views")
            views = true;
        else if (arg == "--no-views")
            views = false;
        else if (arg == "--profile-format") {
            common::Expected<profiling::ProfileFormat> parsed =
                profiling::parseProfileFormat(next());
            if (!parsed) {
                std::cerr << parsed.error().describe() << "\n";
                usage(argv[0]);
            }
            // A delta record needs a base profile, so it cannot be
            // what a store commits; refuse it before any work starts.
            if (parsed.value() == profiling::ProfileFormat::DeltaV2) {
                std::cerr << "--profile-format delta is not a store "
                             "format; use v2 or v1\n";
                usage(argv[0]);
            }
            profile_format = parsed.value();
        } else if (arg == "--seed")
            seed = std::stoull(next());
        else if (arg == "--obs-dump")
            obs_dump = next();
        else if (arg == "--listen") {
            listen = true;
            std::string spec = next();
            size_t colon = spec.rfind(':');
            if (colon != std::string::npos) {
                listen_host = spec.substr(0, colon);
                spec = spec.substr(colon + 1);
            }
            listen_port = static_cast<uint16_t>(std::stoul(spec));
        } else if (arg == "--port-file")
            port_file = next();
        else if (arg == "--max-conns")
            max_conns = std::stoull(next());
        else if (arg == "--queue-cap")
            queue_cap = std::stoull(next());
        else
            usage(argv[0]);
    }

    campaign::ProfileStore store(dir, profile_format);
    if (store.size() == 0)
        seedDemoStore(store);
    std::vector<std::string> keys;
    for (const auto &entry : store.entries())
        keys.push_back(entry.key);
    std::cout << "Store " << dir << ": " << keys.size()
              << " profiles\n";

    serve::CacheConfig cache_cfg;
    cache_cfg.capacityBytes = cache_mb * 1024 * 1024;
    cache_cfg.directory.rowBits = kRowBits;
    cache_cfg.directory.useBloomFilters = bloom;
    cache_cfg.serveFromViews = views;
    serve::ProfileCache cache(store, cache_cfg);

    serve::Metrics metrics;
    serve::EngineConfig engine_cfg;
    engine_cfg.workers = workers;
    engine_cfg.queueCapacity = queue_cap;

    if (listen) {
        net::ServerConfig server_cfg;
        server_cfg.host = listen_host;
        server_cfg.port = listen_port;
        server_cfg.maxConnections = max_conns;
        server_cfg.keys = keys;
        // Arm the SIGINT/SIGTERM latch before going live so a signal
        // racing startup is not lost.
        net::installShutdownHandlers();
        net::Server server(cache, engine_cfg, server_cfg, &metrics);
        if (common::Status s = server.start(); !s) {
            std::cerr << "serve_daemon: " << s.error().describe()
                      << "\n";
            return 1;
        }
        std::cout << "Listening on " << listen_host << ":"
                  << server.port() << " (" << workers << " workers, "
                  << keys.size() << " profiles); SIGINT/SIGTERM to "
                  << "stop\n";
        if (!port_file.empty()) {
            std::ofstream pf(port_file);
            pf << server.port() << "\n";
            if (!pf) {
                std::cerr << "serve_daemon: cannot write --port-file "
                          << port_file << "\n";
                return 1;
            }
        }
        net::waitForShutdown();
        std::cout << "Shutdown requested; draining in-flight "
                     "queries...\n";
        server.stop();
        server.join();
        net::ServerStats stats = server.stats();
        std::cout << "Served " << stats.requests << " requests over "
                  << stats.connectionsAccepted << " connections ("
                  << stats.responsesOk << " ok, "
                  << stats.responsesNotFound << " not-found, "
                  << stats.responsesRejected << " rejected, "
                  << stats.protocolErrors << " protocol errors)\n"
                  << "\nMetrics JSON:\n"
                  << metrics.json() << "\n";
        if (!obs_dump.empty())
            obs::dumpTo(obs_dump);
        return 0;
    }

    serve::QueryEngine engine(cache, engine_cfg, &metrics,
                              [](const serve::Response &) {});

    serve::WorkloadConfig wc;
    wc.keys = keys;
    wc.zipfExponent = zipf;
    wc.unknownFraction = unknown_frac;
    wc.rowsPerChip = kRowsPerChip;
    serve::Workload workload(wc, seed);

    std::cout << "Serving " << queries << " queries ("
              << workers << " workers, " << cache_mb << " MiB cache, "
              << (bloom ? "bloom" : "exact") << " directories)...\n";
    auto t0 = std::chrono::steady_clock::now();
    std::vector<serve::Request> batch;
    batch.reserve(256);
    uint64_t submitted = 0;
    while (submitted < queries) {
        batch.clear();
        while (batch.size() < 256 && submitted + batch.size() < queries)
            batch.push_back(workload.next());
        size_t offset = 0;
        while (offset < batch.size()) {
            size_t taken = engine.trySubmitBatch(batch, offset);
            offset += taken;
            if (taken == 0)
                std::this_thread::yield(); // backpressure: retry
        }
        submitted += batch.size();
    }
    engine.drain();
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

    serve::MetricsSnapshot snap = metrics.snapshot();
    std::cout << "\nServed " << engine.completed() << " queries in "
              << elapsed << " s ("
              << static_cast<uint64_t>(
                     static_cast<double>(engine.completed()) / elapsed)
              << " QPS)\n"
              << "  cache: " << snap.hits << " hits, " << snap.misses
              << " misses, " << snap.negativeHits
              << " negative hits, " << snap.unknown << " unknown\n"
              << "  latency: p50 " << metrics.latencyPercentileUs(0.50)
              << " us, p99 " << metrics.latencyPercentileUs(0.99)
              << " us\n\nMetrics JSON:\n"
              << metrics.json() << "\n";
    if (!obs_dump.empty())
        obs::dumpTo(obs_dump);
    return 0;
}
