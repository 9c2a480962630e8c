/**
 * @file
 * serve_hot: REAPER-NET load against an in-process net::Server over
 * serve::ProfileCache over a campaign::ProfileStore seeded with
 * reach-profiler output from the DRAM model.
 *
 * One connection carries the load: a sender thread writes fixed-size
 * QueryBatch frames and a receiver thread reads the answers. In the
 * open-loop reference phase frames go out on a schedule and each
 * request's latency runs from the time its frame was due, so a stall
 * also charges the requests queued behind it. In the saturation phase
 * frames go out back to back with a bounded number of unanswered
 * requests, and the answer rate is the stack's capacity. The traced
 * run ends with a churn probe: a stack with a cache a quarter the size
 * of the working set and a writer thread that commits drifted profile
 * versions as deltas and invalidates them in the cache at a fixed rate.
 *
 * Correctness: every request must be answered Ok (or NotFound for the
 * deliberately unknown keys), never Rejected; and a sample of answers
 * is checked against a scan of the profile versions that could have
 * been visible between the request's send and its answer.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sched.h>
#include <thread>

#include "campaign/campaign.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/profile_cache.h"
#include "serve/query_engine.h"
#include "workloads.h"

namespace fs = std::filesystem;

namespace perfbench {

using namespace reaper;

namespace {

constexpr uint64_t kRowBits = 2048ull * 8;
/** Every kSampleEvery-th request's answer is checked by a scan. */
constexpr uint64_t kSampleEvery = 16;

/** Everything that shapes one serve workload. */
struct ServeShape
{
    size_t profiles = 8;
    double zipf = 0.99;
    double unknownFraction = 0.01;
    double binFraction = 0.5;
    /** Share of requests aimed at a row the profile marks weak. */
    double weakRowFraction = 0.5;
    uint64_t chipBits = 512ull << 23; ///< 512 MB chips
    int reachIterations = 4;
    /** Requests per frame: at serve_hot's rate a frame is due every
     *  320 us, so the server's vCPUs do not fall idle between frames. */
    size_t frameRequests = 16;
    unsigned engineWorkers = 1;
    /** Cache capacity as a share of the warmed working set (0 = the
     *  daemon's 64 MiB default, far above the working set). */
    double cacheShare = 0;
    /** Writer commits per second (0 = no writer). */
    double commitRate = 0;
    size_t versions = 1;
    /** Open-loop rate, req/s, where latency is reported. */
    double referenceRate = 0;
    /** Unanswered requests allowed in the saturation phase. */
    uint64_t saturationWindow = 2048;
    /** Ascending open-loop probe rates, req/s, for max_qps_at_slo. */
    std::vector<double> ladder;
    /** p99 latency limit, microseconds. */
    double sloUs = 2000;
    /** Abort an open-loop phase once this many requests are
     *  unanswered (below the engine queue's 4096, so it never sheds). */
    uint64_t maxOutstanding = 3072;
};

ServeShape
serveShape(Size size, bool churn)
{
    ServeShape s;
    if (churn) {
        s.profiles = 24;
        s.zipf = 0.5;
        s.cacheShare = 0.25;
        s.commitRate = 50;
        s.versions = 4;
        // Most requests miss the cache, at about 40 us each: the p99 at
        // the reference rate is already about 2 ms.
        s.sloUs = 5000;
    }
    // Rates measured once on a 4-core host and frozen. The reference
    // rate is at most a sixth of quiet saturation (about 500K and 25K
    // req/s for the hot stack and the churn probe), so it stays at most
    // a third of it when other tenants halve the host's speed. The
    // ladder climbs in 15% steps from twice the reference rate, past
    // saturation.
    s.referenceRate = churn ? 4000 : 50000;
    for (double rate = 2 * s.referenceRate; s.ladder.size() < 12;
         rate *= 1.15)
        s.ladder.push_back(std::round(rate / 1000) * 1000);
    if (size == Size::Tiny) {
        s.profiles = churn ? 6 : 3;
        s.chipBits = 64ull << 23;
        s.referenceRate = 5000;
        s.ladder = {5000, 10000};
        s.commitRate = churn ? 100 : 0;
    }
    return s;
}

/** Profiles, versions and the request pool, all from the seed. */
struct Dataset
{
    std::vector<std::string> keys;
    /** versions[k][v]: content of version v of key k. */
    std::vector<std::vector<profiling::RetentionProfile>> versions;
    /** Request pool; request i of a run uses pool[i % size]. */
    std::vector<serve::Request> pool;
    /** Key index of each pool entry, -1 for an unknown key. */
    std::vector<int> poolKey;
    uint64_t rowsPerChip = 0;
};

/** Remove and add about 5% of the cells, deterministically. */
profiling::RetentionProfile
drift(const profiling::RetentionProfile &p, uint64_t chipBits, Rng &rng)
{
    std::vector<dram::ChipFailure> kept;
    for (const dram::ChipFailure &f : p.cells())
        if (rng.uniform() >= 0.05)
            kept.push_back(f);
    size_t add = std::max<size_t>(1, p.size() / 20);
    for (size_t i = 0; i < add; ++i)
        kept.push_back({0, rng.uniformInt(chipBits)});
    profiling::RetentionProfile out(p.conditions());
    out.add(kept);
    return out;
}

Dataset
makeDataset(const ServeShape &s, uint64_t seed, unsigned threads)
{
    Dataset d;
    d.rowsPerChip = s.chipBits / kRowBits;
    std::vector<campaign::ChipSpec> chips =
        campaign::makeChipFleet(s.profiles, seed, s.chipBits, {2.4, 52.0});
    const profiling::Conditions target{msToSec(1024.0), 45.0};
    eval::FleetOptions fo;
    fo.threads = threads;
    std::vector<profiling::RetentionProfile> base = eval::runFleet(
        chips.size(),
        [&](size_t i) {
            dram::DramModule module(chips[i].config);
            testbed::HostConfig hc;
            hc.useChamber = false;
            testbed::SoftMcHost host(module, hc);
            profiling::ProfilerSpec spec;
            spec.iterations = s.reachIterations;
            auto profiler =
                std::move(profiling::makeProfiler("reach", spec).value());
            return std::move(
                profiler->profile(host, target).value().profile);
        },
        fo);
    Rng rng(hashCombine(seed, 0x5E4F));
    for (size_t k = 0; k < chips.size(); ++k) {
        d.keys.push_back(
            campaign::ProfileStore::profileKey(chips[k].id, target));
        std::vector<profiling::RetentionProfile> vs{base[k]};
        while (vs.size() < s.versions)
            vs.push_back(drift(vs.back(), s.chipBits, rng));
        d.versions.push_back(std::move(vs));
    }

    // Zipf over key ranks (rank order = fleet order).
    std::vector<double> cdf;
    double total = 0;
    for (size_t r = 0; r < d.keys.size(); ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), s.zipf);
        cdf.push_back(total);
    }
    const size_t poolSize = 1 << 16;
    for (size_t i = 0; i < poolSize; ++i) {
        serve::Request req;
        int k = -1;
        if (rng.uniform() < s.unknownFraction) {
            req.key = "ghost-" + std::to_string(rng.uniformInt(1u << 16)) +
                      "@trefi1024.000ms@45.00C";
        } else {
            double u = rng.uniform() * total;
            k = static_cast<int>(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            k = std::min(k, static_cast<int>(d.keys.size()) - 1);
            req.key = d.keys[static_cast<size_t>(k)];
        }
        req.kind = rng.uniform() < s.binFraction
                       ? serve::QueryKind::RefreshBin
                       : serve::QueryKind::IsRowWeak;
        req.chip = 0;
        const std::vector<dram::ChipFailure> *cells =
            k >= 0 ? &d.versions[static_cast<size_t>(k)][0].cells()
                   : nullptr;
        if (cells && !cells->empty() && rng.uniform() < s.weakRowFraction)
            req.row =
                (*cells)[rng.uniformInt(cells->size())].addr / kRowBits;
        else
            req.row = rng.uniformInt(d.rowsPerChip);
        d.pool.push_back(std::move(req));
        d.poolKey.push_back(k);
    }
    return d;
}

/** Does any cell of the profile lie in (chip, row)? By a plain scan. */
bool
naiveWeak(const profiling::RetentionProfile &p, uint32_t chip, uint64_t row)
{
    for (const dram::ChipFailure &f : p.cells())
        if (f.chip == chip && f.addr / kRowBits == row)
            return true;
    return false;
}

/** Live state of one serve workload run. */
struct Stack
{
    Dataset data;
    std::unique_ptr<campaign::ProfileStore> store;
    serve::CacheConfig cacheCfg;
    std::unique_ptr<serve::ProfileCache> cache;
    serve::Metrics metrics;
    std::unique_ptr<net::Server> server;
    std::unique_ptr<net::Client> client;
    /** Per key: last version whose commit started / finished. */
    std::unique_ptr<std::atomic<uint64_t>[]> started, done;
    /** CPUs the writer runs on: all but the serving path's. */
    cpu_set_t writerCpus;
    /** The server was stopped after a lost answer; no more phases. */
    bool stopped = false;
    /** Per-request latency of the current phase, reused by every phase
     *  so the resident set does not depend on the rates reached. */
    std::vector<double> latency;

    ~Stack()
    {
        if (server) {
            server->stop();
            server->join();
        }
    }
};

serve::CacheConfig
daemonCacheConfig()
{
    serve::CacheConfig c;
    c.directory.rowBits = kRowBits;
    c.serveFromViews = true;
    return c;
}

/** The CPUs the calling thread may run on. */
cpu_set_t
threadCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof set, &set);
    return set;
}

void
setThreadCpus(const cpu_set_t &set)
{
    sched_setaffinity(0, sizeof set, &set);
}

/**
 * Run the calling thread, and every thread it starts from now on, on
 * the highest-numbered CPU of `allowed`, and return the other CPUs of
 * `allowed` (all of it when it has only one). The serving path (server
 * IO thread, engine worker, load generator) then shares one CPU and
 * hands requests over by context switch. Spread over several
 * vCPUs of a shared virtual machine, each hand-over is a cross-CPU
 * wake-up whose cost depends on other tenants' load: it cost more than
 * the server's work per frame, and throughput varied by 2x between
 * stacks of one run. On one CPU the same code gave about 1.4x the
 * throughput and half the median latency.
 */
cpu_set_t
pinToOneCpu(const cpu_set_t &allowed)
{
    cpu_set_t rest = allowed;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            setThreadCpus(one);
            if (CPU_COUNT(&allowed) > 1)
                CPU_CLR(cpu, &rest);
            break;
        }
    }
    return rest;
}

/** Gives the calling thread its CPUs back at scope exit. */
struct RestoreCpus
{
    cpu_set_t set = threadCpus();
    ~RestoreCpus() { setThreadCpus(set); }
};

/** Open a view of every key so the cache is warm before timing. */
void
warm(serve::ProfileCache &cache, const Dataset &d)
{
    for (const std::string &key : d.keys)
        cache.isRowWeakView(key, 0, 0);
}

/**
 * Build the whole stack: dataset, store, cache, server, connection.
 * Set-up runs on every CPU in `cpus`; the server, and the calling
 * thread from then on, run on one of them (see pinToOneCpu).
 */
std::unique_ptr<Stack>
buildStack(const ServeShape &s, const Options &opt, const std::string &dir,
           size_t maxPhaseRequests, const cpu_set_t &cpus,
           std::string &error)
{
    setThreadCpus(cpus);
    auto st = std::make_unique<Stack>();
    const unsigned threads = opt.threads ? opt.threads : hardwareThreads();
    st->data = makeDataset(s, opt.seed, threads);
    fs::remove_all(dir);
    st->store = std::make_unique<campaign::ProfileStore>(dir);
    for (size_t k = 0; k < st->data.keys.size(); ++k)
        st->store->commit(st->data.keys[k], st->data.versions[k][0]);
    st->started.reset(new std::atomic<uint64_t>[st->data.keys.size()]());
    st->done.reset(new std::atomic<uint64_t>[st->data.keys.size()]());
    st->latency.assign(maxPhaseRequests, -1.0);

    st->cacheCfg = daemonCacheConfig();
    if (s.cacheShare > 0) {
        // Size the cache against the working set as the cache itself
        // accounts it, measured on a fully warmed, unbounded cache.
        serve::ProfileCache probe(*st->store, st->cacheCfg);
        warm(probe, st->data);
        st->cacheCfg.capacityBytes = static_cast<size_t>(
            s.cacheShare * static_cast<double>(probe.counters().bytes));
    }
    st->cache = std::make_unique<serve::ProfileCache>(*st->store,
                                                      st->cacheCfg);
    warm(*st->cache, st->data);

    st->writerCpus = pinToOneCpu(cpus);
    serve::EngineConfig ec;
    ec.workers = s.engineWorkers;
    net::ServerConfig sc;
    sc.keys = st->data.keys;
    st->server = std::make_unique<net::Server>(*st->cache, ec, sc,
                                               &st->metrics);
    if (common::Status ok = st->server->start(); !ok) {
        error = ok.error().describe();
        return nullptr;
    }
    auto client = net::Client::connect("127.0.0.1", st->server->port());
    if (!client) {
        error = client.error().describe();
        return nullptr;
    }
    st->client = std::make_unique<net::Client>(std::move(client).value());
    return st;
}

/** One sampled answer, checked after the phase. */
struct Sampled
{
    uint64_t index = 0; ///< global request id
    uint64_t lo = 0;    ///< versions finished before the send
    uint64_t hi = 0;    ///< versions started before the answer
    net::WireResponse resp;
};

/** What one phase measured. */
struct Phase
{
    double rate = 0; ///< offered rate (0 in the saturation phase)
    double seconds = 0;
    /** Open loop: frame f was due at t0 + f * interval. */
    double t0 = 0, interval = 0;
    uint64_t sent = 0;
    uint64_t received = 0;
    uint64_t rejected = 0;
    uint64_t wrong = 0; ///< status contradicts the key
    bool aborted = false;
    bool protocolError = false;
    /** Largest accounted cache size seen during the phase. */
    uint64_t maxCacheBytes = 0;
    /** From the first send to the last answer. */
    double elapsed = 0;
    Samples latencyUs;
    Samples lagUs;
    std::vector<Sampled> sampled;
    double firstQuarterP50 = 0, lastQuarterP50 = 0;

    uint64_t unanswered() const { return sent - received; }
    /** Answers per second actually delivered. */
    double
    achievedRate() const
    {
        return elapsed > 0 ? static_cast<double>(received) / elapsed : 0;
    }
    bool
    meetsSlo(double sloUs) const
    {
        bool growing = lastQuarterP50 > 2 * firstQuarterP50 + 100 ||
                       achievedRate() < 0.95 * rate;
        return !aborted && !protocolError && rejected == 0 &&
               unanswered() == 0 && !growing &&
               latencyUs.quantile(0.99) <= sloUs;
    }
};

/**
 * The two ends of the one load connection for a phase. The receiver
 * stops once `expected` answers arrived; the sender lowers `expected`
 * to what it sent only while answers are still due, so the receiver is
 * never left blocked on a read no answer will satisfy.
 */
class Connection
{
  public:
    /** @param onAnswer called on the receiver thread per answer */
    template <typename OnAnswer>
    Connection(Stack &st, uint64_t expected, OnAnswer onAnswer)
        : st_(st), expected_(expected)
    {
        // The receiver's spans belong to the caller's (the phase's) span.
        receiver_ = std::thread([this, onAnswer,
                                 parent = Tracer::current()] {
            std::vector<net::WireResponse> batch;
            while (received_.load() < expected_.load()) {
                batch.clear();
                common::Status ok = [&] {
                    Span sp("net.recv", parent, 0);
                    return st_.client->recvResponses(batch);
                }();
                if (!ok) {
                    recvError_.store(true);
                    break;
                }
                const double now = nowS();
                lastAnswer_ = now;
                for (const net::WireResponse &r : batch)
                    onAnswer(r, now);
                received_.fetch_add(batch.size());
            }
        });
    }
    ~Connection() { finish(); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    bool
    send(const std::vector<serve::Request> &frame, uint64_t firstId)
    {
        common::Status ok = [&] {
            Span sp("net.send", firstId);
            return st_.client->sendQueries(frame.data(), frame.size());
        }();
        if (!ok) {
            sendError_ = true;
            expected_.store(sent_);
            return false;
        }
        sent_ += frame.size();
        return true;
    }
    uint64_t sent() const { return sent_; }
    uint64_t outstanding() const { return sent_ - received_.load(); }
    /** Stop early: only what was sent is still due. */
    void stopSending() { expectOnly(sent_); }
    /** Expect exactly `n` answers in all; call only while more than the
     *  answers received so far are still due. */
    void expectOnly(uint64_t n) { expected_.store(n); }

    /**
     * Wait for the answers still due. The server answers every request
     * it read; if answers are lost it is stopped, which closes the
     * connection and ends the receiver (and the run's serve phases).
     */
    void
    finish()
    {
        if (!receiver_.joinable())
            return;
        const double deadline = nowS() + 5.0;
        while (received_.load() < expected_.load() && nowS() < deadline &&
               !recvError_.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (received_.load() < expected_.load() || sendError_) {
            st_.server->stop();
            st_.stopped = true;
        }
        receiver_.join();
    }
    uint64_t received() const { return received_.load(); }
    bool failed() const { return sendError_ || recvError_.load(); }
    /** Receiver's last answer time; valid after finish(). */
    double lastAnswer() const { return lastAnswer_; }

  private:
    Stack &st_;
    std::atomic<uint64_t> expected_;
    std::atomic<uint64_t> received_{0};
    std::atomic<bool> recvError_{false};
    uint64_t sent_ = 0; ///< sender thread only
    bool sendError_ = false;
    double lastAnswer_ = 0; ///< receiver only until joined
    std::thread receiver_;
};

/** Count one answer's status into the phase. */
void
countStatus(Phase &ph, const net::WireResponse &r, int key)
{
    switch (r.status) {
      case net::WireStatus::Ok:
        ph.wrong += key < 0;
        break;
      case net::WireStatus::NotFound:
        ph.wrong += key >= 0;
        break;
      case net::WireStatus::Rejected:
        ++ph.rejected;
        break;
    }
}

/** Fill a frame with the pool's requests for ids [first, first+F). */
void
fillFrame(std::vector<serve::Request> &frame, const Dataset &d,
          uint64_t first)
{
    for (size_t i = 0; i < frame.size(); ++i) {
        frame[i] = d.pool[(first + i) % d.pool.size()];
        frame[i].id = first + i;
    }
}

/**
 * Open loop: frames of s.frameRequests requests due every
 * frameRequests / rate seconds for `seconds`, from request id `base`.
 */
Phase
runOpenLoop(Stack &st, const ServeShape &s, double rate, double seconds,
            uint64_t base)
{
    Phase ph;
    ph.rate = rate;
    ph.seconds = seconds;
    const size_t F = s.frameRequests;
    const double interval = static_cast<double>(F) / rate;
    const size_t frames =
        std::max<size_t>(1, static_cast<size_t>(seconds / interval));
    const size_t n = frames * F;
    // The whole schedule is fixed before any thread starts.
    const double t0 = nowS() + 0.001;
    ph.t0 = t0;
    ph.interval = interval;
    std::vector<double> due(frames);
    for (size_t f = 0; f < frames; ++f)
        due[f] = t0 + static_cast<double>(f) * interval;
    if (st.latency.size() < n)
        st.latency.resize(n);
    std::fill_n(st.latency.begin(), n, -1.0);
    double *latency = st.latency.data();
    std::vector<uint64_t> sampledLo(n / kSampleEvery + 1, 0);
    const Dataset &d = st.data;

    Connection conn(st, n, [&](const net::WireResponse &r, double now) {
        uint64_t idx = r.id - base;
        if (r.id < base || idx >= n || latency[idx] >= 0) {
            ++ph.wrong;
            return;
        }
        latency[idx] = (now - due[idx / F]) * 1e6;
        int k = d.poolKey[r.id % d.pool.size()];
        countStatus(ph, r, k);
        if (idx % kSampleEvery == 0 && k >= 0 &&
            r.status == net::WireStatus::Ok)
            ph.sampled.push_back(
                {r.id, 0, st.started[static_cast<size_t>(k)].load(), r});
    });

    std::vector<serve::Request> frame(F);
    for (size_t f = 0; f < frames; ++f) {
        // Sleep until 25 us before the frame is due (the timer slack is
        // 1 ns, see main.cc), then spin. A longer spin keeps a vCPU busy
        // and invites preemption stalls.
        for (double now = nowS(); now < due[f]; now = nowS()) {
            double left = due[f] - now;
            if (left > 40e-6)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(left - 25e-6));
            else
                std::this_thread::yield();
        }
        ph.lagUs.add((nowS() - due[f]) * 1e6);
        fillFrame(frame, d, base + f * F);
        for (size_t i = 0; i < F; i += kSampleEvery) {
            int k = d.poolKey[(base + f * F + i) % d.pool.size()];
            if (k >= 0)
                sampledLo[(f * F + i) / kSampleEvery] =
                    st.done[static_cast<size_t>(k)].load();
        }
        if (!conn.send(frame, base + f * F))
            break;
        if (f % 64 == 0)
            ph.maxCacheBytes =
                std::max(ph.maxCacheBytes, st.cache->counters().bytes);
        if (conn.outstanding() > s.maxOutstanding) {
            ph.aborted = true;
            conn.stopSending();
            break;
        }
    }
    conn.finish();
    ph.sent = conn.sent();
    ph.received = conn.received();
    ph.protocolError = conn.failed();
    ph.elapsed = conn.lastAnswer() - t0;
    ph.maxCacheBytes = std::max(ph.maxCacheBytes, st.cache->counters().bytes);

    for (size_t i = 0; i < ph.sent; ++i)
        if (latency[i] >= 0)
            ph.latencyUs.add(latency[i]);
    for (Sampled &x : ph.sampled)
        x.lo = sampledLo[(x.index - base) / kSampleEvery];
    const size_t q = ph.sent / 4;
    if (q > 0) {
        Samples first, last;
        for (size_t i = 0; i < q; ++i) {
            if (latency[i] >= 0)
                first.add(latency[i]);
            if (latency[ph.sent - 1 - i] >= 0)
                last.add(latency[ph.sent - 1 - i]);
        }
        ph.firstQuarterP50 = first.median();
        ph.lastQuarterP50 = last.median();
    }
    return ph;
}

/**
 * Saturation: frames back to back, never more than s.saturationWindow
 * requests unanswered, for `seconds`. Statuses are checked; latency is
 * not recorded.
 */
Phase
runSaturation(Stack &st, const ServeShape &s, double seconds, uint64_t base)
{
    Phase ph;
    ph.seconds = seconds;
    const size_t F = s.frameRequests;
    const Dataset &d = st.data;
    Connection conn(st, UINT64_MAX,
                    [&](const net::WireResponse &r, double) {
                        countStatus(ph, r, d.poolKey[r.id % d.pool.size()]);
                    });
    std::vector<serve::Request> frame(F);
    const double t0 = nowS();
    for (uint64_t id = base;; id += F) {
        while (conn.outstanding() + F > s.saturationWindow &&
               !conn.failed())
            std::this_thread::yield();
        fillFrame(frame, d, id);
        const bool last = nowS() >= t0 + seconds;
        if (last)
            conn.expectOnly(conn.sent() + F); // the final frame is due
        if (!conn.send(frame, id) || last)
            break;
    }
    conn.finish();
    ph.sent = conn.sent();
    ph.received = conn.received();
    ph.protocolError = conn.failed();
    ph.elapsed = conn.lastAnswer() - t0;
    ph.rate = ph.achievedRate();
    return ph;
}

/** Check the sampled answers against every version that could have
 *  been visible; return how many were wrong. */
uint64_t
verifySampled(const Phase &ph, const Dataset &d, const ServeShape &s,
              const serve::CacheConfig &cc)
{
    uint64_t wrong = 0;
    const std::vector<Seconds> &bins = cc.directory.binIntervals;
    for (const Sampled &x : ph.sampled) {
        const serve::Request &req = d.pool[x.index % d.pool.size()];
        size_t k = static_cast<size_t>(d.poolKey[x.index % d.pool.size()]);
        bool match = false;
        for (uint64_t v = x.lo; v <= std::max(x.lo, x.hi) && !match; ++v) {
            bool weak = naiveWeak(d.versions[k][v % s.versions], req.chip,
                                  req.row);
            if (req.kind == serve::QueryKind::IsRowWeak) {
                match = x.resp.weak == weak;
            } else {
                uint32_t bin =
                    weak ? 0 : static_cast<uint32_t>(bins.size() - 1);
                match = x.resp.bin == bin && x.resp.interval == bins[bin];
            }
        }
        wrong += !match;
    }
    return wrong;
}

/** Writer thread of the churn probe: commit the next version of one key
 *  as a delta and invalidate it, at a fixed rate. */
class Writer
{
  public:
    Writer(Stack &st, const ServeShape &s) : st_(st), s_(s)
    {
        // Off the serving path's CPU, as a separate committer would be.
        if (s.commitRate > 0)
            thread_ = std::thread([this] {
                setThreadCpus(st_.writerCpus);
                loop();
            });
    }
    ~Writer() { stop(); }
    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    void
    stop()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
    }
    const Samples &commitMs() const { return commitMs_; }
    uint64_t failures() const { return failures_; }
    /** Delta chains found compacted so far; safe while running. */
    uint64_t compactions() const { return compactions_.load(); }
    /** Record the writer's spans under `span` (0 = as roots). */
    void traceUnder(uint64_t span) { parent_.store(span); }

  private:
    uint32_t
    chainLength(size_t k) const
    {
        for (const campaign::StoreEntry &e : st_.store->entries())
            if (e.key == st_.data.keys[k])
                return e.deltas;
        return 0;
    }

    void
    loop()
    {
        const Dataset &d = st_.data;
        lastChain_.assign(d.keys.size(), 0);
        const double interval = 1.0 / s_.commitRate;
        double next = nowS();
        for (uint64_t n = 0; !stop_.load(); ++n) {
            next += interval;
            for (double now = nowS(); now < next && !stop_.load();
                 now = nowS())
                std::this_thread::sleep_for(std::chrono::duration<double>(
                    std::min(next - now, 0.005)));
            if (stop_.load())
                break;
            const size_t k = n % d.keys.size();
            const uint64_t v = st_.done[k].load() + 1;
            // A chain shorter than this writer left it was compacted in
            // between, by a cold openView; one shorter after a commit than
            // before it was compacted by the commit, at the chain cap.
            const uint32_t before = chainLength(k);
            if (before < lastChain_[k])
                ++compactions_;
            st_.started[k].store(v);
            double t0 = nowS();
            try {
                Span sp("campaign.commit_delta", parent_.load(), 0);
                st_.store->commitDelta(d.keys[k],
                                       d.versions[k][v % s_.versions]);
                st_.cache->invalidate(d.keys[k]);
            } catch (const std::exception &) {
                ++failures_;
            }
            commitMs_.add((nowS() - t0) * 1e3);
            st_.done[k].store(v);
            lastChain_[k] = chainLength(k);
            if (lastChain_[k] < before)
                ++compactions_;
        }
    }

    Stack &st_;
    const ServeShape &s_;
    std::atomic<bool> stop_{false};
    Samples commitMs_;
    uint64_t failures_ = 0;
    std::atomic<uint64_t> compactions_{0};
    std::atomic<uint64_t> parent_{0};
    std::vector<uint32_t> lastChain_;
    std::thread thread_;
};

/** Count a phase's failures into the result. */
void
judgePhase(Result &r, const Phase &ph, const Stack &st,
           const ServeShape &s, const std::string &what)
{
    r.attempted += ph.sent;
    uint64_t wrongSamples = verifySampled(ph, st.data, s, st.cacheCfg);
    uint64_t bad = ph.rejected + ph.unanswered() + ph.wrong + wrongSamples +
                   (ph.protocolError ? 1 : 0);
    if (bad) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s: %llu rejected, %llu unanswered, %llu wrong "
                      "status, %llu wrong sampled answers%s",
                      what.c_str(),
                      static_cast<unsigned long long>(ph.rejected),
                      static_cast<unsigned long long>(ph.unanswered()),
                      static_cast<unsigned long long>(ph.wrong),
                      static_cast<unsigned long long>(wrongSamples),
                      ph.protocolError ? ", protocol error" : "");
        r.fail(buf, bad);
    }
}

std::string
describePhase(const Phase &ph)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%.0f req/s: p50 %.1f us, p99 %.1f us (n=%zu), "
                  "generator lag p99 %.1f us (n=%zu)%s",
                  ph.rate, ph.latencyUs.median(), ph.latencyUs.quantile(0.99),
                  ph.latencyUs.size(),
                  ph.lagUs.quantile(0.99), ph.lagUs.size(),
                  ph.aborted ? ", aborted: backlog" : "");
    return buf;
}

/**
 * The highest open-loop ladder rate whose p99 meets the limit with no
 * shed requests and no growing backlog. One rung that misses (a
 * latency spike) does not end the climb; two in a row do.
 */
double
maxQpsAtSlo(Stack &st, const ServeShape &s, double rung, uint64_t &base,
            Result &r)
{
    double best = 0;
    int misses = 0;
    for (double rate : s.ladder) {
        Phase ph = runOpenLoop(st, s, rate, rung, base);
        base += ph.sent;
        // Past saturation a rung is aborted for backlog before the
        // engine sheds load; only wrong answers count as failures.
        r.attempted += ph.sent;
        uint64_t wrong = ph.wrong + ph.rejected +
                         verifySampled(ph, st.data, s, st.cacheCfg);
        if (wrong || ph.protocolError)
            r.fail("ladder rung: wrong or shed answers",
                   wrong + (ph.protocolError ? 1 : 0));
        const bool late = ph.lagUs.quantile(0.99) > s.sloUs / 2;
        const bool meets = ph.meetsSlo(s.sloUs) && !late;
        r.note("ladder " + describePhase(ph) +
               (meets ? " meets" : " misses") + " the limit" +
               (late ? " (generator late)" : ""));
        if (meets)
            best = std::max(best, ph.achievedRate());
        misses = meets ? 0 : misses + 1;
        if (misses >= 2 || st.stopped)
            break;
    }
    return best;
}

/** Replay the request stream straight into fresh caches. */
void
cacheReplay(Stack &st, Result &r, size_t n)
{
    const Dataset &d = st.data;
    serve::ProfileCache viewCache(*st.store, st.cacheCfg);
    warm(viewCache, d);
    double t0 = nowS();
    for (size_t i = 0; i < n; ++i) {
        const serve::Request &q = d.pool[i % d.pool.size()];
        viewCache.isRowWeakView(q.key, q.chip, q.row);
    }
    r.set("serve.cache.view_ns", (nowS() - t0) * 1e9 / n, "ns");

    serve::CacheConfig dirCfg = st.cacheCfg;
    dirCfg.serveFromViews = false;
    serve::ProfileCache dirCache(*st.store, dirCfg);
    for (const std::string &key : d.keys)
        dirCache.get(key);
    t0 = nowS();
    for (size_t i = 0; i < n; ++i)
        dirCache.get(d.pool[i % d.pool.size()].key);
    r.set("serve.cache.get_ns", (nowS() - t0) * 1e9 / n, "ns");

    Samples openS, loadS;
    for (const std::string &key : d.keys) {
        double a = nowS();
        st.store->openView(key);
        double b = nowS();
        st.store->load(key);
        openS.add(b - a);
        loadS.add(nowS() - b);
    }
    r.set("campaign.open_view_s", openS.median(), "s");
    r.set("campaign.load_s", loadS.median(), "s");
}

/** Replay the stream open-loop into an in-process QueryEngine. */
void
engineReplay(Stack &st, const ServeShape &s, Result &r, double seconds)
{
    serve::ProfileCache cache(*st.store, st.cacheCfg);
    warm(cache, st.data);
    const size_t F = s.frameRequests;
    const double interval = static_cast<double>(F) / s.referenceRate;
    const size_t frames =
        std::max<size_t>(1, static_cast<size_t>(seconds / interval));
    std::vector<double> due(frames);
    const double t0 = nowS() + 0.001;
    for (size_t f = 0; f < frames; ++f)
        due[f] = t0 + static_cast<double>(f) * interval;
    std::vector<double> latency(frames * F, -1.0);
    serve::EngineConfig ec;
    ec.workers = s.engineWorkers;
    {
        serve::QueryEngine engine(
            cache, ec, nullptr, [&](const serve::Response &resp) {
                latency[resp.id] = (nowS() - due[resp.id / F]) * 1e6;
            });
        std::vector<serve::Request> batch(F);
        for (size_t f = 0; f < frames; ++f) {
            while (nowS() < due[f])
                std::this_thread::yield();
            fillFrame(batch, st.data, f * F);
            for (size_t off = 0; off < F;)
                off += engine.trySubmitBatch(batch, off);
        }
        engine.drain();
    }
    Samples lat;
    for (double v : latency)
        if (v >= 0)
            lat.add(v);
    r.set("serve.engine.latency_p50_us", lat.median(), "us");
    r.set("serve.engine.latency_p99_us", lat.quantile(0.99), "us");
    r.note("engine replay at the reference rate: p50 " +
           std::to_string(lat.median()) + " us, p99 " +
           std::to_string(lat.quantile(0.99)) +
           " us (n=" + std::to_string(lat.size()) + ")");
}

/**
 * Blocking-path cover of a traced open-loop phase. A request waits from
 * its frame's due time to its answer: on the generator, in its frame's
 * net.send, then in the receiver's net.recv while the server answers.
 * Returns, per answered request, how much of that wait those layer
 * spans cover, in microseconds; the rest is the load generator's and
 * the receiver's own time.
 *
 * @param latency the phase's per-request latencies, microseconds
 * @param base    id of the phase's first request
 */
Samples
coveredUs(const Phase &ph, const double *latency, uint64_t base, size_t F,
          const std::vector<SpanRecord> &spans)
{
    // One receiver thread, so its net.recv spans are disjoint.
    std::vector<std::pair<uint64_t, uint64_t>> recv;
    std::map<uint64_t, std::pair<uint64_t, uint64_t>> send;
    for (const SpanRecord &x : spans) {
        if (x.name == "net.recv")
            recv.push_back({x.start, x.end});
        else if (x.name == "net.send")
            send[x.request] = {x.start, x.end};
    }
    std::sort(recv.begin(), recv.end());
    std::vector<uint64_t> before(recv.size() + 1, 0);
    for (size_t j = 0; j < recv.size(); ++j)
        before[j + 1] = before[j] + (recv[j].second - recv[j].first);
    // Receiver time spent in net.recv before instant t.
    auto recvUntil = [&](uint64_t t) -> uint64_t {
        size_t j = static_cast<size_t>(
            std::upper_bound(recv.begin(), recv.end(),
                             std::make_pair(t, UINT64_MAX)) -
            recv.begin());
        if (j == 0)
            return 0;
        --j;
        return before[j] + std::min(t, recv[j].second) - recv[j].first;
    };
    auto recvIn = [&](uint64_t a, uint64_t b) -> uint64_t {
        return b > a ? recvUntil(b) - recvUntil(a) : 0;
    };

    Samples out;
    for (size_t i = 0; i < ph.sent; ++i) {
        if (latency[i] < 0)
            continue;
        const size_t f = i / F;
        const double dueS = ph.t0 + static_cast<double>(f) * ph.interval;
        const uint64_t due = static_cast<uint64_t>(dueS * 1e9);
        const uint64_t ans = due + static_cast<uint64_t>(latency[i] * 1e3);
        uint64_t cover = recvIn(due, ans);
        auto it = send.find(base + f * F);
        if (it != send.end()) {
            uint64_t a = std::max(due, it->second.first);
            uint64_t b = std::min(ans, it->second.second);
            if (b > a)
                cover += (b - a) - recvIn(a, b);
        }
        out.add(static_cast<double>(cover) * 1e-3);
    }
    return out;
}

/** Lateness is measured, not a wrong answer: it marks the numbers, not
 *  the program, as suspect. */
void
flagLateness(Result &r, const Samples &lagUs, const ServeShape &s)
{
    if (lagUs.quantile(0.99) > s.sloUs)
        r.note("INVALID: the generator, not the server, was the "
               "bottleneck (lag p99 " +
               std::to_string(lagUs.quantile(0.99)) +
               " us exceeds the limit)");
}

/** Stacks an untraced run builds and measures in turn. */
constexpr int kStacks = 3;
/** Untraced/traced reference phase pairs of a traced run. */
constexpr int kTracePairs = 6;

/** What an untraced run pools over its stacks. */
struct Pooled
{
    Samples latencyUs;
    double satAnswers = 0;
    double satSeconds = 0;
    /** Each stack's peak resident set after its set-up. */
    Samples peakRssMb;
};

/** Measure one stack's share of an untraced run: the reference phase,
 *  then the saturation phase. */
void
measureShare(Stack &st, const ServeShape &s, double refSeconds,
             double satSeconds, Result &r, Pooled &pool)
{
    resetPeakRss();
    Phase ref = runOpenLoop(st, s, s.referenceRate, refSeconds, 0);
    judgePhase(r, ref, st, s, "reference phase");
    r.note("reference " + describePhase(ref));
    flagLateness(r, ref.lagUs, s);
    pool.latencyUs.add(ref.latencyUs);
    if (!st.stopped) {
        Phase sat = runSaturation(st, s, satSeconds, ref.sent);
        judgePhase(r, sat, st, s, "saturation phase");
        r.note("saturation: " + std::to_string(sat.achievedRate()) +
               " answers/s with at most " +
               std::to_string(s.saturationWindow) +
               " unanswered (n=" + std::to_string(sat.received) + ")");
        pool.satAnswers += static_cast<double>(sat.received);
        pool.satSeconds += sat.elapsed;
    }
    pool.peakRssMb.add(peakRssMb());
}

/**
 * The traced measurement of one stack: kTracePairs pairs of untraced
 * and traced reference phases with the writer running (when the shape
 * has one), then, when `ladder`, the rate ladder, then the cache and
 * engine replays. Sets the per-layer metrics in `r`.
 */
void
traceStack(Stack &st, const ServeShape &s, const Options &opt,
           double refSeconds, bool ladder, Result &r)
{
    Writer writer(st, s);
    uint64_t base = 0;
    const serve::CacheCounters c0 = st.cache->counters();
    const net::ServerStats n0 = st.server->stats();

    // Untraced and traced reference phases alternate, so drift over the
    // run (warm-up, the writer's chains) and other tenants' stalls fall
    // on both alike.
    Tracer::instance().collect();
    std::vector<SpanRecord> spans;
    Samples plainUs, tracedUs, covered, lagUs;
    uint64_t compactions = 0, maxCacheBytes = 0;
    for (int i = 0; i < kTracePairs && !st.stopped; ++i) {
        Phase plain = runOpenLoop(st, s, s.referenceRate, refSeconds, base);
        base += plain.sent;
        judgePhase(r, plain, st, s, "untraced reference phase");
        plainUs.add(plain.latencyUs);
        lagUs.add(plain.lagUs);
        if (st.stopped)
            break;
        Tracer::instance().enable(true);
        const uint64_t compacted = writer.compactions();
        Phase traced;
        {
            Span pass("serve.phase");
            writer.traceUnder(pass.id());
            traced = runOpenLoop(st, s, s.referenceRate, refSeconds, base);
            writer.traceUnder(0);
        }
        compactions += writer.compactions() - compacted;
        Tracer::instance().enable(false);
        std::vector<SpanRecord> got = Tracer::instance().collect();
        covered.add(coveredUs(traced, st.latency.data(), base,
                              s.frameRequests, got));
        spans.insert(spans.end(), got.begin(), got.end());
        base += traced.sent;
        judgePhase(r, traced, st, s, "traced reference phase");
        tracedUs.add(traced.latencyUs);
        lagUs.add(traced.lagUs);
        maxCacheBytes = std::max(maxCacheBytes, traced.maxCacheBytes);
    }
    const serve::CacheCounters c1 = st.cache->counters();
    const net::ServerStats n1 = st.server->stats();
    flagLateness(r, lagUs, s);
    if (ladder && !st.stopped)
        r.set("loadgen.max_qps_at_slo",
              maxQpsAtSlo(st, s, opt.seconds * 0.05, base, r), "1/s");
    writer.stop();
    r.attempted += writer.commitMs().size();
    if (writer.failures())
        r.fail("writer: failed commits", writer.failures());

    const double hot = static_cast<double>(
        (c1.hits - c0.hits) + (c1.viewHits - c0.viewHits) +
        (c1.negativeHits - c0.negativeHits));
    const double cold = static_cast<double>(
        (c1.loads - c0.loads) + (c1.viewLoads - c0.viewLoads) +
        (c1.failedLoads - c0.failedLoads));
    r.set("serve.cache.hit_rate", hot + cold > 0 ? hot / (hot + cold) : 0,
          "ratio");
    r.set("serve.cache.loads", static_cast<double>(c1.loads - c0.loads),
          "count");
    r.set("serve.cache.view_loads",
          static_cast<double>(c1.viewLoads - c0.viewLoads), "count");
    r.set("serve.cache.evictions",
          static_cast<double>(c1.evictions - c0.evictions), "count");
    const uint64_t cap = st.cacheCfg.capacityBytes;
    r.set("serve.cache.bytes_over_budget",
          static_cast<double>(maxCacheBytes > cap ? maxCacheBytes - cap : 0),
          "B");
    r.set("net.frames_out",
          static_cast<double>(n1.framesOut - n0.framesOut), "count");
    r.set("net.bytes_out", static_cast<double>(n1.bytesOut - n0.bytesOut),
          "B");
    r.set("net.rejected",
          static_cast<double>(n1.responsesRejected - n0.responsesRejected),
          "count");
    r.set("net.protocol_errors",
          static_cast<double>(n1.protocolErrors - n0.protocolErrors),
          "count");
    std::map<std::string, uint64_t> self = selfTimeByName(spans);
    r.set("net.send_s", static_cast<double>(self["net.send"]) * 1e-9, "s");
    r.set("net.recv_s", static_cast<double>(self["net.recv"]) * 1e-9, "s");
    r.set("loadgen.lag_p99_us", lagUs.quantile(0.99), "us");
    r.set("loadgen.query_p99_us", plainUs.quantile(0.99), "us");
    if (s.commitRate > 0) {
        const double commits = static_cast<double>(std::count_if(
            spans.begin(), spans.end(), [](const SpanRecord &x) {
                return x.name == "campaign.commit_delta";
            }));
        r.set("campaign.commit_delta_s",
              static_cast<double>(self["campaign.commit_delta"]) * 1e-9 /
                  std::max(1.0, commits),
              "s");
        r.set("campaign.compactions", static_cast<double>(compactions),
              "count");
        r.set("serve.writer.commit_p50_ms", writer.commitMs().median(),
              "ms");
        r.set("serve.writer.commit_p95_ms",
              writer.commitMs().quantile(0.95), "ms");
        r.note("writer: commit+invalidate p50 " +
               std::to_string(writer.commitMs().median()) + " ms, p95 " +
               std::to_string(writer.commitMs().quantile(0.95)) +
               " ms (n=" + std::to_string(writer.commitMs().size()) + ")");
    }
    for (const auto &[what, lat] :
         {std::pair<const char *, const Samples *>{"untraced", &plainUs},
          {"traced", &tracedUs}})
        r.note(std::string(what) + " reference phases: p50 " +
               std::to_string(lat->median()) + " us, p99 " +
               std::to_string(lat->quantile(0.99)) +
               " us (n=" + std::to_string(lat->size()) + ")");

    // A phase's wall time is fixed by its schedule, so what a request
    // waits on is accounted per request: the traced median of the span
    // cover against the untraced median latency. Tracing overhead shows
    // as latency too.
    const double untracedMedian = plainUs.median();
    const double tracedMedian = tracedUs.median();
    reportAccounting(
        r, "the untraced median request latency",
        100.0 * covered.median() / untracedMedian,
        100.0 * (tracedMedian - covered.median()) / tracedMedian,
        100.0 * (tracedMedian - untracedMedian) / untracedMedian);
    if (!opt.spanFile.empty())
        writeSpans(opt.spanFile, spans);

    cacheReplay(st, r, opt.size == Size::Full ? 200000 : 5000);
    engineReplay(st, s, r, opt.seconds * 0.1);
}

/**
 * Per-layer metrics the traced run of serve_hot takes from its churn
 * probe, a second stack shaped for cache misses and delta commits: the
 * store's delta chains, the writer, and the cache under pressure.
 */
const char *const kChurnLayers[] = {
    "campaign.commit_delta_s", "campaign.compactions",
    "campaign.open_view_s",    "campaign.load_s",
    "serve.cache.hit_rate",    "serve.cache.loads",
    "serve.cache.view_loads",  "serve.cache.evictions",
    "serve.cache.bytes_over_budget", "serve.writer.commit_p50_ms",
    "serve.writer.commit_p95_ms",
};

} // namespace

Result
runServe(const Options &opt)
{
    Result r;
    const ServeShape s = serveShape(opt.size, false);
    const std::string dir = (fs::path(opt.workDir) / "serve_hot").string();
    // An untraced run splits its time evenly over kStacks stacks; a
    // traced run measures one, in kTracePairs pairs of phases.
    const double refSeconds = opt.trace ? opt.seconds * 0.04
                                        : opt.seconds * 0.55 / kStacks;
    auto maxPhase = [&](const ServeShape &x, double seconds) {
        return static_cast<size_t>(x.referenceRate * seconds) +
               x.frameRequests;
    };
    const RestoreCpus cpus;

    // Set-up: profile the chips, seed the store, warm the cache, start
    // the server and connect. An untraced run does it kStacks times,
    // measures a share on each stack and pools them, so where one
    // server instance happened to land does not decide a run.
    Samples setup;
    Pooled pool;
    std::unique_ptr<Stack> st;
    for (int i = 0; i < (opt.trace ? 1 : kStacks); ++i) {
        st.reset();
        std::string error;
        double t0 = nowS();
        st = buildStack(s, opt, dir, maxPhase(s, refSeconds), cpus.set,
                        error);
        setup.add(nowS() - t0);
        if (!st) {
            r.fail("serve_hot: set-up failed: " + error);
            return r;
        }
        if (!opt.trace)
            measureShare(*st, s, refSeconds, opt.seconds * 0.3 / kStacks,
                         r, pool);
    }
    r.note("serve_hot: " + std::to_string(s.profiles) + " profiles, zipf " +
           std::to_string(s.zipf) + ", cache " +
           std::to_string(st->cacheCfg.capacityBytes) +
           " B, 1 server IO thread, " + std::to_string(s.engineWorkers) +
           " engine worker(s), 1 connection, " +
           std::to_string(s.frameRequests) +
           " requests/frame, serving path on one CPU");

    if (!opt.trace) {
        r.set("setup_s", setup.median(), "s");
        r.set("peak_rss_mb", pool.peakRssMb.median(), "MB");
        r.set("throughput_per_s",
              pool.satSeconds > 0 ? pool.satAnswers / pool.satSeconds : 0,
              "1/s");
        // Every request of the reference phases counts. The tail is not
        // an end-to-end metric: a vCPU preemption stall of 1-30 ms on a
        // shared host delays every request due during it, and such
        // stalls come and go with other tenants' load. With the same
        // code, the pooled p99 read 0.37-1.8 ms on a quiet host and 7-10
        // ms on a busy one, while the p50 moved from 69-77 us to 79-85
        // us. It is printed here, and traced runs report it
        // (loadgen.query_p99_us).
        const Samples &lat = pool.latencyUs;
        r.set("latency_p50_ms", lat.median() / 1e3, "ms");
        r.note("reference latency pooled over " + std::to_string(kStacks) +
               " stacks: p50 " + std::to_string(lat.median()) + " us, p95 " +
               std::to_string(lat.quantile(0.95)) + " us, p99 " +
               std::to_string(lat.quantile(0.99)) +
               " us (n=" + std::to_string(lat.size()) + ")");
        st.reset();
        fs::remove_all(dir);
        return r;
    }

    traceStack(*st, s, opt, refSeconds, true, r);
    st.reset();
    fs::remove_all(dir);

    // The churn probe: a stack with three times the profiles at zipf
    // 0.5, a cache a quarter of the working set, and a writer
    // committing drifted versions as deltas beside the reads. Its
    // end-to-end numbers are not reported: the miss path's file
    // opens, maps and compactions made throughput and latency vary by
    // up to 2x between runs of the same code on a shared host.
    const ServeShape c = serveShape(opt.size, true);
    const std::string churnDir =
        (fs::path(opt.workDir) / "serve_churn").string();
    const double churnSeconds = opt.seconds * 0.04;
    std::string error;
    std::unique_ptr<Stack> cst = buildStack(
        c, opt, churnDir, maxPhase(c, churnSeconds), cpus.set, error);
    if (!cst) {
        r.fail("churn probe: set-up failed: " + error);
        return r;
    }
    r.note("churn probe: " + std::to_string(c.profiles) +
           " profiles, zipf " + std::to_string(c.zipf) + ", cache " +
           std::to_string(cst->cacheCfg.capacityBytes) + " B, writer " +
           std::to_string(c.commitRate) + " commits/s");
    Result probe;
    traceStack(*cst, c, opt, churnSeconds, false, probe);
    cst.reset();
    fs::remove_all(churnDir);
    for (const std::string &n : probe.notes)
        r.note("churn probe: " + n);
    r.attempted += probe.attempted;
    if (!probe.correct)
        r.fail("churn probe: failed operations", probe.failed);
    for (const char *name : kChurnLayers)
        for (const Metric &m : probe.metrics)
            if (m.name == name)
                r.set(m.name, m.value, m.unit);
    return r;
}

} // namespace perfbench
