/**
 * @file
 * Shared pieces of the benchmark: the run options, the result
 * record every workload fills, exact latency samples, content digests,
 * host/build facts, and the span tracer used by traced runs.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Workload sizing: `full` is what BENCHMARK.json runs, `tiny` is the
 *  size the benchmark's own tests run. */
enum class Size
{
    Full,
    Tiny,
};

/** Options of one benchmark run. `size` and `threads` keep their
 *  defaults on the command line; the benchmark's tests set them. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    Size size = Size::Full;
    /** Worker threads for fleet work; 0 = hardware concurrency. */
    unsigned threads = 0;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string spanFile;
    /** Scratch directory for stores and campaigns (created). */
    std::string workDir = ".bench_out/work";
    /** Host/build facts supplied by the wrapper (not knowable here). */
    std::string gitSha = "unknown";
    std::string sourceDigest = "unknown";
};

/** Wall clock used for every measurement. */
using Clock = std::chrono::steady_clock;

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

inline double
nowS()
{
    return static_cast<double>(nowNs()) * 1e-9;
}

/** Hardware threads, at least 1. */
unsigned hardwareThreads();

/** Exact samples of one quantity (no bucketing). */
class Samples
{
  public:
    void add(double v) { v_.push_back(v); }
    void
    add(const Samples &o)
    {
        v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    }
    size_t size() const { return v_.size(); }
    /** Nearest-rank quantile, q in [0, 1]; 0 when empty. */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }

  private:
    std::vector<double> v_;
};

/**
 * Call fn() back to back until `seconds` have elapsed, at least
 * `minPasses` times, and return each call's wall time in seconds.
 */
template <typename Fn>
Samples
timePasses(double seconds, size_t minPasses, Fn fn)
{
    Samples s;
    const double deadline = nowS() + seconds;
    while (s.size() < minPasses || nowS() < deadline) {
        double t0 = nowS();
        fn();
        s.add(nowS() - t0);
    }
    return s;
}

/** 64-bit FNV-1a over everything fed in. */
class Digest
{
  public:
    void bytes(const void *p, size_t n);
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v);
    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

/** Digest of every regular file under `dir`, by relative path. */
uint64_t directoryDigest(const std::string &dir);
/** Total bytes of the regular files under `dir`. */
uint64_t directoryBytes(const std::string &dir);

/** Peak resident set of this process (VmHWM), MiB. */
double peakRssMb();
/** Restart the peak from the current resident set, so the peak covers
 *  only what runs after set-up (what set-up keeps resident counts). */
void resetPeakRss();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * What a workload run produced. Every failed operation is counted in
 * `failed` and flips `correct`; `notes` are printed before the final
 * JSON line.
 */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;

    void set(const std::string &name, double value,
             const std::string &unit);
    /** Record `n` failed operations with a reason. */
    void fail(const std::string &why, uint64_t n = 1);
    void note(const std::string &line) { notes.push_back(line); }
    /** Value of a metric already set (NaN when absent). */
    double get(const std::string &name) const;
};

/** The final JSON line (keys: correct, attempted, failed, metrics). */
std::string resultJson(const Result &r);

/** Host and build facts stamped on every result, as one JSON object. */
std::string stampJson(const Options &opt);

// ---- Span tracing --------------------------------------------------

/** One finished span. Times are steady-clock nanoseconds. */
struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    std::string name;
    uint64_t start = 0;
    uint64_t end = 0;
    uint64_t request = 0; ///< request id (serve workloads), else 0
    uint32_t thread = 0;
};

/**
 * In-memory span recorder. Disabled by default; a span created while
 * disabled records nothing and costs one relaxed load. Each thread
 * appends to its own buffer; buffers are owned here, so spans from
 * joined worker threads survive until collect().
 */
class Tracer
{
  public:
    static Tracer &instance();

    void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return on_.load(std::memory_order_relaxed); }

    uint64_t newId() { return next_.fetch_add(1) + 1; }
    void record(SpanRecord rec);

    /** Every span recorded so far, in no particular order; clears. */
    std::vector<SpanRecord> collect();

    /** The calling thread's innermost open span (0 = none). */
    static uint64_t current();
    static void setCurrent(uint64_t id);

  private:
    struct Buffer
    {
        uint32_t thread = 0;
        /** Uncontended except while collect() drains this buffer. */
        std::mutex mu;
        std::vector<SpanRecord> spans;
    };
    Buffer &local();

    std::atomic<bool> on_{false};
    std::atomic<uint64_t> next_{0};
    std::mutex mu_; ///< guards buffers_
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/**
 * RAII span around one call into a layer. The parent is the calling
 * thread's current span unless given explicitly (work handed to a
 * worker thread names the span that dispatched it).
 */
class Span
{
  public:
    explicit Span(const char *name, uint64_t request = 0);
    Span(const char *name, uint64_t parent, uint64_t request);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return id_; }
    /** End the span now instead of at scope exit. */
    void close();

  private:
    void open(const char *name, uint64_t parent, uint64_t request);

    const char *name_ = nullptr;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t saved_ = 0;
    uint64_t request_ = 0;
    uint64_t start_ = 0;
};

/** Self time of each span: its duration minus the union of its
 *  children's intervals (clipped to it). Keyed by span id. */
std::map<uint64_t, uint64_t> selfTimes(const std::vector<SpanRecord> &spans);

/** Total self time per span name, nanoseconds. */
std::map<std::string, uint64_t>
selfTimeByName(const std::vector<SpanRecord> &spans);

/**
 * Blocking-path attribution under one root span: every instant of the
 * root's interval is split equally among the spans of its subtree
 * that are open at that instant and have no open child (the work the
 * result is waiting on), so the shares sum to the root's duration.
 * The root's own share is time in no layer call. Keyed by span name.
 */
std::map<std::string, double>
wallShareByName(const std::vector<SpanRecord> &spans, uint64_t root);

/** Write spans as JSON lines (one object per span). */
bool writeSpans(const std::string &path,
                const std::vector<SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
