#include "common.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <set>
#include <sstream>
#include <thread>

#include "simd/dispatch.h"

namespace fs = std::filesystem;

namespace perfbench {

unsigned
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

double
Samples::quantile(double q) const
{
    if (v_.empty())
        return 0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    double rank = std::ceil(q * static_cast<double>(s.size()));
    size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return s[std::min(idx, s.size() - 1)];
}

void
Digest::bytes(const void *p, size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (size_t i = 0; i < n; ++i) {
        h_ ^= b[i];
        h_ *= 1099511628211ull;
    }
}

void
Digest::f64(double v)
{
    u64(std::bit_cast<uint64_t>(v));
}

namespace {

std::vector<fs::path>
regularFiles(const std::string &dir)
{
    std::vector<fs::path> files;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec))
        if (it->is_regular_file())
            files.push_back(it->path());
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace

uint64_t
directoryDigest(const std::string &dir)
{
    Digest d;
    for (const fs::path &p : regularFiles(dir)) {
        d.str(fs::relative(p, dir).string());
        std::ifstream is(p, std::ios::binary);
        std::string contents((std::istreambuf_iterator<char>(is)),
                             std::istreambuf_iterator<char>());
        d.str(contents);
    }
    return d.value();
}

uint64_t
directoryBytes(const std::string &dir)
{
    uint64_t total = 0;
    for (const fs::path &p : regularFiles(dir))
        total += fs::file_size(p);
    return total;
}

double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

void
resetPeakRss()
{
    // Hand memory freed by set-up back to the system first, so the
    // resident set is what the measured work keeps live.
    malloc_trim(0);
    std::ofstream os("/proc/self/clear_refs");
    os << "5";
}

void
Result::set(const std::string &name, double value,
            const std::string &unit)
{
    for (Metric &m : metrics) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics.push_back({name, value, unit});
}

void
Result::fail(const std::string &why, uint64_t n)
{
    correct = false;
    failed += n;
    notes.push_back("FAIL: " + why);
}

double
Result::get(const std::string &name) const
{
    for (const Metric &m : metrics)
        if (m.name == name)
            return m.value;
    return std::nan("");
}

namespace {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
            continue;
        }
        out += c;
    }
    return out + "\"";
}

} // namespace

std::string
resultJson(const Result &r)
{
    std::ostringstream os;
    os << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        os << (i ? ", " : "") << jsonString(m.name)
           << ": {\"value\": " << jsonNumber(m.value)
           << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    os << "}}";
    return os.str();
}

std::string
stampJson(const Options &opt)
{
    auto env = [](const char *name, const char *fallback) {
        const char *v = std::getenv(name);
        return std::string(v && v[0] ? v : fallback);
    };
    std::ostringstream os;
    os << "{\"workload\": " << jsonString(opt.workload)
       << ", \"seed\": " << opt.seed << ", \"nproc\": " << hardwareThreads()
       << ", \"compiler\": " << jsonString(__VERSION__)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"simd_level\": "
       << jsonString(reaper::simd::toString(
              reaper::simd::activeLevel()))
       << ", \"REAPER_SIMD\": " << jsonString(env("REAPER_SIMD", "auto"))
       << ", \"REAPER_OBS\": " << jsonString(env("REAPER_OBS", "off"))
       << ", \"git_sha\": " << jsonString(opt.gitSha)
       << ", \"source_digest\": " << jsonString(opt.sourceDigest) << "}";
    return os.str();
}

// ---- Tracer ---------------------------------------------------------

namespace {

thread_local uint64_t t_current = 0;
thread_local void *t_buffer = nullptr;

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Buffer &
Tracer::local()
{
    if (!t_buffer) {
        std::lock_guard<std::mutex> lock(mu_);
        buffers_.push_back(std::make_unique<Buffer>());
        buffers_.back()->thread =
            static_cast<uint32_t>(buffers_.size());
        buffers_.back()->spans.reserve(1024);
        t_buffer = buffers_.back().get();
    }
    return *static_cast<Buffer *>(t_buffer);
}

void
Tracer::record(SpanRecord rec)
{
    Buffer &b = local();
    rec.thread = b.thread;
    std::lock_guard<std::mutex> lock(b.mu);
    b.spans.push_back(std::move(rec));
}

std::vector<SpanRecord>
Tracer::collect()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> all;
    for (auto &b : buffers_) {
        std::lock_guard<std::mutex> bufLock(b->mu);
        for (SpanRecord &s : b->spans)
            all.push_back(std::move(s));
        b->spans.clear();
    }
    return all;
}

uint64_t
Tracer::current()
{
    return t_current;
}

void
Tracer::setCurrent(uint64_t id)
{
    t_current = id;
}

Span::Span(const char *name, uint64_t request)
{
    if (Tracer::instance().enabled())
        open(name, Tracer::current(), request);
}

Span::Span(const char *name, uint64_t parent, uint64_t request)
{
    if (Tracer::instance().enabled())
        open(name, parent, request);
}

void
Span::open(const char *name, uint64_t parent, uint64_t request)
{
    name_ = name;
    id_ = Tracer::instance().newId();
    parent_ = parent;
    request_ = request;
    saved_ = Tracer::current();
    Tracer::setCurrent(id_);
    start_ = nowNs();
}

Span::~Span()
{
    close();
}

void
Span::close()
{
    if (!name_)
        return;
    uint64_t end = nowNs();
    Tracer::setCurrent(saved_);
    Tracer::instance().record(
        {id_, parent_, name_, start_, end, request_, 0});
    name_ = nullptr;
}

// ---- Span analysis --------------------------------------------------

namespace {

/** Length of the union of intervals clipped to [lo, hi). */
uint64_t
unionLength(std::vector<std::pair<uint64_t, uint64_t>> iv, uint64_t lo,
            uint64_t hi)
{
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (a >= b)
            continue;
        if (open && a <= cur_hi) {
            cur_hi = std::max(cur_hi, b);
            continue;
        }
        if (open)
            covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
    }
    if (open)
        covered += cur_hi - cur_lo;
    return covered;
}

} // namespace

std::map<uint64_t, uint64_t>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> kids;
    for (const SpanRecord &s : spans)
        if (s.parent)
            kids[s.parent].push_back({s.start, s.end});
    std::map<uint64_t, uint64_t> out;
    for (const SpanRecord &s : spans) {
        uint64_t dur = s.end - s.start;
        auto it = kids.find(s.id);
        uint64_t covered =
            it == kids.end() ? 0 : unionLength(it->second, s.start, s.end);
        out[s.id] = dur - covered;
    }
    return out;
}

std::map<std::string, uint64_t>
selfTimeByName(const std::vector<SpanRecord> &spans)
{
    std::map<uint64_t, uint64_t> self = selfTimes(spans);
    std::map<std::string, uint64_t> out;
    for (const SpanRecord &s : spans)
        out[s.name] += self[s.id];
    return out;
}

std::map<std::string, double>
wallShareByName(const std::vector<SpanRecord> &spans, uint64_t root)
{
    std::map<uint64_t, const SpanRecord *> byId;
    std::map<uint64_t, std::vector<uint64_t>> kids;
    for (const SpanRecord &s : spans) {
        byId[s.id] = &s;
        if (s.parent)
            kids[s.parent].push_back(s.id);
    }
    std::map<std::string, double> out;
    auto rootIt = byId.find(root);
    if (rootIt == byId.end())
        return out;
    const SpanRecord &r = *rootIt->second;

    // The root's subtree, and an event list over it.
    std::vector<uint64_t> tree{root};
    for (size_t i = 0; i < tree.size(); ++i)
        for (uint64_t k : kids[tree[i]])
            tree.push_back(k);
    struct Event
    {
        uint64_t t;
        int delta; ///< +1 open, -1 close
        uint64_t id;
    };
    std::vector<Event> events;
    for (uint64_t id : tree) {
        const SpanRecord &s = *byId[id];
        uint64_t a = std::max(s.start, r.start);
        uint64_t b = std::min(s.end, r.end);
        if (a >= b)
            continue;
        events.push_back({a, +1, id});
        events.push_back({b, -1, id});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &x, const Event &y) {
                  return x.t != y.t ? x.t < y.t : x.delta < y.delta;
              });

    std::set<uint64_t> open;
    std::map<uint64_t, int> openKids;
    uint64_t prev = r.start;
    for (const Event &e : events) {
        if (e.t > prev && !open.empty()) {
            std::vector<uint64_t> leaves;
            for (uint64_t id : open)
                if (openKids[id] == 0)
                    leaves.push_back(id);
            double share = static_cast<double>(e.t - prev) /
                           static_cast<double>(leaves.size());
            for (uint64_t id : leaves)
                out[byId[id]->name] += share;
        }
        prev = e.t;
        uint64_t parent = byId[e.id]->parent;
        bool parentInTree = e.id != root && byId.count(parent);
        if (e.delta > 0) {
            open.insert(e.id);
            if (parentInTree)
                ++openKids[parent];
        } else {
            open.erase(e.id);
            if (parentInTree)
                --openKids[parent];
        }
    }
    return out;
}

bool
writeSpans(const std::string &path, const std::vector<SpanRecord> &spans)
{
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    std::ofstream os(path);
    for (const SpanRecord &s : spans)
        os << "{\"id\": " << s.id << ", \"parent\": " << s.parent
           << ", \"name\": " << jsonString(s.name)
           << ", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
           << ", \"request\": " << s.request
           << ", \"thread\": " << s.thread << "}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
