#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include <sched.h>
#include <sys/resource.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "sim/simd.hpp"

namespace perfbench {

namespace {

thread_local uint64_t t_current_span = 0;

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

std::string
readFirstLine(const char *path)
{
    std::ifstream in(path);
    std::string line;
    if (!in || !std::getline(in, line))
        return "unreadable";
    return line;
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

uint64_t
counterDelta(uint64_t before, uint64_t after)
{
    if (after < before)
        throw std::logic_error("counter went backwards: " +
                               std::to_string(before) + " -> " +
                               std::to_string(after));
    return after - before;
}

uint64_t
SeedStream::next()
{
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
SeedStream::uniform(double lo, double hi)
{
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
}

void
Tracer::record(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

Scope::Scope(Tracer &tracer, const char *name, std::string tag,
             uint64_t parent)
    : tracer_(tracer)
{
    if (!tracer_.on())
        return;
    span_.name = name;
    span_.tag = std::move(tag);
    span_.id = tracer_.nextId();
    span_.parent = parent == kInheritParent ? t_current_span : parent;
    saved_current_ = t_current_span;
    t_current_span = span_.id;
    span_.t0 = nowNs();
}

Scope::~Scope()
{
    if (span_.id == 0)
        return;
    span_.t1 = nowNs();
    t_current_span = saved_current_;
    tracer_.record(std::move(span_));
}

std::map<std::string, double>
layerSelfSeconds(const std::vector<Span> &spans)
{
    std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back({s.t0, s.t1});
    std::map<std::string, double> self;
    for (const Span &s : spans) {
        int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            int64_t run_lo = 0, run_hi = 0;
            bool open = false;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s.t0);
                hi = std::min(hi, s.t1);
                if (hi <= lo)
                    continue;
                if (open && lo <= run_hi) {
                    run_hi = std::max(run_hi, hi);
                    continue;
                }
                if (open)
                    covered += run_hi - run_lo;
                run_lo = lo;
                run_hi = hi;
                open = true;
            }
            if (open)
                covered += run_hi - run_lo;
        }
        self[layerOf(s.name)] +=
            static_cast<double>(s.t1 - s.t0 - covered) * 1e-9;
    }
    return self;
}

std::vector<double>
spanSeconds(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const Span &s : spans)
        if (s.name == name)
            out.push_back(static_cast<double>(s.t1 - s.t0) * 1e-9);
    return out;
}

double
spanTotalSeconds(const std::vector<Span> &spans, const std::string &name)
{
    double total = 0.0;
    for (double s : spanSeconds(spans, name))
        total += s;
    return total;
}

void
adoptByTag(std::vector<Span> &spans, const std::string &parent_name)
{
    std::multimap<std::string, const Span *> parents;
    for (const Span &s : spans)
        if (s.name == parent_name)
            parents.insert({s.tag, &s});
    for (Span &s : spans) {
        if (s.parent != 0 || s.tag.empty() || s.name == parent_name)
            continue;
        auto [lo, hi] = parents.equal_range(s.tag);
        for (auto it = lo; it != hi; ++it)
            if (it->second->t0 <= s.t0 && s.t1 <= it->second->t1) {
                s.parent = it->second->id;
                break;
            }
    }
}

void
Report::set(const std::string &name, double value, const std::string &unit,
            size_t samples)
{
    metrics[name] = Metric{value, unit, samples};
}

void
Report::setTail(const std::string &name, const std::vector<double> &samples,
                const std::string &unit)
{
    set(name + ".p50", percentile(samples, 50.0), unit, samples.size());
    set(name + ".p90", percentile(samples, 90.0), unit, samples.size());
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 8)
        failures.push_back(what);
}

long long
stealTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    long long v[8] = {};
    if (!(in >> cpu) || cpu != "cpu")
        return -1;
    for (long long &x : v)
        if (!(in >> x))
            return -1;
    return v[7];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

size_t
ompThreads()
{
#ifdef _OPENMP
    return static_cast<size_t>(std::max(1, omp_get_max_threads()));
#else
    return 1;
#endif
}

void
reportEndToEnd(Report &report, const std::vector<double> &setup_s,
               const std::vector<double> &wall_s,
               const std::map<std::string, std::vector<double>> &energy_ms,
               const std::vector<double> &cold_ms,
               const std::vector<double> &hit_ms)
{
    report.runs["setup_s"] = setup_s;
    report.runs["wall_s"] = wall_s;
    report.set("setup_s", median(setup_s), "s", setup_s.size());
    report.set("wall_s", median(wall_s), "s", wall_s.size());
    for (const char *regime : {"nisq", "pqec"}) {
        const auto it = energy_ms.find(regime);
        report.setTail(std::string("energy_ms.") + regime,
                       it == energy_ms.end() ? std::vector<double>{}
                                             : it->second,
                       "ms");
    }
    report.setTail("cold_ms", cold_ms, "ms");
    report.setTail("hit_ms", hit_ms, "ms");
    report.set("peak_rss_mb", peakRssMb(), "MiB");
}

void
reportTracing(Report &report, const std::vector<Span> &spans,
              const std::vector<double> &traced_wall_s,
              const std::vector<double> &untraced_wall_s)
{
    report.runs["trace_wall_s"] = traced_wall_s;
    report.set("trace.overhead_s",
               median(traced_wall_s) - median(untraced_wall_s), "s",
               traced_wall_s.size());
    const double units = static_cast<double>(traced_wall_s.size());
    std::map<std::string, double> self = layerSelfSeconds(spans);
    double total = 0.0;
    for (const char *layer :
         {"bench", "noise", "sim", "stabilizer", "vqa", "store", "serve"}) {
        total += self[layer];
        report.set(std::string("self_s.") + layer, self[layer] / units, "s");
    }
    report.set("self_share.noise", ratio(self["noise"], total), "ratio");
}

void
recordEnvironment(Report &report, const RunConfig &config)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int nproc =
        sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
    report.env["nproc"] = std::to_string(nproc);
    report.env["cgroup_cpu_max"] = readFirstLine("/sys/fs/cgroup/cpu.max");
    report.env["thread_budget"] = std::to_string(config.threads);
#ifdef _OPENMP
    report.env["omp_max_threads"] = std::to_string(omp_get_max_threads());
#else
    report.env["omp_max_threads"] = "no-openmp";
#endif
    for (const char *var : {"OMP_NUM_THREADS", "OMP_PROC_BIND",
                            "OMP_WAIT_POLICY", "GOMP_SPINCOUNT"}) {
        const char *v = std::getenv(var);
        report.env[var] = v ? v : "unset";
    }
    report.env["simd_compiled"] = eftvqa::simd::kCompiledIsa;
    report.env["simd_active"] = eftvqa::simd::activeIsa();
    report.env["cpuid_avx2"] = __builtin_cpu_supports("avx2") ? "1" : "0";
    report.env["cpuid_avx512f"] =
        __builtin_cpu_supports("avx512f") ? "1" : "0";
    report.env["build_type"] = PERFBENCH_BUILD_TYPE;
}

std::vector<std::string>
selfTest()
{
    std::vector<std::string> bad;
    const auto expect = [&bad](bool ok, const char *what) {
        if (!ok)
            bad.push_back(what);
    };
    const auto near = [](double a, double b) {
        return std::abs(a - b) < 1e-9;
    };

    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    expect(near(percentile(v, 50.0), 50.5), "p50 of 1..100");
    expect(near(percentile(v, 90.0), 90.1), "p90 of 1..100");
    expect(near(percentile({7.0}, 90.0), 7.0), "percentile of one sample");
    expect(percentile({}, 50.0) == 0.0, "percentile of no samples");
    expect(near(median({3.0, 1.0, 2.0, 10.0}), 2.5), "even median");
    expect(ratio(1.0, 0.0) == 0.0 && near(ratio(1.0, 4.0), 0.25), "ratio");

    expect(counterDelta(5, 12) == 7, "counter delta");
    bool threw = false;
    try {
        counterDelta(12, 5);
    } catch (const std::logic_error &) {
        threw = true;
    }
    expect(threw, "backwards counter throws");

    // Root [0,100] with overlapping children [10,30] and [20,50], a
    // disjoint child [60,70] and a child overhanging the end [95,120]:
    // covered 40 + 10 + 5, so root self = 45. The grandchild [12,18]
    // leaves child A with 14. Times are in ns.
    const auto mk = [](const char *name, int64_t t0, int64_t t1, uint64_t id,
                       uint64_t parent) {
        Span s;
        s.name = name;
        s.t0 = t0;
        s.t1 = t1;
        s.id = id;
        s.parent = parent;
        return s;
    };
    const std::vector<Span> spans = {
        mk("vqa.root", 0, 100, 1, 0),     mk("sim.a", 10, 30, 2, 1),
        mk("sim.b", 20, 50, 3, 1),        mk("store.c", 60, 70, 4, 1),
        mk("noise.d", 95, 120, 5, 1),     mk("noise.e", 12, 18, 6, 2),
    };
    auto self = layerSelfSeconds(spans);
    expect(near(self["vqa"] * 1e9, 45.0), "root self time");
    expect(near(self["sim"] * 1e9, 14.0 + 30.0), "sim self time");
    expect(near(self["store"] * 1e9, 10.0), "store self time");
    expect(near(self["noise"] * 1e9, 25.0 + 6.0), "noise self time");

    std::vector<Span> tagged = {mk("serve.request", 0, 100, 1, 0),
                                mk("vqa.cell", 10, 90, 2, 0),
                                mk("vqa.cell", 110, 120, 3, 0)};
    tagged[0].tag = tagged[1].tag = tagged[2].tag = "k";
    adoptByTag(tagged, "serve.request");
    expect(tagged[1].parent == 1, "tag adoption inside the interval");
    expect(tagged[2].parent == 0, "no adoption outside the interval");
    self = layerSelfSeconds(tagged);
    expect(near(self["serve"] * 1e9, 20.0), "serve self after adoption");

    SeedStream a(42), b(42), c(43);
    const uint64_t a1 = a.next();
    expect(a1 == b.next() && a1 != c.next(), "seed stream determinism");
    return bad;
}

} // namespace perfbench
