/**
 * @file
 * Measurement harness of the repository benchmark: sample statistics,
 * in-memory span tracing with per-layer self time, the run report and
 * the host-environment record. The workloads (dm_vqe.cpp,
 * tableau_sweep.cpp, daemon_mix.cpp) drive the library; this file only
 * measures and prints.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Monotonic time in nanoseconds. */
int64_t nowNs();

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/**
 * Percentile @p q (0..100) of @p v with linear interpolation between
 * closest ranks (the numpy default); 0 for an empty sample.
 */
double percentile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/** @p num / @p den, or 0 when nothing was attempted. */
double ratio(double num, double den);

/** after - before of a monotone counter snapshot pair; throws
 *  std::logic_error when the counter went backwards (snapshots taken
 *  from different objects or in the wrong order). */
uint64_t counterDelta(uint64_t before, uint64_t after);

/** splitmix64 — the seeded input generator's only randomness source,
 *  so a seed names the same inputs on every platform. */
class SeedStream
{
  public:
    explicit SeedStream(uint64_t seed) : state_(seed) {}
    uint64_t next();
    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

  private:
    uint64_t state_;
};

/** One recorded interval at a layer boundary. The layer is the name's
 *  prefix up to the first '.'; spans of one cell or request share a
 *  tag. */
struct Span
{
    std::string name;
    int64_t t0 = 0;
    int64_t t1 = 0;
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    std::string tag;
};

/**
 * In-memory span recorder. Disabled tracers record nothing and cost
 * one branch per scope. Spans are kept until the run ends.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool on() const { return on_.load(std::memory_order_relaxed); }
    /** Pause/resume recording (untraced iterations of a traced run). */
    void setOn(bool on) { on_.store(on, std::memory_order_relaxed); }

    uint64_t nextId() { return ++next_id_; }
    void record(Span span);
    std::vector<Span> spans() const;

  private:
    std::atomic<bool> on_;
    std::atomic<uint64_t> next_id_{0};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Marker for Scope: take the parent from this thread's open scope. */
inline constexpr uint64_t kInheritParent = ~uint64_t{0};

/**
 * RAII span. The parent is the innermost open Scope of the calling
 * thread unless one is given (cross-thread children: sweep cells and
 * daemon jobs name their parent explicitly).
 */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, std::string tag = {},
          uint64_t parent = kInheritParent);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** 0 when the tracer is off. */
    uint64_t id() const { return span_.id; }

  private:
    Tracer &tracer_;
    Span span_;
    uint64_t saved_current_ = 0;
};

/**
 * Self time per layer in seconds: each span's duration minus the part
 * of it covered by the union of its children's intervals (clipped to
 * the span), summed by layer.
 */
std::map<std::string, double> layerSelfSeconds(const std::vector<Span> &spans);

/** Durations in seconds of every span named @p name. */
std::vector<double> spanSeconds(const std::vector<Span> &spans,
                                const std::string &name);

/** Sum of spanSeconds(@p spans, @p name). */
double spanTotalSeconds(const std::vector<Span> &spans,
                        const std::string &name);

/** Re-parent root spans tagged like a root span of @p parent_name
 *  whose interval contains them (daemon jobs run on server threads,
 *  so their cell spans cannot inherit the client's request span). */
void adoptByTag(std::vector<Span> &spans, const std::string &parent_name);

/** One named metric with its unit and sample count. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
};

/** What one workload run reports. */
struct Report
{
    std::map<std::string, Metric> metrics;
    /** Every per-iteration value behind a reported median, by name. */
    std::map<std::string, std::vector<double>> runs;
    /** Host and build facts of this run. */
    std::map<std::string, std::string> env;
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<std::string> failures; ///< first few failed checks

    void set(const std::string &name, double value, const std::string &unit,
             size_t samples = 1);
    /** Median and p90 of @p samples as name.p50 / name.p90. */
    void setTail(const std::string &name, const std::vector<double> &samples,
                 const std::string &unit);
    /** Count one output check; a failed one is recorded by @p what. */
    void check(bool ok, const std::string &what);
};

/** Run parameters every workload receives. */
struct RunConfig
{
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    size_t threads = 1;  ///< thread budget (CPUs this run may use)
    std::string workdir; ///< directory for store and socket files
};

/** Fill the environment record: nproc, cgroup cpu.max, OpenMP, SIMD
 *  ISA (compile-time and CPUID) and build type. */
void recordEnvironment(Report &report, const RunConfig &config);

/** Aggregate steal ticks from /proc/stat (-1 when unreadable). */
long long stealTicks();

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/** OpenMP threads a parallel region started here would use (1
 *  without OpenMP). */
size_t ompThreads();

/** The end-to-end metrics every workload reports: setup_s and wall_s
 *  medians (with every value in report.runs), energy_ms per regime,
 *  cold_ms and hit_ms (p50 and p90), peak_rss_mb. */
void reportEndToEnd(Report &report, const std::vector<double> &setup_s,
                    const std::vector<double> &wall_s,
                    const std::map<std::string, std::vector<double>> &energy_ms,
                    const std::vector<double> &cold_ms,
                    const std::vector<double> &hit_ms);

/** Traced-run summary: trace.overhead_s (median traced minus median
 *  untraced unit wall time), self_s.<layer> per traced unit for every
 *  benchmark layer (0 for layers with no spans) and the noise layer's
 *  share of the total as self_share.noise. */
void reportTracing(Report &report, const std::vector<Span> &spans,
                   const std::vector<double> &traced_wall_s,
                   const std::vector<double> &untraced_wall_s);

/** Harness self-test on synthetic spans and samples; returns the
 *  failed checks (empty on success). */
std::vector<std::string> selfTest();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
