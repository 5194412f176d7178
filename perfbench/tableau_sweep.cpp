/**
 * @file
 * tableau_sweep: the fig12 protocol (GA Clifford VQE on the tableau
 * trajectory farm at 16-48 qubits under NISQ and pQEC, with eval
 * regimes) through SweepRunner into a fresh binary SweepStore, then
 * resume passes that reopen the store and must execute no cell.
 */

#include <filesystem>
#include <map>
#include <mutex>
#include <optional>

#include "clifford_cell.hpp"
#include "store/sink.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace eftvqa;

namespace {

constexpr size_t kSetupReps = 5;
constexpr size_t kResumePasses = 3; ///< reopen + resume passes per unit

CliffordGrid
tableauGrid(uint64_t seed)
{
    SeedStream s(seed);
    CliffordGrid grid;
    grid.name = "perfbench_tableau_sweep";
    grid.sizes = {16, 32, 48};
    grid.couplings = {s.uniform(0.25, 1.0), s.uniform(1.0, 2.0)};
    grid.population = 8;
    grid.generations = 4;
    grid.trajectories = 160;
    return grid;
}

/** SweepSink wrapper timing the store calls the runner makes:
 *  appends of executed rows, and the lookups that carry stored rows
 *  on resume (per cell key). */
class TimingSink : public SweepSink
{
    template <class F>
    auto timedLookup(const SweepCell &cell, F &&f) const
    {
        Scope span(tracer_, "store.lookup", cell.keyString(), parent_);
        const int64_t t0 = nowNs();
        auto out = f();
        const double ns = static_cast<double>(nowNs() - t0);
        std::lock_guard<std::mutex> lock(mutex_);
        lookup_us.push_back(ns * 1e-3);
        lookup_ms_by_key[cell.keyString()] += ns * 1e-6;
        return out;
    }

  public:
    TimingSink(SweepSink &inner, Tracer &tracer, uint64_t parent)
        : inner_(inner), tracer_(tracer), parent_(parent)
    {
    }

    bool contains(const SweepCell &cell) const override
    {
        return timedLookup(cell, [&] { return inner_.contains(cell); });
    }
    SweepRow storedRow(const SweepCell &cell) const override
    {
        return timedLookup(cell, [&] { return inner_.storedRow(cell); });
    }
    bool quarantined(const SweepCell &cell) const override
    {
        return inner_.quarantined(cell);
    }
    CellOutcome storedOutcome(const SweepCell &cell) const override
    {
        return inner_.storedOutcome(cell);
    }
    void write(const SweepCell &cell, const SweepRow &row,
               bool executed) override
    {
        if (!executed) {
            inner_.write(cell, row, executed);
            return;
        }
        Scope span(tracer_, "store.append", cell.keyString(), parent_);
        const int64_t t0 = nowNs();
        inner_.write(cell, row, executed);
        const double us = static_cast<double>(nowNs() - t0) * 1e-3;
        std::lock_guard<std::mutex> lock(mutex_);
        append_us.push_back(us);
    }
    void writeQuarantined(const SweepCell &cell,
                          const CellOutcome &outcome) override
    {
        inner_.writeQuarantined(cell, outcome);
    }
    void finish(const SweepReport &report) override
    {
        Scope span(tracer_, "store.finish", {}, parent_);
        inner_.finish(report);
    }

    std::vector<double> append_us;
    mutable std::vector<double> lookup_us;
    mutable std::map<std::string, double> lookup_ms_by_key;

  private:
    SweepSink &inner_;
    Tracer &tracer_;
    uint64_t parent_;
    mutable std::mutex mutex_;
};

std::map<std::string, std::string>
storedLines(store::BinarySweepSink &sink, const SweepRunner &runner)
{
    std::map<std::string, std::string> lines;
    for (const SweepCell &cell : runner.cells())
        if (sink.underlyingStore().containsKey(cell.keyString()))
            lines[cell.keyString()] = sink.underlyingStore().lineFor(cell.keyString());
    return lines;
}

} // namespace

Report
runTableauSweep(const RunConfig &config)
{
    Report report;
    const CliffordGrid grid = tableauGrid(config.seed);
    SweepSpec spec = cliffordSweepSpec(grid);
    spec.cell_workers = std::max<size_t>(1, config.threads / ompThreads());
    report.env["cell_workers"] = std::to_string(spec.cell_workers);
    report.env["inputs"] = "J=" + std::to_string(grid.couplings[0]) + "," +
                           std::to_string(grid.couplings[1]);
    std::filesystem::create_directories(config.workdir);
    const std::string path = config.workdir + "/tableau_sweep.store";

    // Set-up: expand the grid and pay every cell's first trajectory
    // evaluation under each regime (engine and farm start-up).
    std::vector<double> setup_s;
    for (size_t r = 0; r < kSetupReps; ++r) {
        const auto t0 = Clock::now();
        SweepRunner runner(spec);
        for (const SweepCell &cell : runner.cells()) {
            ExperimentSession session(cell.experiment);
            const Circuit bound = cell.experiment.ansatz.bind(
                std::vector<double>(cell.experiment.ansatz.nParameters(), 0.0));
            for (const RegimeSpec &regime : cell.experiment.regimes)
                session.energy(regime, bound);
        }
        setup_s.push_back(secondsSince(t0));
    }

    Tracer tracer(false);
    CellRecorder rec(tracer);
    const SweepCellFn fn = cliffordCellFn(grid.trajectories, &rec);
    std::vector<double> wall_untraced, wall_traced, cold_ms, hit_ms;
    std::vector<double> append_us, lookup_us, open_s, idle_s;
    std::vector<double> appends, fsyncs, bytes, max_batch, evals;
    std::vector<double> cache_hits, cache_lookups;
    std::vector<double> executed, skipped, failed;
    std::map<std::string, std::vector<double>> energy_ms;
    const auto start = Clock::now();
    repeatFor(config.seconds, start, config.trace ? 2 : 1, [&](size_t i) {
        const bool traced = config.trace && i % 2 == 1;
        std::filesystem::remove(path);
        rec.clear();
        tracer.setOn(traced);
        const store::GlobalStoreCounters before = store::globalStoreCounters();
        const auto t0 = Clock::now();

        const size_t n = spec.cellCount();
        SweepReport first;
        std::map<std::string, std::string> first_lines; ///< key -> bytes
        uint64_t max_commit_batch = 0;
        double pass1_s = 0.0;
        {
            Scope root(tracer, "vqa.sweep.run");
            rec.parent_span = root.id();
            SweepRunner runner(spec);
            store::BinarySweepSink sink(path, spec.name);
            TimingSink timed(sink, tracer, root.id());
            first = runner.run(fn, &timed);
            pass1_s = secondsSince(t0);
            first_lines = storedLines(sink, runner);
            max_commit_batch = sink.underlyingStore().stats().max_commit_batch;
            append_us.insert(append_us.end(), timed.append_us.begin(),
                             timed.append_us.end());
        }
        report.check(first.executed == n && first.failed == 0,
                     "tableau_sweep: first pass executed every cell");

        std::vector<double> lookups_this_unit;
        size_t resumed_skipped = 0;
        for (size_t pass = 0; pass < kResumePasses; ++pass) {
            Scope root(tracer, "vqa.sweep.run");
            rec.parent_span = root.id();
            SweepRunner runner(spec);
            const auto o0 = Clock::now();
            std::optional<store::BinarySweepSink> sink;
            {
                Scope open(tracer, "store.open");
                sink.emplace(path, spec.name);
            }
            open_s.push_back(secondsSince(o0));
            TimingSink timed(*sink, tracer, root.id());
            const uint64_t cells_before = rec.cells;
            const SweepReport resumed = runner.run(fn, &timed);
            resumed_skipped = resumed.skipped;
            report.check(resumed.executed == 0 && rec.cells == cells_before &&
                             resumed.skipped == n,
                         "tableau_sweep: resume pass executed 0 cells");
            report.check(resumed.rows == first.rows,
                         "tableau_sweep: resumed rows equal first-pass rows");
            report.check(first_lines.size() == n &&
                             storedLines(*sink, runner) == first_lines,
                         "tableau_sweep: resumed store lines byte-identical");
            lookup_us.insert(lookup_us.end(), timed.lookup_us.begin(),
                             timed.lookup_us.end());
            for (const auto &[key, ms] : timed.lookup_ms_by_key)
                lookups_this_unit.push_back(ms);
        }
        const double wall = secondsSince(t0);
        tracer.setOn(false);
        const store::GlobalStoreCounters after = store::globalStoreCounters();

        (traced ? wall_traced : wall_untraced).push_back(wall);
        appends.push_back(static_cast<double>(counterDelta(before.appends, after.appends)));
        fsyncs.push_back(static_cast<double>(counterDelta(before.fsyncs, after.fsyncs)));
        bytes.push_back(static_cast<double>(
            counterDelta(before.bytes_appended, after.bytes_appended)));
        max_batch.push_back(static_cast<double>(max_commit_batch));
        executed.push_back(static_cast<double>(first.executed));
        skipped.push_back(static_cast<double>(resumed_skipped));
        failed.push_back(static_cast<double>(first.failed));
        std::lock_guard<std::mutex> lock(rec.mutex);
        double busy = 0.0;
        for (double ms : rec.cell_ms)
            busy += ms * 1e-3;
        idle_s.push_back(static_cast<double>(spec.cell_workers) * pass1_s - busy);
        evals.push_back(static_cast<double>(rec.optimizer_evals));
        // The sweep cache's deltas (SweepReport) must equal the sum of
        // every cell engine's counters: each lookup is one find().
        report.check(rec.cache_hits == first.cache_hits &&
                         rec.cache_misses == first.cache_misses,
                     "tableau_sweep: engine cache counters sum to the sweep "
                     "cache deltas");
        cache_hits.push_back(static_cast<double>(first.cache_hits));
        cache_lookups.push_back(static_cast<double>(first.cache_hits +
                                                    first.cache_misses));
        if (!traced) {
            cold_ms.insert(cold_ms.end(), rec.cell_ms.begin(), rec.cell_ms.end());
            hit_ms.insert(hit_ms.end(), lookups_this_unit.begin(),
                          lookups_this_unit.end());
            for (const auto &[regime, ms] : rec.energy_ms)
                energy_ms[regime].insert(energy_ms[regime].end(), ms.begin(),
                                         ms.end());
        }
    });
    std::filesystem::remove(path);
    for (double e : evals)
        report.check(e == evals.front(),
                     "tableau_sweep: optimizer evaluation count repeats");

    reportEndToEnd(report, setup_s, wall_untraced, energy_ms, cold_ms, hit_ms);
    if (!config.trace)
        return report;

    const std::vector<Span> spans = tracer.spans();
    // The recorder holds the last unit (every unit does the same work).
    reportCliffordLayers(report, rec, spans, 1.0,
                         static_cast<double>(wall_traced.size()));
    report.set("vqa.energy_cache.hit_ratio",
               ratio(median(cache_hits), median(cache_lookups)), "ratio");
    report.set("vqa.compile_cache.hit_ratio",
               ratio(static_cast<double>(rec.compile_hits),
                     static_cast<double>(rec.compile_hits + rec.compile_misses)),
               "ratio");
    report.set("vqa.sweep.cells_executed", median(executed), "count");
    report.set("vqa.sweep.skipped", median(skipped), "count");
    report.set("vqa.sweep.failed", median(failed), "count");
    report.set("vqa.sweep.idle_s", median(idle_s), "s", idle_s.size());
    report.setTail("store.append_us", append_us, "us");
    report.set("store.appends", median(appends), "count");
    report.set("store.fsyncs", median(fsyncs), "count");
    report.set("store.max_commit_batch", median(max_batch), "count");
    report.set("store.bytes_written", median(bytes), "B");
    report.set("store.open_s", median(open_s), "s", open_s.size());
    report.set("store.lookup_us.p50", median(lookup_us), "us", lookup_us.size());
    reportTracing(report, spans, wall_traced, wall_untraced);
    return report;
}

} // namespace perfbench
