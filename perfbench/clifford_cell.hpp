/**
 * @file
 * The fig12 cell protocol (GA Clifford VQE under NISQ and pQEC on the
 * tableau trajectory farm, a shared ideal-tableau reference, and
 * fresh-sample eval regimes) written against the public session and
 * engine entry points, so the benchmark can time each layer boundary.
 * Used by tableau_sweep (SweepRunner) and daemon_mix (served by an
 * in-process vqad Daemon).
 */

#ifndef PERFBENCH_CLIFFORD_CELL_HPP
#define PERFBENCH_CLIFFORD_CELL_HPP

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hpp"
#include "vqa/sweep.hpp"

namespace perfbench {

/** What the cell function observed, across every cell it ran. */
struct CellRecorder
{
    explicit CellRecorder(Tracer &t) : tracer(t) {}

    Tracer &tracer;
    /** Parent span of cell spans (0: adopted later by tag). */
    std::atomic<uint64_t> parent_span{0};

    std::mutex mutex; ///< guards everything below
    /** Per-genome GA energy latency in ms, by regime ("nisq"/"pqec"). */
    std::map<std::string, std::vector<double>> energy_ms;
    std::vector<double> cell_ms;               ///< cell function durations
    std::map<std::string, double> cell_ms_by_key;
    uint64_t cells = 0;
    uint64_t energy_calls = 0;    ///< energies requested (genomes + singles)
    uint64_t tableau_evals = 0;   ///< engine cache misses = farm prepares
    uint64_t trajectories = 0;    ///< trajectories behind those prepares
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t compile_hits = 0;
    uint64_t compile_misses = 0;
    uint64_t optimizer_evals = 0; ///< GA evaluations

    void clear();
};

/** Grid and budget of a fig12-shaped sweep. */
struct CliffordGrid
{
    std::string name;
    std::vector<int> sizes;
    std::vector<double> couplings;
    size_t population = 8;
    size_t generations = 3;
    size_t trajectories = 64; ///< eval regimes; GA regimes use 1/8
};

/** The SweepSpec of @p grid (Ising + Heisenberg, FCHE depth 1, the
 *  fig12 per-cell GA and eval-regime seeds). */
eftvqa::SweepSpec cliffordSweepSpec(const CliffordGrid &grid);

/** The fig12 cell function. @p rec may be null (a reference run that
 *  records nothing); otherwise it must outlive every call. */
eftvqa::SweepCellFn cliffordCellFn(size_t trajectories, CellRecorder *rec);

/** stabilizer.*, vqa.energy.*, vqa.optimizer.evals and
 *  vqa.sweep.cell_s per unit of work: counters from @p rec, which
 *  covers @p recorded_units units, busy times from @p spans, which
 *  cover @p traced_units units. */
void reportCliffordLayers(Report &report, const CellRecorder &rec,
                          const std::vector<Span> &spans,
                          double recorded_units, double traced_units);

} // namespace perfbench

#endif // PERFBENCH_CLIFFORD_CELL_HPP
