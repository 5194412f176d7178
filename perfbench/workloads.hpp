/**
 * @file
 * The benchmark's workloads. Each builds its inputs from the seed,
 * sets up (several times, reporting the median), then repeats its
 * fixed unit of work until the run's seconds are spent, checking the
 * outputs as it goes. Untraced runs report the end-to-end metrics;
 * traced runs alternate untraced and traced units and report the
 * per-layer metrics plus the tracing overhead.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "harness.hpp"

namespace perfbench {

/** Noisy density-matrix VQE, fig13 cell protocol (8 qubits). */
Report runDmVqe(const RunConfig &config);

/** GA Clifford VQE on the tableau farm through SweepRunner into a
 *  fresh binary SweepStore, then a resume pass (fig12 protocol). */
Report runTableauSweep(const RunConfig &config);

/** Cold/hit/coalesced/ping request mix against an in-process vqad
 *  Daemon with a server store, from two closed-loop clients. */
Report runDaemonMix(const RunConfig &config);

/** Repeat @p unit until @p seconds have passed since @p start (at
 *  least @p min_units times); @p unit gets the iteration index. */
template <class F>
void
repeatFor(double seconds, Clock::time_point start, size_t min_units, F &&unit)
{
    for (size_t i = 0; i < min_units || secondsSince(start) < seconds; ++i)
        unit(i);
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
