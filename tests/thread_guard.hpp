/**
 * @file
 * Scoped OpenMP team size for the thread-count comparisons.
 *
 * The team size is the only thread control of the library: every
 * serial-versus-parallel test runs the same call on a team of 1 and on
 * a team of manyThreads(). omp_set_num_threads sets a per-thread value;
 * WorkerPool jobs (ExperimentSession::submit, SweepRunner cells) run
 * at the team size of the thread that enqueued them, so a guard on the
 * test thread also sets the team of the work it submits.
 */

#ifndef EFTVQA_TESTS_THREAD_GUARD_HPP
#define EFTVQA_TESTS_THREAD_GUARD_HPP

#include <algorithm>

#ifdef _OPENMP
#include <omp.h>
#endif

/** Team size of the parallel side of a comparison: at least 4, so the
 *  fork paths run even on a small host. 1 without OpenMP. */
inline int
manyThreads()
{
#ifdef _OPENMP
    return std::max(4, omp_get_max_threads());
#else
    return 1;
#endif
}

/** Sets the calling thread's OpenMP team size for one scope and
 *  restores it on exit, also when the scope throws. A no-op without
 *  OpenMP. */
class ThreadGuard
{
  public:
    explicit ThreadGuard(int threads)
    {
#ifdef _OPENMP
        saved_ = omp_get_max_threads();
        omp_set_num_threads(threads);
#else
        (void)threads;
#endif
    }

    ~ThreadGuard()
    {
#ifdef _OPENMP
        omp_set_num_threads(saved_);
#endif
    }

    ThreadGuard(const ThreadGuard &) = delete;
    ThreadGuard &operator=(const ThreadGuard &) = delete;

  private:
    int saved_ = 1;
};

#endif // EFTVQA_TESTS_THREAD_GUARD_HPP
