/**
 * @file
 * Internal chunk plan behind the statevector's expectationBatch, plus
 * the bucket-sharding policy that decides which axis forks: the
 * chunks, or the fixed slices inside each chunk's sweep
 * (simd::sweepChunkSv). Not part of the public API.
 */

#ifndef EFTVQA_SIM_LANE_SWEEP_HPP
#define EFTVQA_SIM_LANE_SWEEP_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "pauli/hamiltonian.hpp"

namespace eftvqa {
namespace detail {

/**
 * One flattened sweep work unit: up to four terms sharing an X-mask,
 * evaluated in a single traversal of the state. Spare lanes carry a
 * zero Z-mask and term slot 0 (their results are simply ignored).
 */
struct SweepChunk
{
    uint64_t xm;
    size_t lanes;
    uint64_t z[4];
    size_t term[4];
};

/**
 * Chunk plan for Statevector::expectationBatch, memoized per Hamiltonian
 * content hash (GA/shot loops evaluate the same Hamiltonian thousands
 * of times; re-bucketing it each call is pure waste). The plan depends
 * only on the Hamiltonian, not on the register size, so one cache
 * serves every statevector. Thread-safe; returns a shared pointer so a
 * concurrent eviction cannot free a plan in use.
 */
std::shared_ptr<const std::vector<SweepChunk>>
sweepChunkPlan(const Hamiltonian &h);

/** Cache observability for tests/bench (process-wide counters). */
uint64_t sweepPlanCacheHits();
uint64_t sweepPlanCacheMisses();

/** Bucket-sharding override: -1 auto (grain heuristic), 0 force the
 *  slice-parallel path, 1 force bucket shards. Exposed so benches and
 *  determinism tests can pin either axis (the sums are the same bits
 *  on both); production code leaves it at auto. */
inline std::atomic<int> g_bucket_shard_mode{-1};

inline void
setBucketShardMode(int mode)
{
    g_bucket_shard_mode.store(mode, std::memory_order_relaxed);
}

/**
 * Shard an expectationBatch across its X-mask chunks (bucket-level
 * parallelism) rather than across the slices of each chunk's sweep?
 *
 * Chunks are independent work units writing disjoint outputs, and each
 * sums its fixed slices serially — fork-free per chunk. It wins when
 * there are enough chunks to fill the threads; with few chunks over a
 * huge register, forking the slices inside each traversal wins
 * instead. Either axis gives the same bits. Small problems (total work
 * under the grain) stay serial either way, so tiny Hamiltonians don't
 * pay the fork.
 */
inline bool
shouldShardBuckets(size_t n_chunks, size_t dim)
{
    const int mode = g_bucket_shard_mode.load(std::memory_order_relaxed);
    if (mode == 0)
        return false;
    if (mode == 1)
        return n_chunks >= 2;
#ifdef _OPENMP
    const auto threads = static_cast<size_t>(omp_get_max_threads());
    if (threads <= 1 || n_chunks < 2)
        return false;
    // Grain: don't fork for less than ~8k amplitude visits total.
    if (n_chunks * dim < (size_t{1} << 13))
        return false;
    // Enough chunks to occupy the team; otherwise the slices are the
    // better axis (they subdivide a single huge traversal).
    return n_chunks >= threads;
#else
    (void)n_chunks;
    (void)dim;
    return false;
#endif
}

} // namespace detail
} // namespace eftvqa

#endif // EFTVQA_SIM_LANE_SWEEP_HPP
