/**
 * @file
 * Internal multi-lane signed-accumulation sweep behind the
 * statevector's expectationBatch, plus the bucket-sharding policy
 * that decides between amplitude-level and bucket-level parallelism.
 * Not part of the public API.
 */

#ifndef EFTVQA_SIM_LANE_SWEEP_HPP
#define EFTVQA_SIM_LANE_SWEEP_HPP

#include <atomic>
#include <bit>
#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "pauli/hamiltonian.hpp"
#include "pauli/term_groups.hpp"
#include "sim/simd.hpp"

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
 * Chunk plan for expectationBatchSweep, memoized per Hamiltonian
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

/**
 * Serial core of laneSweep: accumulate
 * sum_i (-1)^{parity(i & z_k)} * load(i) for kLanes terms in one
 * traversal of i in [0, dim). Stack-scalar accumulators keep the
 * per-lane sums in registers — heap-array accumulators cost a memory
 * round-trip per term per amplitude, which eats the benefit of sharing
 * load(i) across the lanes. Hermitian Pauli terms with no X support
 * contribute only real parts, so kWantImag = false lets diagonal
 * groups skip half the arithmetic.
 *
 * This is also the deterministic reference: one thread sweeping i in
 * ascending order. The bucket-sharded batch path runs each chunk
 * through this serial core, so its per-term sums are bit-identical for
 * any thread count.
 */
template <int kLanes, bool kWantImag, class LoadFn>
void
laneSweepSerial(size_t dim, const uint64_t *z, LoadFn &&load,
                double *out_re, double *out_im)
{
    double re[kLanes] = {};
    double im[kLanes] = {};
    for (uint64_t i = 0; i < dim; ++i) {
        const std::complex<double> p = load(i);
        for (int k = 0; k < kLanes; ++k) {
            const bool neg = std::popcount(i & z[k]) & 1;
            re[k] += neg ? -p.real() : p.real();
            if constexpr (kWantImag)
                im[k] += neg ? -p.imag() : p.imag();
        }
    }
    for (int k = 0; k < kLanes; ++k) {
        out_re[k] = re[k];
        out_im[k] = im[k];
    }
}

/** laneSweepSerial with amplitude-level OpenMP parallelism for large
 *  registers (merge order across threads is not deterministic). */
template <int kLanes, bool kWantImag, class LoadFn>
void
laneSweep(size_t dim, const uint64_t *z, LoadFn &&load, double *out_re,
          double *out_im)
{
#ifdef _OPENMP
    double re[kLanes] = {};
    double im[kLanes] = {};
#pragma omp parallel if (dim >= simd::kParallelGrainAmps)
    {
        double lre[kLanes] = {};
        double lim[kLanes] = {};
#pragma omp for nowait
        for (int64_t si = 0; si < static_cast<int64_t>(dim); ++si) {
            const auto i = static_cast<uint64_t>(si);
            const std::complex<double> p = load(i);
            for (int k = 0; k < kLanes; ++k) {
                const bool neg = std::popcount(i & z[k]) & 1;
                lre[k] += neg ? -p.real() : p.real();
                if constexpr (kWantImag)
                    lim[k] += neg ? -p.imag() : p.imag();
            }
        }
#pragma omp critical
        for (int k = 0; k < kLanes; ++k) {
            re[k] += lre[k];
            im[k] += lim[k];
        }
    }
    for (int k = 0; k < kLanes; ++k) {
        out_re[k] = re[k];
        out_im[k] = im[k];
    }
#else
    laneSweepSerial<kLanes, kWantImag>(dim, z, load, out_re, out_im);
#endif
}

/** Dispatch laneSweep on the run-time lane count (1, 2 or up-to-4). */
template <bool kWantImag, class LoadFn>
void
laneSweepChunk(size_t dim, size_t lanes, const uint64_t *z, LoadFn &&load,
               double *out_re, double *out_im)
{
    switch (lanes) {
      case 1:
        laneSweep<1, kWantImag>(dim, z, load, out_re, out_im);
        break;
      case 2:
        laneSweep<2, kWantImag>(dim, z, load, out_re, out_im);
        break;
      default:
        laneSweep<4, kWantImag>(dim, z, load, out_re, out_im);
        break;
    }
}

/** laneSweepChunk without inner parallelism (one chunk = one thread's
 *  work item in the bucket-sharded batch path). */
template <bool kWantImag, class LoadFn>
void
laneSweepChunkSerial(size_t dim, size_t lanes, const uint64_t *z,
                     LoadFn &&load, double *out_re, double *out_im)
{
    switch (lanes) {
      case 1:
        laneSweepSerial<1, kWantImag>(dim, z, load, out_re, out_im);
        break;
      case 2:
        laneSweepSerial<2, kWantImag>(dim, z, load, out_re, out_im);
        break;
      default:
        laneSweepSerial<4, kWantImag>(dim, z, load, out_re, out_im);
        break;
    }
}

/** Bucket-sharding override: -1 auto (grain heuristic), 0 force the
 *  amplitude-parallel path, 1 force bucket shards. Exposed so benches
 *  and determinism tests can pin either path; production code leaves
 *  it at auto. */
inline std::atomic<int> g_bucket_shard_mode{-1};

inline void
setBucketShardMode(int mode)
{
    g_bucket_shard_mode.store(mode, std::memory_order_relaxed);
}

/**
 * Shard an expectationBatch across its X-mask chunks (bucket-level
 * parallelism) rather than across amplitudes?
 *
 * Chunks are independent work units writing disjoint outputs, and each
 * runs the serial sweep core — so sharding is deterministic and
 * fork-free per chunk. It wins when there are enough chunks to fill
 * the threads; with few chunks over a huge register, amplitude-level
 * parallelism inside each traversal wins instead. Small problems
 * (total work under the grain) stay serial either way, so tiny
 * Hamiltonians don't pay the fork.
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
    // Enough chunks to occupy the team; otherwise the inner amplitude
    // loop is the better axis (it subdivides a single huge traversal).
    return n_chunks >= threads;
#else
    (void)n_chunks;
    (void)dim;
    return false;
#endif
}

/**
 * The statevector's expectationBatch driver. Buckets the
 * Hamiltonian's terms by X-mask, flattens the buckets into <=4-lane
 * chunks (independent traversals writing disjoint out[] slots), and
 * dispatches each chunk through the lane sweep — bucket-sharded across
 * threads when shouldShardBuckets says so, amplitude-parallel
 * otherwise. The chunk plan itself is memoized per Hamiltonian content
 * hash (sweepChunkPlan).
 *
 * @p diag_load  (uint64_t i) -> complex weight of basis state i for
 *               X-mask-0 (diagonal) groups; only the real part is used.
 * @p band_load  (uint64_t xm) -> a per-amplitude loader
 *               (uint64_t i) -> complex for the off-diagonal band xm.
 * @p simd_chunk (uint64_t xm, size_t lanes, const uint64_t *z,
 *               bool parallel, double *out_re, double *out_im) -> bool;
 *               a backend's vectorized sweep over one chunk. Returning
 *               false falls back to the scalar lane sweep. The SIMD
 *               sweep uses a fixed slice partition so its reduction
 *               order is stable across thread counts and shard modes
 *               (parity with the scalar reference is a tested <=1e-12
 *               contract, see simd.hpp).
 */
template <class DiagLoad, class BandLoadFactory, class SimdChunk>
std::vector<double>
expectationBatchSweep(const Hamiltonian &h, size_t dim,
                      DiagLoad &&diag_load, BandLoadFactory &&band_load,
                      SimdChunk &&simd_chunk)
{
    const auto &terms = h.terms();
    std::vector<double> out(terms.size(), 0.0);
    const auto plan = sweepChunkPlan(h);
    const auto &chunks = *plan;

    const bool shard = shouldShardBuckets(chunks.size(), dim);
    auto sweep_chunk = [&](const SweepChunk &c, bool serial) {
        double res_re[4] = {};
        double res_im[4] = {};
        if (simd_chunk(c.xm, c.lanes, c.z, !serial, res_re, res_im)) {
            // vectorized path wrote the chunk's sums
        } else if (c.xm == 0) {
            if (serial)
                laneSweepChunkSerial<false>(dim, c.lanes, c.z, diag_load,
                                            res_re, res_im);
            else
                laneSweepChunk<false>(dim, c.lanes, c.z, diag_load,
                                      res_re, res_im);
        } else {
            auto load = band_load(c.xm);
            if (serial)
                laneSweepChunkSerial<true>(dim, c.lanes, c.z, load,
                                           res_re, res_im);
            else
                laneSweepChunk<true>(dim, c.lanes, c.z, load, res_re,
                                     res_im);
        }
        for (size_t k = 0; k < c.lanes; ++k) {
            const size_t t = c.term[k];
            out[t] = (terms[t].op.phase() *
                      std::complex<double>{res_re[k], res_im[k]})
                         .real();
        }
    };

    if (shard) {
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
        for (int64_t ci = 0; ci < static_cast<int64_t>(chunks.size());
             ++ci)
            sweep_chunk(chunks[static_cast<size_t>(ci)], true);
    } else {
        for (const SweepChunk &c : chunks)
            sweep_chunk(c, false);
    }
    return out;
}

} // namespace detail
} // namespace eftvqa

#endif // EFTVQA_SIM_LANE_SWEEP_HPP
