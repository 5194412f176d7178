/**
 * @file
 * Fixed-width SIMD lane layer for the dense simulators.
 *
 * A thin abstraction over interleaved complex<double> amplitudes (and
 * real doubles for the density matrix's Pauli coefficients):
 * AVX2 (2 complex lanes) or AVX-512 (4 complex lanes) intrinsics when
 * the CMake option EFTVQA_SIMD selects them, a std::experimental::simd
 * portable path otherwise, and a scalar build when vector lanes are
 * off. The ISA is chosen at compile time; a runtime CPUID sanity check
 * (__builtin_cpu_supports) keeps the vector kernels unreachable on
 * hosts that compiled for an ISA they don't have, so the scalar
 * fallbacks in the simulators always remain valid.
 *
 * Determinism contract
 * --------------------
 * Every elementwise kernel here (1q/2q unitaries, diagonal phase
 * sweeps, xor-mask permutations, the density matrix's Quad and Pair
 * passes) performs per-element arithmetic in exactly the scalar operation
 * order — complex multiplies are expanded to the same
 * (ar*br - ai*bi, ar*bi + ai*br) form std::complex uses, sums keep the
 * scalar association, and no FMA contraction is emitted (the kernels
 * use explicit mul/add intrinsics) — so the vector run() path is
 * bit-identical to the scalar one. The expectation sweep is the one
 * exception: it accumulates into per-lane vector accumulators and
 * reduces them in a fixed order at the end, which reorders the sum
 * relative to the scalar laneSweepSerial, so the two are held to a
 * tested <= 1e-12 parity contract. Every statevector Pauli query runs
 * through sweepChunkSv: a fixed 8-slice partition whose partials merge
 * in slice order, so on each ISA (and with vector lanes pinned off)
 * every term gets the same bits at any OpenMP team size and shard
 * axis, single terms included.
 *
 * Mode pinning: setSimdMode(0) forces the scalar paths (benches and
 * parity tests), setSimdMode(-1) restores the default auto dispatch.
 */

#ifndef EFTVQA_SIM_SIMD_HPP
#define EFTVQA_SIM_SIMD_HPP

#include <algorithm>
#include <atomic>
#include <bit>
#include <complex>
#include <cstdint>
#include <cstddef>
#include <new>
#include <vector>

#include "sim/channels.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#if defined(EFTVQA_SIMD_ISA_AVX512) || defined(EFTVQA_SIMD_ISA_AVX2)
#include <immintrin.h>
#define EFTVQA_SIMD_VECTOR 1
#elif defined(EFTVQA_SIMD_ISA_GENERIC) && __has_include(<experimental/simd>)
#include <experimental/simd>
#define EFTVQA_SIMD_VECTOR 1
#define EFTVQA_SIMD_GENERIC_ACTIVE 1
#endif

#if defined(EFTVQA_SIMD_ISA_AVX512)
#define EFTVQA_SIMD_TARGET __attribute__((target("avx512f,avx512dq")))
#elif defined(EFTVQA_SIMD_ISA_AVX2)
#define EFTVQA_SIMD_TARGET __attribute__((target("avx2")))
#else
#define EFTVQA_SIMD_TARGET
#endif

namespace eftvqa {
namespace simd {

using cd = std::complex<double>;

#if defined(EFTVQA_SIMD_ISA_AVX512)
inline constexpr size_t kLanes = 4; ///< complex<double> per vector
inline constexpr const char *kCompiledIsa = "avx512";
#elif defined(EFTVQA_SIMD_ISA_AVX2)
inline constexpr size_t kLanes = 2;
inline constexpr const char *kCompiledIsa = "avx2";
#elif defined(EFTVQA_SIMD_GENERIC_ACTIVE)
inline constexpr size_t kLanes = 2;
inline constexpr const char *kCompiledIsa = "generic";
#else
inline constexpr size_t kLanes = 1;
inline constexpr const char *kCompiledIsa = "scalar";
#endif

/** Fork threshold in amplitudes (loop iterations) below which every
 *  OpenMP loop of the dense simulators stays serial. */
inline constexpr size_t kParallelGrainAmps = size_t{1} << 14;

/** Runtime sanity check: does this host implement the compiled ISA?
 *  Vector kernels are never entered when it fails, so a binary built
 *  with EFTVQA_SIMD=avx512 still runs (scalar) on an AVX2-only box. */
inline bool
runtimeSupported()
{
#if defined(EFTVQA_SIMD_ISA_AVX512)
    static const bool ok = __builtin_cpu_supports("avx512f") &&
                           __builtin_cpu_supports("avx512dq");
    return ok;
#elif defined(EFTVQA_SIMD_ISA_AVX2)
    static const bool ok = __builtin_cpu_supports("avx2");
    return ok;
#elif defined(EFTVQA_SIMD_GENERIC_ACTIVE)
    return true;
#else
    return false;
#endif
}

/** SIMD dispatch override: -1 auto (vector kernels when compiled in
 *  and the host supports them), 0 force the scalar paths. Exposed so
 *  benches and parity tests can pin either side; production code
 *  leaves it at auto. */
inline std::atomic<int> g_simd_mode{-1};

inline void
setSimdMode(int mode)
{
    g_simd_mode.store(mode, std::memory_order_relaxed);
}

inline int
simdMode()
{
    return g_simd_mode.load(std::memory_order_relaxed);
}

/** Will the vector kernels actually be used right now? */
inline bool
enabled()
{
    return kLanes > 1 &&
           g_simd_mode.load(std::memory_order_relaxed) != 0 &&
           runtimeSupported();
}

/** ISA the active kernels run ("scalar" when dispatch is pinned off
 *  or the host lacks the compiled ISA). */
inline const char *
activeIsa()
{
    return enabled() ? kCompiledIsa : "scalar";
}

/** FNV-1a tag of the ACTIVE kernel ISA, folded into compile-memo keys
 *  so a cache can't serve ops compiled for another execution target —
 *  including across runtime setSimdMode toggles within one process. */
inline uint64_t
kernelIsaTag()
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (const char *s = activeIsa(); *s; ++s) {
        h ^= static_cast<unsigned char>(*s);
        h *= 0x100000001B3ull;
    }
    return h;
}

/**
 * 64-byte-aligned allocator for the amplitude buffers: cacheline- and
 * vector-register-aligned loads for every block base the kernels see.
 * (The kernels themselves use unaligned load/store instructions, which
 * cost nothing on aligned addresses, so views at odd offsets — e.g.
 * density-matrix rows with dim < kLanes — stay correct.)
 */
template <class T>
struct AlignedAllocator
{
    using value_type = T;
    static constexpr std::size_t kAlign = 64;

    AlignedAllocator() noexcept = default;
    template <class U>
    AlignedAllocator(const AlignedAllocator<U> &) noexcept
    {
    }

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t{kAlign}));
    }
    void deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t{kAlign});
    }

    template <class U>
    struct rebind
    {
        using other = AlignedAllocator<U>;
    };
    friend bool operator==(const AlignedAllocator &,
                           const AlignedAllocator &) noexcept
    {
        return true;
    }
    friend bool operator!=(const AlignedAllocator &,
                           const AlignedAllocator &) noexcept
    {
        return false;
    }
};

/** Amplitude storage of the dense simulators. */
using AmpVector = std::vector<cd, AlignedAllocator<cd>>;

namespace detail {

/** Insert a zero bit at position p (bits at and above p shift up). */
inline uint64_t
insertZeroBit(uint64_t x, uint64_t p)
{
    const uint64_t low = (uint64_t{1} << p) - 1;
    return ((x & ~low) << 1) | (x & low);
}

/**
 * Split @p n_chunks of vector work into contiguous slices and run
 * fn(chunk_begin, chunk_end) per slice, OpenMP-parallel when asked and
 * the total amplitude count (@p amps_per_chunk per chunk) clears the
 * fork grain. Chunks are whole vector registers, so slice boundaries
 * are always lane-aligned.
 */
template <class Fn>
inline void
forSlices(size_t n_chunks, bool parallel, Fn &&fn,
          size_t amps_per_chunk = kLanes)
{
#ifdef _OPENMP
    if (parallel && n_chunks * amps_per_chunk >= kParallelGrainAmps &&
        omp_get_max_threads() > 1) {
        const size_t nslices = std::min<size_t>(
            static_cast<size_t>(omp_get_max_threads()) * 4, n_chunks);
#pragma omp parallel for schedule(static)
        for (int64_t s = 0; s < static_cast<int64_t>(nslices); ++s) {
            const auto u = static_cast<size_t>(s);
            fn(n_chunks * u / nslices, n_chunks * (u + 1) / nslices);
        }
        return;
    }
#else
    (void)parallel;
    (void)amps_per_chunk;
#endif
    fn(0, n_chunks);
}

#if defined(EFTVQA_SIMD_VECTOR)

// ---------------------------------------------------------------- //
// Per-ISA primitives. One complex lane = (real, imag) adjacent      //
// doubles; CVec holds kLanes complex values. Complex multiply is    //
// expanded to the exact scalar form, so every elementwise kernel    //
// built on these primitives is bit-identical to its scalar loop.    //
// ---------------------------------------------------------------- //

#if defined(EFTVQA_SIMD_ISA_AVX512)

using CVec = __m512d;
using SignVec = __m512d; ///< +-0.0 per double slot, applied by xor

EFTVQA_SIMD_TARGET inline CVec
vload(const cd *p)
{
    return _mm512_loadu_pd(reinterpret_cast<const double *>(p));
}
EFTVQA_SIMD_TARGET inline void
vstore(cd *p, CVec v)
{
    _mm512_storeu_pd(reinterpret_cast<double *>(p), v);
}
EFTVQA_SIMD_TARGET inline CVec
vzero()
{
    return _mm512_setzero_pd();
}
EFTVQA_SIMD_TARGET inline CVec
vadd(CVec a, CVec b)
{
    return _mm512_add_pd(a, b);
}
EFTVQA_SIMD_TARGET inline CVec
vbroadcast(cd c)
{
    return _mm512_set_pd(c.imag(), c.real(), c.imag(), c.real(),
                         c.imag(), c.real(), c.imag(), c.real());
}
/** [x, y, x, y] over complex lanes (column pair of a 2x2 matrix). */
EFTVQA_SIMD_TARGET inline CVec
vsetPattern2(cd x, cd y)
{
    return _mm512_set_pd(y.imag(), y.real(), x.imag(), x.real(),
                         y.imag(), y.real(), x.imag(), x.real());
}
/** Optimization barrier: avx512f implies FMA in GCC's ISA closure and
 *  the mul/add intrinsics are generic vector arithmetic there, so
 *  without this the compiler contracts mul-feeding-add into vfmadd
 *  and breaks bit-identity with the scalar expansion. */
EFTVQA_SIMD_TARGET inline void
vopaque(CVec &v)
{
    asm("" : "+v"(v));
}
EFTVQA_SIMD_TARGET inline CVec
vcmul(CVec a, CVec b)
{
    // (ar*br - ai*bi, ar*bi + ai*br): mul/mul, negate the even slots
    // of the second product, add. a-b == a+(-b) exactly in IEEE-754,
    // so this matches _mm256_addsub_pd and the scalar expansion.
    CVec t0 = _mm512_mul_pd(_mm512_movedup_pd(a), b);
    vopaque(t0);
    const CVec t1 = _mm512_mul_pd(_mm512_permute_pd(a, 0xFF),
                                  _mm512_permute_pd(b, 0x55));
    const CVec neg_even = _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0,
                                        -0.0, 0.0, -0.0);
    return _mm512_add_pd(t0, _mm512_xor_pd(t1, neg_even));
}
EFTVQA_SIMD_TARGET inline CVec
vconj(CVec v)
{
    return _mm512_xor_pd(v, _mm512_set_pd(-0.0, 0.0, -0.0, 0.0, -0.0,
                                          0.0, -0.0, 0.0));
}
EFTVQA_SIMD_TARGET inline CVec
vscale(CVec v, double s)
{
    return _mm512_mul_pd(v, _mm512_set1_pd(s));
}
/** Per complex lane j: re_j^2 + im_j^2 in both slots of lane j. */
EFTVQA_SIMD_TARGET inline CVec
vnormPairs(CVec v)
{
    CVec sq = _mm512_mul_pd(v, v);
    vopaque(sq);
    return _mm512_add_pd(sq, _mm512_permute_pd(sq, 0x55));
}
/** Complex lane j <- lane (j ^ lo), lo in [0, kLanes). */
EFTVQA_SIMD_TARGET inline CVec
vlanePermuteXor(CVec v, unsigned lo)
{
    const long long l = static_cast<long long>(lo) * 2;
    const __m512i idx = _mm512_set_epi64(
        (6 ^ l) + 1, 6 ^ l, (4 ^ l) + 1, 4 ^ l, (2 ^ l) + 1, 2 ^ l,
        (0 ^ l) + 1, 0 ^ l);
    return _mm512_permutexvar_pd(idx, v);
}
/** Duplicate each even complex lane over its pair: [a,a,c,c]. */
EFTVQA_SIMD_TARGET inline CVec
vdupPairsEven(CVec v)
{
    const __m512i idx = _mm512_set_epi64(5, 4, 5, 4, 1, 0, 1, 0);
    return _mm512_permutexvar_pd(idx, v);
}
/** Duplicate each odd complex lane over its pair: [b,b,d,d]. */
EFTVQA_SIMD_TARGET inline CVec
vdupPairsOdd(CVec v)
{
    const __m512i idx = _mm512_set_epi64(7, 6, 7, 6, 3, 2, 3, 2);
    return _mm512_permutexvar_pd(idx, v);
}
EFTVQA_SIMD_TARGET inline SignVec
signsNone()
{
    return _mm512_setzero_pd();
}
EFTVQA_SIMD_TARGET inline SignVec
signsAll()
{
    return _mm512_set1_pd(-0.0);
}
/** Sign pattern for lane-local Z-mask parity: lane j flips when
 *  popcount(j & z) is odd. */
EFTVQA_SIMD_TARGET inline SignVec
signsForMask(uint64_t z)
{
    double s[2 * kLanes];
    for (size_t j = 0; j < kLanes; ++j) {
        const double f = (std::popcount(j & z) & 1) ? -0.0 : 0.0;
        s[2 * j] = f;
        s[2 * j + 1] = f;
    }
    return _mm512_loadu_pd(s);
}
EFTVQA_SIMD_TARGET inline SignVec
signsXor(SignVec a, SignVec b)
{
    return _mm512_xor_pd(a, b);
}
EFTVQA_SIMD_TARGET inline CVec
vsignApply(CVec v, SignVec s)
{
    return _mm512_xor_pd(v, s);
}

#elif defined(EFTVQA_SIMD_ISA_AVX2)

using CVec = __m256d;
using SignVec = __m256d;

EFTVQA_SIMD_TARGET inline CVec
vload(const cd *p)
{
    return _mm256_loadu_pd(reinterpret_cast<const double *>(p));
}
EFTVQA_SIMD_TARGET inline void
vstore(cd *p, CVec v)
{
    _mm256_storeu_pd(reinterpret_cast<double *>(p), v);
}
EFTVQA_SIMD_TARGET inline CVec
vzero()
{
    return _mm256_setzero_pd();
}
EFTVQA_SIMD_TARGET inline CVec
vadd(CVec a, CVec b)
{
    return _mm256_add_pd(a, b);
}
EFTVQA_SIMD_TARGET inline CVec
vbroadcast(cd c)
{
    return _mm256_setr_pd(c.real(), c.imag(), c.real(), c.imag());
}
EFTVQA_SIMD_TARGET inline CVec
vsetPattern2(cd x, cd y)
{
    return _mm256_setr_pd(x.real(), x.imag(), y.real(), y.imag());
}
/** No-op: the avx2 target has no FMA to contract into. */
EFTVQA_SIMD_TARGET inline void
vopaque(CVec &)
{
}
EFTVQA_SIMD_TARGET inline CVec
vcmul(CVec a, CVec b)
{
    // (ar*br - ai*bi, ar*bi + ai*br), the scalar std::complex form.
    const CVec t0 = _mm256_mul_pd(_mm256_movedup_pd(a), b);
    const CVec t1 = _mm256_mul_pd(_mm256_permute_pd(a, 0xF),
                                  _mm256_permute_pd(b, 0x5));
    return _mm256_addsub_pd(t0, t1);
}
EFTVQA_SIMD_TARGET inline CVec
vconj(CVec v)
{
    return _mm256_xor_pd(v, _mm256_setr_pd(0.0, -0.0, 0.0, -0.0));
}
EFTVQA_SIMD_TARGET inline CVec
vscale(CVec v, double s)
{
    return _mm256_mul_pd(v, _mm256_set1_pd(s));
}
EFTVQA_SIMD_TARGET inline CVec
vnormPairs(CVec v)
{
    const CVec sq = _mm256_mul_pd(v, v);
    return _mm256_add_pd(sq, _mm256_permute_pd(sq, 0x5));
}
EFTVQA_SIMD_TARGET inline CVec
vlanePermuteXor(CVec v, unsigned lo)
{
    return lo ? _mm256_permute2f128_pd(v, v, 1) : v;
}
EFTVQA_SIMD_TARGET inline CVec
vdupPairsEven(CVec v)
{
    return _mm256_permute2f128_pd(v, v, 0x00);
}
EFTVQA_SIMD_TARGET inline CVec
vdupPairsOdd(CVec v)
{
    return _mm256_permute2f128_pd(v, v, 0x11);
}
EFTVQA_SIMD_TARGET inline SignVec
signsNone()
{
    return _mm256_setzero_pd();
}
EFTVQA_SIMD_TARGET inline SignVec
signsAll()
{
    return _mm256_set1_pd(-0.0);
}
EFTVQA_SIMD_TARGET inline SignVec
signsForMask(uint64_t z)
{
    double s[2 * kLanes];
    for (size_t j = 0; j < kLanes; ++j) {
        const double f = (std::popcount(j & z) & 1) ? -0.0 : 0.0;
        s[2 * j] = f;
        s[2 * j + 1] = f;
    }
    return _mm256_loadu_pd(s);
}
EFTVQA_SIMD_TARGET inline SignVec
signsXor(SignVec a, SignVec b)
{
    return _mm256_xor_pd(a, b);
}
EFTVQA_SIMD_TARGET inline CVec
vsignApply(CVec v, SignVec s)
{
    return _mm256_xor_pd(v, s);
}

#else // EFTVQA_SIMD_GENERIC_ACTIVE

namespace stdx = std::experimental;
using dvec = stdx::fixed_size_simd<double, int(kLanes)>;

/** Portable lane pack: split real/imag planes so the complex multiply
 *  is elementwise (std::experimental::simd has no pair shuffles). */
struct CVec
{
    dvec re, im;
};
using SignVec = dvec; ///< +-1.0 factors (exact sign application)

inline CVec
vload(const cd *p)
{
    CVec v;
    for (size_t j = 0; j < kLanes; ++j) {
        v.re[int(j)] = p[j].real();
        v.im[int(j)] = p[j].imag();
    }
    return v;
}
inline void
vstore(cd *p, CVec v)
{
    for (size_t j = 0; j < kLanes; ++j)
        p[j] = cd{v.re[int(j)], v.im[int(j)]};
}
inline CVec
vzero()
{
    return {dvec(0.0), dvec(0.0)};
}
inline CVec
vadd(CVec a, CVec b)
{
    return {a.re + b.re, a.im + b.im};
}
inline CVec
vbroadcast(cd c)
{
    return {dvec(c.real()), dvec(c.imag())};
}
inline CVec
vsetPattern2(cd x, cd y)
{
    CVec v;
    for (size_t j = 0; j < kLanes; ++j) {
        const cd &c = (j & 1) ? y : x;
        v.re[int(j)] = c.real();
        v.im[int(j)] = c.imag();
    }
    return v;
}
/** No-op: the portable tier compiles without FMA. */
inline void
vopaque(CVec &)
{
}
inline CVec
vcmul(CVec a, CVec b)
{
    return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}
inline CVec
vconj(CVec v)
{
    return {v.re, -v.im};
}
inline CVec
vscale(CVec v, double s)
{
    return {v.re * s, v.im * s};
}
inline CVec
vnormPairs(CVec v)
{
    return {v.re * v.re + v.im * v.im, dvec(0.0)};
}
inline CVec
vlanePermuteXor(CVec v, unsigned lo)
{
    CVec out;
    for (size_t j = 0; j < kLanes; ++j) {
        out.re[int(j)] = v.re[int(j ^ lo)];
        out.im[int(j)] = v.im[int(j ^ lo)];
    }
    return out;
}
inline CVec
vdupPairsEven(CVec v)
{
    CVec out;
    for (size_t j = 0; j < kLanes; ++j) {
        out.re[int(j)] = v.re[int(j & ~size_t{1})];
        out.im[int(j)] = v.im[int(j & ~size_t{1})];
    }
    return out;
}
inline CVec
vdupPairsOdd(CVec v)
{
    CVec out;
    for (size_t j = 0; j < kLanes; ++j) {
        out.re[int(j)] = v.re[int(j | 1)];
        out.im[int(j)] = v.im[int(j | 1)];
    }
    return out;
}
inline SignVec
signsNone()
{
    return dvec(1.0);
}
inline SignVec
signsAll()
{
    return dvec(-1.0);
}
inline SignVec
signsForMask(uint64_t z)
{
    SignVec s;
    for (size_t j = 0; j < kLanes; ++j)
        s[int(j)] = (std::popcount(j & z) & 1) ? -1.0 : 1.0;
    return s;
}
inline SignVec
signsXor(SignVec a, SignVec b)
{
    return a * b;
}
inline CVec
vsignApply(CVec v, SignVec s)
{
    return {v.re * s, v.im * s};
}

#endif // per-ISA primitives

/** Round-trip helper for lane extraction in the fixed-order sweep
 *  reduction. */
EFTVQA_SIMD_TARGET inline void
vtoArray(CVec v, cd *out)
{
    vstore(out, v);
}
EFTVQA_SIMD_TARGET inline CVec
vfromArray(const cd *in)
{
    return vload(in);
}

// ---------------------------------------------------------------- //
// Kernels, written once against the primitives. Each takes a chunk  //
// (vector-register) index range so the try* wrappers can slice the  //
// work across OpenMP threads without pragmas inside target-attri-   //
// buted functions.                                                  //
// ---------------------------------------------------------------- //

/** 2x2 unitary on pair stride >= kLanes: pair index t in chunks. */
EFTVQA_SIMD_TARGET inline void
kernApply1q(cd *data, size_t c0, size_t c1, size_t stride, const Mat2 &u)
{
    const CVec u0 = vbroadcast(u[0]), u1 = vbroadcast(u[1]);
    const CVec u2 = vbroadcast(u[2]), u3 = vbroadcast(u[3]);
    for (size_t c = c0; c < c1; ++c) {
        const size_t t = c * kLanes;
        const size_t i0 = ((t & ~(stride - 1)) << 1) | (t & (stride - 1));
        const CVec a = vload(data + i0);
        const CVec b = vload(data + i0 + stride);
        vstore(data + i0, vadd(vcmul(u0, a), vcmul(u1, b)));
        vstore(data + i0 + stride, vadd(vcmul(u2, a), vcmul(u3, b)));
    }
}

/** 2x2 unitary on stride-1 pairs: each vector holds kLanes/2 whole
 *  (i0, i1) pairs, resolved by in-register pair duplication. */
EFTVQA_SIMD_TARGET inline void
kernApply1qStride1(cd *data, size_t c0, size_t c1, const Mat2 &u)
{
    const CVec uc0 = vsetPattern2(u[0], u[2]);
    const CVec uc1 = vsetPattern2(u[1], u[3]);
    for (size_t c = c0; c < c1; ++c) {
        const CVec v = vload(data + c * kLanes);
        vstore(data + c * kLanes, vadd(vcmul(uc0, vdupPairsEven(v)),
                                       vcmul(uc1, vdupPairsOdd(v))));
    }
}

/** Fused 4x4 unitary, both strides >= kLanes: quarter index t in
 *  chunks. */
EFTVQA_SIMD_TARGET inline void
kernApply2q(cd *data, size_t c0, size_t c1, uint64_t plow,
            uint64_t phigh, uint64_t ma, uint64_t mb, const Mat4 &u)
{
    CVec uv[16];
    for (int k = 0; k < 16; ++k)
        uv[k] = vbroadcast(u[k]);
    for (size_t c = c0; c < c1; ++c) {
        const uint64_t t = c * kLanes;
        const uint64_t i00 = insertZeroBit(insertZeroBit(t, plow), phigh);
        const uint64_t i01 = i00 | mb;
        const uint64_t i10 = i00 | ma;
        const uint64_t i11 = i00 | ma | mb;
        const CVec v0 = vload(data + i00);
        const CVec v1 = vload(data + i01);
        const CVec v2 = vload(data + i10);
        const CVec v3 = vload(data + i11);
        vstore(data + i00,
               vadd(vadd(vadd(vcmul(uv[0], v0), vcmul(uv[1], v1)),
                         vcmul(uv[2], v2)),
                    vcmul(uv[3], v3)));
        vstore(data + i01,
               vadd(vadd(vadd(vcmul(uv[4], v0), vcmul(uv[5], v1)),
                         vcmul(uv[6], v2)),
                    vcmul(uv[7], v3)));
        vstore(data + i10,
               vadd(vadd(vadd(vcmul(uv[8], v0), vcmul(uv[9], v1)),
                         vcmul(uv[10], v2)),
                    vcmul(uv[11], v3)));
        vstore(data + i11,
               vadd(vadd(vadd(vcmul(uv[12], v0), vcmul(uv[13], v1)),
                         vcmul(uv[14], v2)),
                    vcmul(uv[15], v3)));
    }
}

/** Rows (2 rh, 2 rh + 1) of @p u as lane patterns over the pair
 *  layout [x(low bit 0), x(low bit 1)]: p[c] = [u[8 rh + c],
 *  u[8 rh + 4 + c]]. */
EFTVQA_SIMD_TARGET inline void
rowPairPatterns(const Mat4 &u, CVec *p)
{
    for (int rh = 0; rh < 2; ++rh)
        for (int c = 0; c < 4; ++c)
            p[4 * rh + c] = vsetPattern2(u[8 * rh + c], u[8 * rh + 4 + c]);
}

/** 4x4 on a quad held as A = [x0, x1], B = [x2, x3] (the low basis
 *  bit in the lane pair), in the scalar row order x0, x1, x2, x3. */
EFTVQA_SIMD_TARGET inline void
kernPairQuad(CVec &a, CVec &b, const CVec *p)
{
    const CVec a0 = vdupPairsEven(a), a1 = vdupPairsOdd(a);
    const CVec b0 = vdupPairsEven(b), b1 = vdupPairsOdd(b);
    a = vadd(vadd(vadd(vcmul(p[0], a0), vcmul(p[1], a1)), vcmul(p[2], b0)),
             vcmul(p[3], b1));
    b = vadd(vadd(vadd(vcmul(p[4], a0), vcmul(p[5], a1)), vcmul(p[6], b0)),
             vcmul(p[7], b1));
}

/** Fused 4x4 with the low basis bit at position 0 and the high one at
 *  pa >= log2(kLanes): each vector holds kLanes/2 whole (i00, i01)
 *  pairs, resolved by in-register pair duplication. */
EFTVQA_SIMD_TARGET inline void
kernApply2qBit0(cd *data, size_t c0, size_t c1, uint64_t pa, const Mat4 &u)
{
    CVec p[8];
    rowPairPatterns(u, p);
    const uint64_t ma = uint64_t{1} << pa;
    for (size_t c = c0; c < c1; ++c) {
        cd *lo = data + insertZeroBit(c * kLanes, pa);
        CVec a = vload(lo), b = vload(lo + ma);
        kernPairQuad(a, b, p);
        vstore(lo, a);
        vstore(lo + ma, b);
    }
}

/** Contiguous-mask diagonal table multiply; @p base is the absolute
 *  index of data[0] (block offset under blocked execution). */
EFTVQA_SIMD_TARGET inline void
kernDiagMask(cd *data, size_t c0, size_t c1, uint64_t base,
             const cd *table, uint64_t mask)
{
    for (size_t c = c0; c < c1; ++c) {
        const size_t i = c * kLanes;
        const CVec t = vload(table + ((base + i) & mask));
        vstore(data + i, vcmul(vload(data + i), t));
    }
}

/** Scattered-qubit diagonal table multiply: scalar index gather into
 *  a lane buffer, vector complex multiply. */
EFTVQA_SIMD_TARGET inline void
kernDiagGather(cd *data, size_t c0, size_t c1, uint64_t base,
               const cd *table, const uint32_t *qs, size_t nq)
{
    cd buf[kLanes];
    for (size_t c = c0; c < c1; ++c) {
        const size_t i = c * kLanes;
        for (size_t l = 0; l < kLanes; ++l) {
            const uint64_t a = base + i + l;
            uint64_t idx = 0;
            for (size_t j = 0; j < nq; ++j)
                idx |= ((a >> qs[j]) & 1) << j;
            buf[l] = table[idx];
        }
        vstore(data + i, vcmul(vload(data + i), vfromArray(buf)));
    }
}

/** Xor-mask permutation with f < kLanes: every chunk self-permutes. */
EFTVQA_SIMD_TARGET inline void
kernXorMaskSelf(cd *data, size_t c0, size_t c1, unsigned f_lo)
{
    for (size_t c = c0; c < c1; ++c)
        vstore(data + c * kLanes,
               vlanePermuteXor(vload(data + c * kLanes), f_lo));
}

/** Xor-mask permutation with high bits: swap chunk pairs, permuting
 *  lanes by the low bits. Visits each pair from its lower chunk, so
 *  parallel slices never write into one another's pairs. */
EFTVQA_SIMD_TARGET inline void
kernXorMaskPairs(cd *data, size_t c0, size_t c1, uint64_t f_hi,
                 unsigned f_lo)
{
    for (size_t c = c0; c < c1; ++c) {
        const uint64_t i = c * kLanes;
        const uint64_t j = i ^ f_hi;
        if (i >= j)
            continue;
        const CVec a = vload(data + i);
        const CVec b = vload(data + j);
        vstore(data + i, vlanePermuteXor(b, f_lo));
        vstore(data + j, vlanePermuteXor(a, f_lo));
    }
}

/** Real scale of a contiguous run of whole chunks (channel damping
 *  factors). Tails stay in the non-target wrapper: scalar FP inside a
 *  target function could FMA-contract and break bit-identity. */
EFTVQA_SIMD_TARGET inline void
kernScaleRun(cd *p, size_t n_chunks, double s)
{
    for (size_t c = 0; c < n_chunks; ++c)
        vstore(p + c * kLanes, vscale(vload(p + c * kLanes), s));
}

// ------------------------- sweep kernels ------------------------- //
// Mask-parity sign-flip vectors instead of the scalar sweep's per-  //
// amplitude popcount branch: per term, the within-chunk sign        //
// pattern is precomputed (lane j flips on parity(j & z)), and per   //
// chunk one scalar popcount of the lane-aligned base index selects  //
// pattern or flipped pattern. Accumulation is per-lane vectors      //
// reduced in fixed lane order at the end (the <= 1e-12 contract).   //

struct SweepAcc
{
    CVec acc[4];
    SignVec pat[4];
    SignVec flip[4];
    size_t lanes;

    EFTVQA_SIMD_TARGET void init(size_t nl, const uint64_t *z)
    {
        lanes = nl;
        for (size_t k = 0; k < lanes; ++k) {
            acc[k] = vzero();
            pat[k] = signsForMask(z[k]);
            flip[k] = signsXor(pat[k], signsAll());
        }
    }
    EFTVQA_SIMD_TARGET void accumulate(uint64_t i, const uint64_t *z,
                                       CVec val)
    {
        for (size_t k = 0; k < lanes; ++k) {
            const bool neg = std::popcount(i & z[k]) & 1;
            acc[k] = vadd(acc[k], vsignApply(val, neg ? flip[k]
                                                      : pat[k]));
        }
    }
    /** Fixed-order (ascending lane) reduction into complex sums. */
    EFTVQA_SIMD_TARGET void reduce(cd *out) const
    {
        alignas(64) cd tmp[kLanes];
        for (size_t k = 0; k < lanes; ++k) {
            vtoArray(acc[k], tmp);
            double re = tmp[0].real();
            double im = tmp[0].imag();
            for (size_t j = 1; j < kLanes; ++j) {
                re += tmp[j].real();
                im += tmp[j].imag();
            }
            out[k] = cd{re, im};
        }
    }
};

/** Statevector diagonal bucket: sum_i (+-) |a_i|^2. */
EFTVQA_SIMD_TARGET inline void
kernSweepSvDiag(const cd *data, uint64_t start, size_t len,
                size_t lanes, const uint64_t *z, cd *out)
{
    SweepAcc s;
    s.init(lanes, z);
    for (uint64_t i = start; i < start + len; i += kLanes)
        s.accumulate(i, z, vnormPairs(vload(data + i)));
    s.reduce(out);
}

/** Statevector off-diagonal band: sum_i (+-) conj(a_{i^xm}) a_i. */
EFTVQA_SIMD_TARGET inline void
kernSweepSvBand(const cd *data, uint64_t start, size_t len, uint64_t xm,
                size_t lanes, const uint64_t *z, cd *out)
{
    const uint64_t xm_hi = xm & ~uint64_t{kLanes - 1};
    const auto xm_lo = static_cast<unsigned>(xm & (kLanes - 1));
    SweepAcc s;
    s.init(lanes, z);
    for (uint64_t i = start; i < start + len; i += kLanes) {
        const CVec v = vload(data + i);
        CVec pv = vload(data + (i ^ xm_hi));
        if (xm_lo)
            pv = vlanePermuteXor(pv, xm_lo);
        s.accumulate(i, z, vcmul(vconj(pv), v));
    }
    s.reduce(out);
}

#endif // EFTVQA_SIMD_VECTOR

} // namespace detail

// ---------------------------------------------------------------- //
// Dispatch wrappers. Each returns true when the vector kernel ran   //
// (caller skips its scalar loop) and false when SIMD is compiled    //
// out, pinned off, unsupported at runtime, or the shape is too      //
// small/misaligned for the lane width.                              //
// ---------------------------------------------------------------- //

/** 2x2 unitary over [data, data + span), pair stride 1 << q. */
inline bool
tryApply1q(cd *data, size_t span, size_t stride, const Mat2 &u,
           bool parallel)
{
#if defined(EFTVQA_SIMD_VECTOR)
    if (!enabled() || span < 2 * kLanes)
        return false;
    const size_t pairs = span / 2;
    if (stride >= kLanes) {
        detail::forSlices(pairs / kLanes, parallel,
                          [&](size_t c0, size_t c1) {
                              detail::kernApply1q(data, c0, c1, stride,
                                                  u);
                          });
        return true;
    }
    if (stride == 1) {
        detail::forSlices(span / kLanes, parallel,
                          [&](size_t c0, size_t c1) {
                              detail::kernApply1qStride1(data, c0, c1,
                                                         u);
                          });
        return true;
    }
    return false; // 1 < stride < kLanes: scalar path
#else
    (void)data;
    (void)span;
    (void)stride;
    (void)u;
    (void)parallel;
    return false;
#endif
}

/** Fused 4x4 unitary over [data, data + span) on qubit bits qa, qb
 *  (qa the high bit of the 4x4 basis). */
inline bool
tryApply2q(cd *data, size_t span, size_t qa, size_t qb, const Mat4 &u,
           bool parallel)
{
#if defined(EFTVQA_SIMD_VECTOR)
    const size_t plow = qa < qb ? qa : qb;
    if (enabled() && qb == 0 && (size_t{1} << qa) >= kLanes &&
        span >= 4 * kLanes) {
        detail::forSlices(span / (2 * kLanes), parallel,
                          [&](size_t c0, size_t c1) {
                              detail::kernApply2qBit0(data, c0, c1, qa, u);
                          },
                          2 * kLanes);
        return true;
    }
    if (!enabled() || (size_t{1} << plow) < kLanes || span < 4 * kLanes)
        return false;
    const size_t phigh = qa < qb ? qb : qa;
    const uint64_t ma = uint64_t{1} << qa;
    const uint64_t mb = uint64_t{1} << qb;
    detail::forSlices((span / 4) / kLanes, parallel,
                      [&](size_t c0, size_t c1) {
                          detail::kernApply2q(data, c0, c1, plow, phigh,
                                              ma, mb, u);
                      });
    return true;
#else
    (void)data;
    (void)span;
    (void)qa;
    (void)qb;
    (void)u;
    (void)parallel;
    return false;
#endif
}

/** Contiguous-mask diagonal table multiply over [data, data + span);
 *  @p base is the absolute index of data[0]. */
inline bool
tryDiagMask(cd *data, size_t span, uint64_t base, const cd *table,
            uint64_t mask, bool parallel)
{
#if defined(EFTVQA_SIMD_VECTOR)
    if (!enabled() || span < kLanes || mask + 1 < kLanes)
        return false;
    detail::forSlices(span / kLanes, parallel,
                      [&](size_t c0, size_t c1) {
                          detail::kernDiagMask(data, c0, c1, base,
                                               table, mask);
                      });
    return true;
#else
    (void)data;
    (void)span;
    (void)base;
    (void)table;
    (void)mask;
    (void)parallel;
    return false;
#endif
}

/** Scattered-qubit diagonal table multiply over [data, data + span). */
inline bool
tryDiagGather(cd *data, size_t span, uint64_t base, const cd *table,
              const uint32_t *qs, size_t nq, bool parallel)
{
#if defined(EFTVQA_SIMD_VECTOR)
    if (!enabled() || span < kLanes)
        return false;
    detail::forSlices(span / kLanes, parallel,
                      [&](size_t c0, size_t c1) {
                          detail::kernDiagGather(data, c0, c1, base,
                                                 table, qs, nq);
                      });
    return true;
#else
    (void)data;
    (void)span;
    (void)base;
    (void)table;
    (void)qs;
    (void)nq;
    (void)parallel;
    return false;
#endif
}

/** Xor-mask basis permutation |i> -> |i ^ f> over [data, data+span). */
inline bool
tryXorMask(cd *data, size_t span, uint64_t f, bool parallel)
{
#if defined(EFTVQA_SIMD_VECTOR)
    if (!enabled() || span < kLanes || f == 0 || f >= span)
        return false;
    const uint64_t f_hi = f & ~uint64_t{kLanes - 1};
    const auto f_lo = static_cast<unsigned>(f & (kLanes - 1));
    if (f_hi == 0)
        detail::forSlices(span / kLanes, parallel,
                          [&](size_t c0, size_t c1) {
                              detail::kernXorMaskSelf(data, c0, c1,
                                                      f_lo);
                          });
    else
        detail::forSlices(span / kLanes, parallel,
                          [&](size_t c0, size_t c1) {
                              detail::kernXorMaskPairs(data, c0, c1,
                                                       f_hi, f_lo);
                          });
    return true;
#else
    (void)data;
    (void)span;
    (void)f;
    (void)parallel;
    return false;
#endif
}

/** p[i] *= s over a run; vector when it fits, scalar otherwise
 *  (always executes — callers replace their loop entirely). */
inline void
scaleRun(cd *p, size_t n, double s)
{
    size_t i = 0;
#if defined(EFTVQA_SIMD_VECTOR)
    if (enabled() && n >= kLanes) {
        detail::kernScaleRun(p, n / kLanes, s);
        i = (n / kLanes) * kLanes;
    }
#endif
    for (; i < n; ++i)
        p[i] *= s;
}

/** p[i] = 0 over a run. */
inline void
zeroRun(cd *p, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        p[i] = cd{0.0, 0.0};
}

namespace detail {

/** Fixed slice count for the sweep: partials are merged in slice
 *  order, so the result is identical for any OpenMP thread count
 *  (including 1) and for the sharded serial path — the slicing
 *  depends only on the traversal length. */
inline constexpr size_t kSweepSlices = 8;

template <class SliceFn>
inline void
sweepSliced(size_t dim, size_t lanes, bool parallel, cd *out,
            SliceFn &&slice)
{
    const size_t nslices =
        dim >= kSweepSlices * kLanes * 2 ? kSweepSlices : 1;
    cd partial[kSweepSlices][4];
    const size_t len = dim / nslices;
    forSlices(
        nslices, parallel && nslices > 1,
        [&](size_t s0, size_t s1) {
            for (size_t s = s0; s < s1; ++s)
                slice(s * len, len, partial[s]);
        },
        len);
    for (size_t k = 0; k < lanes; ++k) {
        double re = 0.0, im = 0.0;
        for (size_t s = 0; s < nslices; ++s) {
            re += partial[s][k].real();
            im += partial[s][k].imag();
        }
        out[k] = cd{re, im};
    }
}

/**
 * Scalar slice kernel of the sweep: accumulate
 * sum_i (-1)^{parity(i & z_k)} * load(i) for kL terms over
 * i in [start, start + len). Stack-scalar accumulators keep the
 * per-lane sums in registers — heap-array accumulators cost a memory
 * round-trip per term per amplitude, which eats the benefit of sharing
 * load(i) across the lanes. Hermitian Pauli terms with no X support
 * contribute only real parts, so kWantImag = false lets diagonal
 * groups skip half the arithmetic.
 */
template <int kL, bool kWantImag, class LoadFn>
inline void
laneSweepSerial(uint64_t start, size_t len, const uint64_t *z,
                LoadFn &&load, cd *out)
{
    double re[kL] = {};
    double im[kL] = {};
    for (uint64_t i = start; i < start + len; ++i) {
        const cd p = load(i);
        for (int k = 0; k < kL; ++k) {
            const bool neg = std::popcount(i & z[k]) & 1;
            re[k] += neg ? -p.real() : p.real();
            if constexpr (kWantImag)
                im[k] += neg ? -p.imag() : p.imag();
        }
    }
    for (int k = 0; k < kL; ++k)
        out[k] = cd{re[k], im[k]};
}

/** laneSweepSerial on the run-time lane count (1, 2 or up-to-4; a
 *  spare lane carries a zero mask and its sum is ignored). */
template <bool kWantImag, class LoadFn>
inline void
laneSweepLanes(uint64_t start, size_t len, size_t lanes, const uint64_t *z,
               LoadFn &&load, cd *out)
{
    switch (lanes) {
      case 1:
        laneSweepSerial<1, kWantImag>(start, len, z, load, out);
        break;
      case 2:
        laneSweepSerial<2, kWantImag>(start, len, z, load, out);
        break;
      default:
        laneSweepSerial<4, kWantImag>(start, len, z, load, out);
        break;
    }
}

} // namespace detail

/**
 * Statevector expectation sweep over one chunk: up to 4 terms sharing
 * the X-mask @p xm, with Z-masks @p z, summed into out[k] =
 * sum_i (-1)^{parity(i & z_k)} conj(a_{i^xm}) a_i. The traversal is cut
 * into the fixed slices of sweepSliced; each slice is summed by the
 * vector kernel, or by laneSweepSerial when vector lanes are off, and
 * the partials merge in slice order. A lane's sum never depends on the
 * other lanes, on @p parallel or on the OpenMP team size.
 */
inline void
sweepChunkSv(const cd *data, size_t dim, uint64_t xm, size_t lanes,
             const uint64_t *z, bool parallel, cd *out)
{
    [[maybe_unused]] const bool use_vector = enabled() && dim >= kLanes;
    detail::sweepSliced(dim, lanes, parallel, out, [&](uint64_t start,
                                                       size_t len,
                                                       cd *part) {
#if defined(EFTVQA_SIMD_VECTOR)
        if (use_vector) {
            if (xm == 0)
                detail::kernSweepSvDiag(data, start, len, lanes, z, part);
            else
                detail::kernSweepSvBand(data, start, len, xm, lanes, z,
                                        part);
            return;
        }
#endif
        if (xm == 0)
            detail::laneSweepLanes<false>(
                start, len, lanes, z,
                [data](uint64_t i) { return cd{std::norm(data[i]), 0.0}; },
                part);
        else
            detail::laneSweepLanes<true>(
                start, len, lanes, z,
                [data, xm](uint64_t i) {
                    return std::conj(data[i ^ xm]) * data[i];
                },
                part);
    });
    // A diagonal sum is real; the x86 vnormPairs fills both slots of a
    // lane, so drop that copy (it matters for a term with phase +-i).
    if (xm == 0)
        for (size_t k = 0; k < lanes; ++k)
            out[k] = cd{out[k].real(), 0.0};
}

// ================================================================ //
// Pauli-basis density-matrix stream (sim/density_matrix.hpp)        //
// ================================================================ //
// The density matrix holds its 4^n real Pauli coefficients. Every   //
// stream pass is elementwise per quad or 16-element group: each     //
// output is m[4r] x0 + m[4r+1] x1 + m[4r+2] x2 + m[4r+3] x3 summed  //
// left to right, and a Pair pass ends with one multiply by a signed //
// factor. The scalar reference fixes that order; the vector kernels //
// repeat it lane by lane with explicit mul/add (never FMA), so every //
// path, ISA and slicing of a pass gives the same bits.              //
// ---------------------------------------------------------------- //

/** Pauli-coefficient storage of the density matrix. */
using RealVector = std::vector<double, AlignedAllocator<double>>;

#if defined(EFTVQA_SIMD_VECTOR)
inline constexpr size_t kRealLanes = 2 * kLanes; ///< doubles per vector
#else
inline constexpr size_t kRealLanes = 1;
#endif
inline constexpr unsigned kRealLaneBits = std::countr_zero(kRealLanes);

/**
 * A quad whose low bit lies inside a vector: it sits in a vector pair
 * (high bit 0, high bit 1) and is resolved by lane duplication.
 */
struct LaneQuad
{
    uint8_t dup_lo[kRealLanes] = {}; ///< lane l <- l with the low bit 0
    uint8_t dup_hi[kRealLanes] = {}; ///< lane l <- l with the low bit 1
    /** pat[c][l] = m[4 r + c] and pat[4 + c][l] = m[4 (2 + r) + c],
     *  r the low bit of lane l. */
    alignas(64) double pat[8][kRealLanes] = {};
};

/**
 * One pass of the Pauli-basis density-matrix stream over the real
 * coefficient vector.
 *
 * Quad: the 4x4 matrix ma on every quad at bits (hi, lo), quad-local
 * index r = 2 bit_hi + bit_lo: out[r] = sum_c ma[4r + c] x[c].
 *
 * Pair: 16-element groups that vary the bits pos[] (ascending). The
 * group-local element k = 8 x_a + 4 x_b + 2 z_a + z_b is read at
 * offset from[k] from the group base. Per group, in order: ma on each
 * quad of qubit a (bits 8 and 2 of k) when pre_a, mb on each quad of
 * qubit b (bits 4 and 1 of k) when pre_b, then element k is written
 * at offset to[k] times fac[k].
 *
 * Members: the elements of a group that share their x bits. A Quad
 * has 2 (member bit_hi: its elements over bit_lo), a Pair 4 (member
 * k >> 2 = 2 x_a + x_b: its elements over z_a, z_b). A member run
 * computes member o of each group from member src[o] alone (see
 * runMembers); a Pair writes it where the permutation maps it.
 *
 * planPass() chooses the kernel and fills the fields below path.
 */
struct PauliPass
{
    enum class Kind : uint8_t
    {
        Quad,
        Pair,
    };
    /** Scalar reference; Vector when every varied bit is at or above
     *  the lane width; Lanes when only z bits fall inside a vector. */
    enum class Path : uint8_t
    {
        Scalar,
        Vector,
        Lanes,
    };

    Kind kind = Kind::Quad;
    uint64_t lo = 0, hi = 0;
    uint64_t pos[4] = {};
    uint64_t from[16] = {}, to[16] = {};
    double fac[16] = {};
    bool pre_a = false, pre_b = false;
    double ma[16] = {}, mb[16] = {};
    uint8_t src[4] = {}; ///< source member of each member (member runs)

    Path path = Path::Scalar;
    size_t chunks = 0; ///< work units of the chosen path
    // Lanes path: a chunk is nv vectors holding `groups` groups.
    /** Group-local k bits inside a vector: 2 (z_a), 1 (z_b) or both. */
    uint8_t lane_k = 0;
    size_t nv = 0, groups = 0;
    uint64_t vfrom[16] = {}; ///< load offset of vector j
    uint64_t vto[16] = {};   ///< store offset of vector j
    LaneQuad a, b; ///< Quad: a; Pair: the qubits whose z bit is in lanes
    uint8_t perm[16][kRealLanes] = {}; ///< out lane <- source lane
    bool permuted[16] = {};
    alignas(64) double fpat[16][kRealLanes] = {}; ///< fac per source lane
};

namespace detail {

/** Group-local elements of each qubit's four quads, quad j in the
 *  order r = 2 x + z. */
inline constexpr uint8_t kPairQuadA[4][4] = {
    {0, 2, 8, 10}, {1, 3, 9, 11}, {4, 6, 12, 14}, {5, 7, 13, 15}};
inline constexpr uint8_t kPairQuadB[4][4] = {
    {0, 1, 4, 5}, {2, 3, 6, 7}, {8, 9, 12, 13}, {10, 11, 14, 15}};

/** Vector of group element e on the Lanes path: e with its lane k
 *  bits @p lane_k squeezed out (vectors numbered in element order). */
constexpr uint8_t
laneVector(unsigned lane_k, int e)
{
    int j = 0, w = 0;
    for (int b = 0; b < 4; ++b)
        if (!(lane_k & (1u << b)))
            j |= ((e >> b) & 1) << w++;
    return static_cast<uint8_t>(j);
}

/** Group base of group index t: zeros inserted at the four bits. */
inline uint64_t
pairGroupBase(uint64_t t, const uint64_t (&pos)[4])
{
    for (const uint64_t p : pos)
        t = insertZeroBit(t, p);
    return t;
}

/** out[r] = sum_c m[4r + c] x[c] over group elements q, left to
 *  right. */
inline void
quadScalar(double *v, const double *m, const uint8_t (&q)[4])
{
    const double x0 = v[q[0]], x1 = v[q[1]], x2 = v[q[2]], x3 = v[q[3]];
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r)
        v[q[r]] = m[4 * r] * x0 + m[4 * r + 1] * x1 + m[4 * r + 2] * x2 +
                  m[4 * r + 3] * x3;
}

/** Scalar reference of a Quad pass over quads [t0, t1). */
inline void
quadPassScalar(double *d, size_t t0, size_t t1, const PauliPass &p)
{
    double m[16];
    std::copy(std::begin(p.ma), std::end(p.ma), m);
    const uint64_t lo = p.lo, hi = p.hi;
    const uint64_t l = uint64_t{1} << lo, h = uint64_t{1} << hi;
    double v[4];
    for (size_t t = t0; t < t1; ++t) {
        double *q = d + insertZeroBit(insertZeroBit(t, lo), hi);
        v[0] = q[0];
        v[1] = q[l];
        v[2] = q[h];
        v[3] = q[h | l];
        quadScalar(v, m, {0, 1, 2, 3});
        q[0] = v[0];
        q[l] = v[1];
        q[h] = v[2];
        q[h | l] = v[3];
    }
}

/** Scalar reference of a Pair pass over groups [g0, g1). */
inline void
pairPassScalar(double *d, size_t g0, size_t g1, const PauliPass &p)
{
    // Locals: the stores below cannot alias them.
    double ma[16], mb[16], fac[16];
    uint64_t from[16], to[16], pos[4];
    std::copy(std::begin(p.ma), std::end(p.ma), ma);
    std::copy(std::begin(p.mb), std::end(p.mb), mb);
    std::copy(std::begin(p.fac), std::end(p.fac), fac);
    std::copy(std::begin(p.from), std::end(p.from), from);
    std::copy(std::begin(p.to), std::end(p.to), to);
    std::copy(std::begin(p.pos), std::end(p.pos), pos);
    const bool pre_a = p.pre_a, pre_b = p.pre_b;
    double v[16];
    for (size_t g = g0; g < g1; ++g) {
        double *base = d + pairGroupBase(g, pos);
#pragma GCC unroll 16
        for (int e = 0; e < 16; ++e)
            v[e] = base[from[e]];
        if (pre_a) {
#pragma GCC unroll 4
            for (int j = 0; j < 4; ++j)
                quadScalar(v, ma, kPairQuadA[j]);
        }
        if (pre_b) {
#pragma GCC unroll 4
            for (int j = 0; j < 4; ++j)
                quadScalar(v, mb, kPairQuadB[j]);
        }
#pragma GCC unroll 16
        for (int e = 0; e < 16; ++e)
            base[to[e]] = v[e] * fac[e];
    }
}

// Member runs: member o of each group from member s = src[o] alone.
// Every other member's terms are exact zeros there (a zero PTM block
// or a known-zero input), so each output keeps the group kernel's
// products of member s's columns, in their order, and drops the rest.

/** Rows 2o and 2o + 1 of quad matrix @p m from the columns of source
 *  x = s: quadScalar's products of those columns, in order. */
inline void
halfQuad(double &y0, double &y1, double x0, double x1, const double *m,
         unsigned o, unsigned s)
{
    const double *r = m + 8 * o + 2 * s;
    y0 = r[0] * x0 + r[1] * x1;
    y1 = r[4] * x0 + r[5] * x1;
}

/** Scalar member run of a Quad pass over quads [t0, t1). */
inline void
quadMembersScalar(double *d, size_t t0, size_t t1, const PauliPass &p,
                  unsigned members)
{
    double m[16];
    std::copy(std::begin(p.ma), std::end(p.ma), m);
    const uint64_t lo = p.lo, hi = p.hi;
    const uint64_t l = uint64_t{1} << lo, h = uint64_t{1} << hi;
    const uint64_t off[4] = {0, l, h, h | l};
    const unsigned src[2] = {p.src[0], p.src[1]};
    double y[4] = {};
    for (size_t t = t0; t < t1; ++t) {
        double *q = d + insertZeroBit(insertZeroBit(t, lo), hi);
        for (unsigned o = 0; o < 2; ++o)
            if (members >> o & 1)
                halfQuad(y[2 * o], y[2 * o + 1], q[off[2 * src[o]]],
                         q[off[2 * src[o] + 1]], m, o, src[o]);
        for (unsigned o = 0; o < 2; ++o)
            if (members >> o & 1) {
                q[off[2 * o]] = y[2 * o];
                q[off[2 * o + 1]] = y[2 * o + 1];
            }
    }
}

/** Scalar member run of a Pair pass over groups [g0, g1): member o's
 *  elements 2 z_a + z_b come from member s's through pre_a on z_a, then
 *  pre_b on z_b, and are written as the group kernel writes them. */
inline void
pairMembersScalar(double *d, size_t g0, size_t g1, const PauliPass &p,
                  unsigned members)
{
    double ma[16], mb[16], fac[16];
    uint64_t from[16], to[16], pos[4];
    std::copy(std::begin(p.ma), std::end(p.ma), ma);
    std::copy(std::begin(p.mb), std::end(p.mb), mb);
    std::copy(std::begin(p.fac), std::end(p.fac), fac);
    std::copy(std::begin(p.from), std::end(p.from), from);
    std::copy(std::begin(p.to), std::end(p.to), to);
    std::copy(std::begin(p.pos), std::end(p.pos), pos);
    const unsigned src[4] = {p.src[0], p.src[1], p.src[2], p.src[3]};
    const bool pre_a = p.pre_a, pre_b = p.pre_b;
    double v[4][4];
    for (size_t g = g0; g < g1; ++g) {
        double *base = d + pairGroupBase(g, pos);
        for (unsigned o = 0; o < 4; ++o) {
            if (!(members >> o & 1))
                continue;
            const unsigned s = src[o];
            double *x = v[o];
            for (unsigned e = 0; e < 4; ++e)
                x[e] = base[from[4 * s + e]];
            if (pre_a)
                for (unsigned zb = 0; zb < 2; ++zb)
                    halfQuad(x[zb], x[2 + zb], x[zb], x[2 + zb], ma, o >> 1,
                             s >> 1);
            if (pre_b)
                for (unsigned za = 0; za < 2; ++za)
                    halfQuad(x[2 * za], x[2 * za + 1], x[2 * za],
                             x[2 * za + 1], mb, o & 1, s & 1);
        }
        for (unsigned o = 0; o < 4; ++o)
            if (members >> o & 1)
                for (unsigned e = 0; e < 4; ++e)
                    base[to[4 * o + e]] = v[o][e] * fac[4 * o + e];
    }
}

#if defined(EFTVQA_SIMD_VECTOR)

// Real-lane primitives: RVec holds kRealLanes doubles, RIdx a lane
// permutation (out lane l <- lane idx[l]).

#if defined(EFTVQA_SIMD_ISA_AVX512)

using RVec = __m512d;
using RIdx = __m512i;

EFTVQA_SIMD_TARGET inline RVec
rload(const double *p)
{
    return _mm512_loadu_pd(p);
}
EFTVQA_SIMD_TARGET inline void
rstore(double *p, RVec v)
{
    _mm512_storeu_pd(p, v);
}
EFTVQA_SIMD_TARGET inline RVec
rset1(double x)
{
    return _mm512_set1_pd(x);
}
EFTVQA_SIMD_TARGET inline RVec
radd(RVec a, RVec b)
{
    return _mm512_add_pd(a, b);
}
/** The product passes the vopaque barrier: no add can contract it
 *  into an FMA. */
EFTVQA_SIMD_TARGET inline RVec
rmul(RVec a, RVec b)
{
    RVec t = _mm512_mul_pd(a, b);
    vopaque(t);
    return t;
}
EFTVQA_SIMD_TARGET inline RIdx
ridx(const uint8_t *lanes)
{
    alignas(64) int64_t i[kRealLanes];
    for (size_t l = 0; l < kRealLanes; ++l)
        i[l] = lanes[l];
    return _mm512_load_si512(i);
}
/** Two-source form with both sources v: the one-source permutexvar
 *  trips GCC's maybe-uninitialized check on its undefined operand. */
EFTVQA_SIMD_TARGET inline RVec
rperm(RVec v, RIdx i)
{
    return _mm512_permutex2var_pd(v, i, v);
}

#elif defined(EFTVQA_SIMD_ISA_AVX2)

using RVec = __m256d;
using RIdx = __m256i; ///< 32-bit halves of each double lane

EFTVQA_SIMD_TARGET inline RVec
rload(const double *p)
{
    return _mm256_loadu_pd(p);
}
EFTVQA_SIMD_TARGET inline void
rstore(double *p, RVec v)
{
    _mm256_storeu_pd(p, v);
}
EFTVQA_SIMD_TARGET inline RVec
rset1(double x)
{
    return _mm256_set1_pd(x);
}
EFTVQA_SIMD_TARGET inline RVec
radd(RVec a, RVec b)
{
    return _mm256_add_pd(a, b);
}
EFTVQA_SIMD_TARGET inline RVec
rmul(RVec a, RVec b)
{
    return _mm256_mul_pd(a, b);
}
EFTVQA_SIMD_TARGET inline RIdx
ridx(const uint8_t *lanes)
{
    alignas(32) int32_t i[2 * kRealLanes];
    for (size_t l = 0; l < kRealLanes; ++l) {
        i[2 * l] = 2 * lanes[l];
        i[2 * l + 1] = 2 * lanes[l] + 1;
    }
    return _mm256_load_si256(reinterpret_cast<const __m256i *>(i));
}
EFTVQA_SIMD_TARGET inline RVec
rperm(RVec v, RIdx i)
{
    return _mm256_castps_pd(
        _mm256_permutevar8x32_ps(_mm256_castpd_ps(v), i));
}

#else // EFTVQA_SIMD_GENERIC_ACTIVE

using RVec = stdx::fixed_size_simd<double, int(kRealLanes)>;
struct RIdx
{
    uint8_t lane[kRealLanes];
};

inline RVec
rload(const double *p)
{
    return RVec(p, stdx::element_aligned);
}
inline void
rstore(double *p, RVec v)
{
    v.copy_to(p, stdx::element_aligned);
}
inline RVec
rset1(double x)
{
    return RVec(x);
}
inline RVec
radd(RVec a, RVec b)
{
    return a + b;
}
inline RVec
rmul(RVec a, RVec b)
{
    return a * b;
}
inline RIdx
ridx(const uint8_t *lanes)
{
    RIdx i;
    std::copy(lanes, lanes + kRealLanes, i.lane);
    return i;
}
inline RVec
rperm(RVec v, RIdx i)
{
    double in[kRealLanes], out[kRealLanes];
    v.copy_to(in, stdx::element_aligned);
    for (size_t l = 0; l < kRealLanes; ++l)
        out[l] = in[i.lane[l]];
    return RVec(out, stdx::element_aligned);
}

#endif // real-lane primitives

/** A quad held in four vectors, one per r. */
EFTVQA_SIMD_TARGET inline void
rquad(RVec *v, const RVec *m, const uint8_t *q)
{
    const RVec x0 = v[q[0]], x1 = v[q[1]], x2 = v[q[2]], x3 = v[q[3]];
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r)
        v[q[r]] = radd(radd(radd(rmul(m[4 * r], x0), rmul(m[4 * r + 1], x1)),
                            rmul(m[4 * r + 2], x2)),
                       rmul(m[4 * r + 3], x3));
}

/** A quad split by its low bit across the lanes of two vectors: a
 *  holds r = 0, 1 and b holds r = 2, 3 (see LaneQuad::pat). */
EFTVQA_SIMD_TARGET inline void
rquadLanes(RVec &a, RVec &b, const RVec *pat, RIdx lo, RIdx hi)
{
    const RVec a0 = rperm(a, lo), a1 = rperm(a, hi);
    const RVec b0 = rperm(b, lo), b1 = rperm(b, hi);
    a = radd(radd(radd(rmul(pat[0], a0), rmul(pat[1], a1)),
                  rmul(pat[2], b0)),
             rmul(pat[3], b1));
    b = radd(radd(radd(rmul(pat[4], a0), rmul(pat[5], a1)),
                  rmul(pat[6], b0)),
             rmul(pat[7], b1));
}

/** halfQuad on vectors. */
EFTVQA_SIMD_TARGET inline void
rhalfQuad(RVec &y0, RVec &y1, RVec x0, RVec x1, const RVec *m, unsigned o,
          unsigned s)
{
    const RVec *r = m + 8 * o + 2 * s;
    y0 = radd(rmul(r[0], x0), rmul(r[1], x1));
    y1 = radd(rmul(r[4], x0), rmul(r[5], x1));
}

/** rquadLanes' output vector for x = o from the lanes of the source
 *  vector @p v of x = s alone. */
EFTVQA_SIMD_TARGET inline RVec
rhalfQuadLanes(RVec v, const RVec *pat, RIdx lo, RIdx hi, unsigned o,
               unsigned s)
{
    const RVec *r = pat + 4 * o + 2 * s;
    return radd(rmul(r[0], rperm(v, lo)), rmul(r[1], rperm(v, hi)));
}

/** Quad pass, both bits at or above the lane width: chunk c holds
 *  quads [c kRealLanes, (c + 1) kRealLanes). */
EFTVQA_SIMD_TARGET inline void
kernQuadVector(double *d, size_t c0, size_t c1, const PauliPass &p)
{
    RVec m[16];
    for (int e = 0; e < 16; ++e)
        m[e] = rset1(p.ma[e]);
    const uint64_t lo = p.lo, hi = p.hi;
    const uint64_t l = uint64_t{1} << lo, h = uint64_t{1} << hi;
    static constexpr uint8_t kQuad[4] = {0, 1, 2, 3};
    RVec v[4];
    for (size_t c = c0; c < c1; ++c) {
        double *q = d + insertZeroBit(insertZeroBit(c * kRealLanes, lo), hi);
        v[0] = rload(q);
        v[1] = rload(q + l);
        v[2] = rload(q + h);
        v[3] = rload(q + (h | l));
        rquad(v, m, kQuad);
        rstore(q, v[0]);
        rstore(q + l, v[1]);
        rstore(q + h, v[2]);
        rstore(q + (h | l), v[3]);
    }
}

/** Quad pass with the low bit inside a vector and the high bit above
 *  the lane width. */
EFTVQA_SIMD_TARGET inline void
kernQuadLanes(double *d, size_t c0, size_t c1, const PauliPass &p)
{
    RVec pat[8];
    for (int k = 0; k < 8; ++k)
        pat[k] = rload(p.a.pat[k]);
    const RIdx lo = ridx(p.a.dup_lo), hi = ridx(p.a.dup_hi);
    const uint64_t top = p.hi;
    const uint64_t h = uint64_t{1} << top;
    for (size_t c = c0; c < c1; ++c) {
        double *q = d + insertZeroBit(c * kRealLanes, top);
        RVec a = rload(q), b = rload(q + h);
        rquadLanes(a, b, pat, lo, hi);
        rstore(q, a);
        rstore(q + h, b);
    }
}

/** Pair pass, every varied bit at or above the lane width: chunk c
 *  holds groups [c kRealLanes, (c + 1) kRealLanes), adjacent in each
 *  of the 16 slots. */
EFTVQA_SIMD_TARGET inline void
kernPairVector(double *d, size_t c0, size_t c1, const PauliPass &p)
{
    // Locals: the stores below cannot alias them.
    uint64_t from[16], to[16], pos[4];
    RVec ma[16], mb[16], f[16];
    for (int e = 0; e < 16; ++e) {
        from[e] = p.from[e];
        to[e] = p.to[e];
        ma[e] = rset1(p.ma[e]);
        mb[e] = rset1(p.mb[e]);
        f[e] = rset1(p.fac[e]);
    }
    for (int j = 0; j < 4; ++j)
        pos[j] = p.pos[j];
    const bool pre_a = p.pre_a, pre_b = p.pre_b;
    RVec v[16];
    for (size_t c = c0; c < c1; ++c) {
        double *base = d + pairGroupBase(c * kRealLanes, pos);
#pragma GCC unroll 16
        for (int e = 0; e < 16; ++e)
            v[e] = rload(base + from[e]);
        if (pre_a) {
#pragma GCC unroll 4
            for (int j = 0; j < 4; ++j)
                rquad(v, ma, kPairQuadA[j]);
        }
        if (pre_b) {
#pragma GCC unroll 4
            for (int j = 0; j < 4; ++j)
                rquad(v, mb, kPairQuadB[j]);
        }
#pragma GCC unroll 16
        for (int e = 0; e < 16; ++e)
            rstore(base + to[e], rmul(v[e], f[e]));
    }
}

/** One qubit's quads of a Lanes-path chunk: vector pairs when its z
 *  bit is in lanes, vector quads otherwise; quads that differ only in
 *  the other qubit's lane bit share their vectors. */
template <unsigned kLaneK, bool kInLanes, bool kOtherInLanes>
EFTVQA_SIMD_TARGET inline void
laneQuads(RVec *w, const uint8_t (&quads)[4][4], const RVec *m,
          const RVec *pat, RIdx lo, RIdx hi)
{
#pragma GCC unroll 4
    for (int j = 0; j < 4; j += kOtherInLanes ? 2 : 1) {
        const uint8_t *q = quads[j];
        if constexpr (kInLanes) {
            rquadLanes(w[laneVector(kLaneK, q[0])],
                       w[laneVector(kLaneK, q[2])], pat, lo, hi);
        } else {
            const uint8_t v[4] = {
                laneVector(kLaneK, q[0]), laneVector(kLaneK, q[1]),
                laneVector(kLaneK, q[2]), laneVector(kLaneK, q[3])};
            rquad(w, m, v);
        }
    }
}

/** Pair pass whose z bits kLaneK (group-local: 2 for z_a, 1 for z_b)
 *  fall inside a vector, x bits above the lane width (see PauliPass's
 *  Lanes fields). */
template <unsigned kLaneK>
EFTVQA_SIMD_TARGET inline void
kernPairLanes(double *d, size_t c0, size_t c1, const PauliPass &pp)
{
    constexpr int kNv = 16 >> std::popcount(kLaneK);
    constexpr bool kA = kLaneK & 2, kB = kLaneK & 1;
    const PauliPass p = pp; // locals: the stores below cannot alias it
    RVec ma[16], mb[16], pa[8], pb[8], f[kNv];
    RIdx perm[kNv];
    for (int e = 0; e < 16; ++e) {
        ma[e] = rset1(p.ma[e]);
        mb[e] = rset1(p.mb[e]);
    }
    for (int k = 0; k < 8; ++k) {
        pa[k] = rload(p.a.pat[k]);
        pb[k] = rload(p.b.pat[k]);
    }
    const RIdx alo = ridx(p.a.dup_lo), ahi = ridx(p.a.dup_hi);
    const RIdx blo = ridx(p.b.dup_lo), bhi = ridx(p.b.dup_hi);
    for (int j = 0; j < kNv; ++j) {
        f[j] = rload(p.fpat[j]);
        perm[j] = ridx(p.perm[j]);
    }
    RVec w[kNv];
    for (size_t c = c0; c < c1; ++c) {
        double *base = d + pairGroupBase(c * p.groups, p.pos);
#pragma GCC unroll 16
        for (int j = 0; j < kNv; ++j)
            w[j] = rload(base + p.vfrom[j]);
        if (p.pre_a)
            laneQuads<kLaneK, kA, kB>(w, kPairQuadA, ma, pa, alo, ahi);
        if (p.pre_b)
            laneQuads<kLaneK, kB, kA>(w, kPairQuadB, mb, pb, blo, bhi);
#pragma GCC unroll 16
        for (int j = 0; j < kNv; ++j)
            w[j] = rmul(w[j], f[j]);
#pragma GCC unroll 16
        for (int j = 0; j < kNv; ++j)
            rstore(base + p.vto[j],
                   p.permuted[j] ? rperm(w[j], perm[j]) : w[j]);
    }
}

/** Member run of a Quad pass on the Vector (kLow = false) or Lanes
 *  (kLow: the low bit inside a vector) path: the units of
 *  kernQuadVector / kernQuadLanes. */
template <bool kLow>
EFTVQA_SIMD_TARGET inline void
kernQuadMembers(double *d, size_t c0, size_t c1, const PauliPass &p,
                unsigned members)
{
    RVec m[16], pat[8];
    for (int e = 0; e < 16; ++e)
        m[e] = rset1(p.ma[e]);
    for (int k = 0; k < 8; ++k)
        pat[k] = rload(p.a.pat[k]);
    const RIdx dlo = ridx(p.a.dup_lo), dhi = ridx(p.a.dup_hi);
    const uint64_t lo = p.lo, hi = p.hi;
    const uint64_t l = uint64_t{1} << lo, h = uint64_t{1} << hi;
    const uint64_t off[4] = {0, l, h, h | l};
    const unsigned src[2] = {p.src[0], p.src[1]};
    RVec y[4];
    for (size_t c = c0; c < c1; ++c) {
        double *q = kLow ? d + insertZeroBit(c * kRealLanes, hi)
                         : d + insertZeroBit(insertZeroBit(c * kRealLanes, lo),
                                             hi);
        for (unsigned o = 0; o < 2; ++o) {
            if (!(members >> o & 1))
                continue;
            const unsigned s = src[o];
            if (kLow)
                y[2 * o] = rhalfQuadLanes(rload(q + off[2 * s]), pat, dlo,
                                          dhi, o, s);
            else
                rhalfQuad(y[2 * o], y[2 * o + 1], rload(q + off[2 * s]),
                          rload(q + off[2 * s + 1]), m, o, s);
        }
        for (unsigned o = 0; o < 2; ++o) {
            if (!(members >> o & 1))
                continue;
            rstore(q + off[2 * o], y[2 * o]);
            if (!kLow)
                rstore(q + off[2 * o + 1], y[2 * o + 1]);
        }
    }
}

/** Member run of a Pair pass on the Vector path (kLaneK = 0) or the
 *  Lanes path with in-lane z bits kLaneK: the units of kernPairVector /
 *  kernPairLanes. A member is 4 vectors (z_a, z_b), 2 (the z bit
 *  outside the lanes) or 1. */
template <unsigned kLaneK>
EFTVQA_SIMD_TARGET inline void
kernPairMembers(double *d, size_t c0, size_t c1, const PauliPass &pp,
                unsigned members)
{
    constexpr unsigned kPer = 4u >> std::popcount(kLaneK);
    constexpr bool kA = kLaneK & 2, kB = kLaneK & 1;
    const PauliPass p = pp; // locals: the stores below cannot alias it
    RVec ma[16], mb[16], pa[8], pb[8], f[16];
    RIdx perm[16];
    for (int e = 0; e < 16; ++e) {
        ma[e] = rset1(p.ma[e]);
        mb[e] = rset1(p.mb[e]);
    }
    for (int k = 0; k < 8; ++k) {
        pa[k] = rload(p.a.pat[k]);
        pb[k] = rload(p.b.pat[k]);
    }
    const RIdx alo = ridx(p.a.dup_lo), ahi = ridx(p.a.dup_hi);
    const RIdx blo = ridx(p.b.dup_lo), bhi = ridx(p.b.dup_hi);
    // Vector j of member o is element 4 o + j on the Vector path and
    // Lanes vector kPer o + j (see laneVector) otherwise.
    const uint64_t *vfrom = kLaneK ? p.vfrom : p.from;
    const uint64_t *vto = kLaneK ? p.vto : p.to;
    for (unsigned j = 0; j < 4 * kPer; ++j) {
        f[j] = kLaneK ? rload(p.fpat[j]) : rset1(p.fac[j]);
        perm[j] = ridx(p.perm[j]);
    }
    const size_t width = kLaneK ? p.groups : kRealLanes;
    RVec w[4][kPer];
    for (size_t c = c0; c < c1; ++c) {
        double *base = d + pairGroupBase(c * width, p.pos);
        for (unsigned o = 0; o < 4; ++o) {
            if (!(members >> o & 1))
                continue;
            const unsigned s = p.src[o];
            RVec *x = w[o];
            for (unsigned j = 0; j < kPer; ++j)
                x[j] = rload(base + vfrom[kPer * s + j]);
            if (p.pre_a) {
                if constexpr (kA) {
                    for (unsigned j = 0; j < kPer; ++j)
                        x[j] = rhalfQuadLanes(x[j], pa, alo, ahi, o >> 1,
                                              s >> 1);
                } else {
                    // z_a is the member's vector bit kPer / 2.
                    constexpr unsigned kZa = kPer / 2;
                    for (unsigned j = 0; j < kZa; ++j)
                        rhalfQuad(x[j], x[j + kZa], x[j], x[j + kZa], ma,
                                  o >> 1, s >> 1);
                }
            }
            if (p.pre_b) {
                if constexpr (kB) {
                    for (unsigned j = 0; j < kPer; ++j)
                        x[j] = rhalfQuadLanes(x[j], pb, blo, bhi, o & 1,
                                              s & 1);
                } else {
                    // z_b is the member's vector bit 0.
                    for (unsigned j = 0; j < kPer; j += 2)
                        rhalfQuad(x[j], x[j + 1], x[j], x[j + 1], mb, o & 1,
                                  s & 1);
                }
            }
            for (unsigned j = 0; j < kPer; ++j)
                x[j] = rmul(x[j], f[kPer * o + j]);
        }
        for (unsigned o = 0; o < 4; ++o) {
            if (!(members >> o & 1))
                continue;
            for (unsigned j = 0; j < kPer; ++j) {
                const unsigned v = kPer * o + j;
                rstore(base + vto[v], kLaneK && p.permuted[v]
                                          ? rperm(w[o][j], perm[v])
                                          : w[o][j]);
            }
        }
    }
}

#endif // EFTVQA_SIMD_VECTOR

/** Fill @p s for a quad of matrix @p m whose low bit is lane bit
 *  @p bit. */
inline void
fillLaneQuad(LaneQuad &s, const double *m, unsigned bit)
{
    for (size_t l = 0; l < kRealLanes; ++l) {
        const size_t r = (l >> bit) & 1;
        s.dup_lo[l] = static_cast<uint8_t>(l & ~(size_t{1} << bit));
        s.dup_hi[l] = static_cast<uint8_t>(l | (size_t{1} << bit));
        for (int c = 0; c < 4; ++c) {
            s.pat[c][l] = m[4 * r + c];
            s.pat[4 + c][l] = m[4 * (2 + r) + c];
        }
    }
}

/** Lane layout of a Pair pass whose z bits (not x bits) may fall
 *  inside a vector. False when some vector's lanes would land in more
 *  than one vector (a Swap or CX moving an in-lane z bit out of the
 *  lanes); such a pass takes the scalar reference. */
inline bool
planPairLanes(PauliPass &p, size_t size)
{
    constexpr uint64_t kLaneMask = kRealLanes - 1;
    // Qubit a's z bit is the group's bit 2 (offset from[2]), b's is
    // bit 1; only z bits reach this path.
    const auto za = static_cast<unsigned>(std::countr_zero(p.from[2]));
    const auto zb = static_cast<unsigned>(std::countr_zero(p.from[1]));
    p.lane_k = static_cast<uint8_t>((za < kRealLaneBits ? 2 : 0) |
                                    (zb < kRealLaneBits ? 1 : 0));
    const uint64_t low = p.from[p.lane_k]; // the lane bits' offsets
    p.nv = size_t{16} >> std::popcount(p.lane_k);
    p.groups = kRealLanes >> std::popcount(p.lane_k);
    p.chunks = size / 16 / p.groups;
    if (p.lane_k & 2)
        fillLaneQuad(p.a, p.ma, za);
    if (p.lane_k & 1)
        fillLaneQuad(p.b, p.mb, zb);

    // Vector j of a chunk holds one pattern of the varied bits above
    // the lanes; element e sits in vector vec[e] at lane from[e] & mask.
    uint8_t vec[16];
    for (int e = 0; e < 16; ++e) {
        vec[e] = laneVector(p.lane_k, e);
        p.vfrom[vec[e]] = p.from[e] & ~kLaneMask;
    }

    for (size_t j = 0; j < p.nv; ++j) {
        for (uint64_t l = 0; l < kRealLanes; ++l) {
            int e = 0;
            while (vec[e] != j || (p.from[e] & kLaneMask) != (l & low))
                ++e;
            const uint64_t dest = p.to[e] | (l & ~low);
            p.fpat[j][l] = p.fac[e];
            p.perm[j][dest & kLaneMask] = static_cast<uint8_t>(l);
            if (l == 0)
                p.vto[j] = dest & ~kLaneMask;
            else if ((dest & ~kLaneMask) != p.vto[j])
                return false;
        }
        p.permuted[j] = false;
        for (uint64_t l = 0; l < kRealLanes; ++l)
            p.permuted[j] = p.permuted[j] || p.perm[j][l] != l;
    }
    return true;
}

/** Member run of pass @p p over its work units [c0, c1): only the
 *  members in the mask @p members, each from its src member. */
inline void
runMembers(double *d, const PauliPass &p, size_t c0, size_t c1,
           unsigned members)
{
    const bool quad = p.kind == PauliPass::Kind::Quad;
#if defined(EFTVQA_SIMD_VECTOR)
    using Path = PauliPass::Path;
    if (p.path == Path::Vector) {
        quad ? kernQuadMembers<false>(d, c0, c1, p, members)
             : kernPairMembers<0>(d, c0, c1, p, members);
        return;
    }
    if (p.path == Path::Lanes) {
        if (quad)
            kernQuadMembers<true>(d, c0, c1, p, members);
        else if (p.lane_k == 1)
            kernPairMembers<1>(d, c0, c1, p, members);
        else if (p.lane_k == 2)
            kernPairMembers<2>(d, c0, c1, p, members);
        else
            kernPairMembers<3>(d, c0, c1, p, members);
        return;
    }
#endif
    quad ? quadMembersScalar(d, c0, c1, p, members)
         : pairMembersScalar(d, c0, c1, p, members);
}

/** Run pass @p p over its work units [c0, c1): every member of each
 *  group when @p members is 0, else the member run of that mask. */
inline void
runPass(double *d, const PauliPass &p, size_t c0, size_t c1,
        unsigned members = 0)
{
    if (members != 0)
        return runMembers(d, p, c0, c1, members);
    const bool quad = p.kind == PauliPass::Kind::Quad;
#if defined(EFTVQA_SIMD_VECTOR)
    using Path = PauliPass::Path;
    if (p.path == Path::Vector) {
        quad ? kernQuadVector(d, c0, c1, p) : kernPairVector(d, c0, c1, p);
        return;
    }
    if (p.path == Path::Lanes) {
        if (quad)
            kernQuadLanes(d, c0, c1, p);
        else if (p.lane_k == 1)
            kernPairLanes<1>(d, c0, c1, p);
        else if (p.lane_k == 2)
            kernPairLanes<2>(d, c0, c1, p);
        else
            kernPairLanes<3>(d, c0, c1, p);
        return;
    }
#endif
    quad ? quadPassScalar(d, c0, c1, p) : pairPassScalar(d, c0, c1, p);
}

} // namespace detail

/**
 * Choose the kernel of @p p for a coefficient vector of @p size
 * doubles: the vector paths when the lanes are on, the pass's x bits
 * lie at or above the lane width and each vector's lanes stay in one
 * vector, the scalar reference otherwise (always when the dispatch is
 * pinned to scalar).
 */
inline void
planPass(PauliPass &p, size_t size)
{
    using Path = PauliPass::Path;
    const bool vec = enabled();
    if (p.kind == PauliPass::Kind::Quad) {
        if (vec && p.lo >= kRealLaneBits) {
            p.path = Path::Vector;
            p.chunks = size / 4 / kRealLanes;
        } else if (vec && p.hi >= kRealLaneBits) {
            p.path = Path::Lanes;
            p.chunks = size / 2 / kRealLanes;
            detail::fillLaneQuad(p.a, p.ma, static_cast<unsigned>(p.lo));
        } else {
            p.path = Path::Scalar;
            p.chunks = size / 4;
        }
        return;
    }
    if (vec && p.pos[0] >= kRealLaneBits) {
        p.path = Path::Vector;
        p.chunks = size / 16 / kRealLanes;
    } else if (vec && p.pos[2] >= kRealLaneBits &&
               detail::planPairLanes(p, size)) {
        p.path = Path::Lanes;
    } else {
        p.path = Path::Scalar;
        p.chunks = size / 16;
    }
}

/** Work units [c0, c1) of one pass (see PauliPass::chunks), each over
 *  every member of its groups (members = 0) or over a member mask. */
struct PassRange
{
    size_t c0 = 0, c1 = 0;
    uint8_t members = 0;
};

/**
 * The work units each pass of a stream runs: pass i runs ranges
 * [first[i], first[i + 1]), ascending and disjoint. A pass that runs
 * whole has the one range [0, chunks) over every member.
 */
struct StreamRanges
{
    std::vector<PassRange> ranges;
    std::vector<size_t> first; ///< one offset per pass, plus the end
};

namespace detail {

/** Units [u0, u1) of pass @p p, counted along its ranges [r, end). */
inline void
runRanges(double *d, const PauliPass &p, const PassRange *r,
          const PassRange *end, size_t u0, size_t u1)
{
    for (; r != end && u0 < u1; ++r) {
        const size_t len = r->c1 - r->c0;
        if (u0 < len)
            runPass(d, p, r->c0 + u0, r->c0 + std::min(u1, len),
                    r->members);
        u0 = u0 > len ? u0 - len : 0;
        u1 = u1 > len ? u1 - len : 0;
    }
}

} // namespace detail

/**
 * Run @p passes in order over [data, data + size), each over its
 * ranges of @p plan. When the passes average at least the fork grain,
 * they run in one OpenMP region with a barrier after each pass; each
 * thread takes a fixed slice of every pass's units along its ranges,
 * and passes are elementwise, so the bits never depend on the thread
 * count.
 */
inline void
runPauliStream(double *data, size_t size,
               const std::vector<PauliPass> &passes,
               const StreamRanges &plan, bool parallel)
{
    const PassRange *r = plan.ranges.data();
    const auto units = [&](size_t i) {
        size_t u = 0;
        for (size_t k = plan.first[i]; k < plan.first[i + 1]; ++k)
            u += r[k].c1 - r[k].c0;
        return u;
    };
#ifdef _OPENMP
    size_t work = 0;
    for (size_t i = 0; i < passes.size(); ++i)
        work += units(i) * (size / passes[i].chunks);
    if (parallel && !passes.empty() &&
        work >= kParallelGrainAmps * passes.size() &&
        omp_get_max_threads() > 1) {
#pragma omp parallel
        {
            const auto t = static_cast<size_t>(omp_get_thread_num());
            const auto nt = static_cast<size_t>(omp_get_num_threads());
            for (size_t i = 0; i < passes.size(); ++i) {
                const size_t u = units(i);
                detail::runRanges(data, passes[i], r + plan.first[i],
                                  r + plan.first[i + 1], u * t / nt,
                                  u * (t + 1) / nt);
#pragma omp barrier
            }
        }
        return;
    }
#else
    (void)size;
    (void)parallel;
#endif
    for (size_t i = 0; i < passes.size(); ++i)
        detail::runRanges(data, passes[i], r + plan.first[i],
                          r + plan.first[i + 1], 0, units(i));
}

} // namespace simd
} // namespace eftvqa

#endif // EFTVQA_SIM_SIMD_HPP
