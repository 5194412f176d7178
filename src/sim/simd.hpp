/**
 * @file
 * Fixed-width SIMD lane layer for the dense simulators.
 *
 * A thin abstraction over interleaved complex<double> amplitudes:
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
 * Every elementwise kernel here (1q/2q unitaries and superoperators,
 * diagonal phase sweeps, xor-mask permutations, noisy Pair2q groups)
 * performs per-amplitude arithmetic in exactly the scalar operation
 * order — complex multiplies are expanded to the same
 * (ar*br - ai*bi, ar*bi + ai*br) form std::complex uses, sums keep the
 * scalar association, and no FMA contraction is emitted (the kernels
 * use explicit mul/add intrinsics) — so the vector run() path is
 * bit-identical to the scalar one. The expectation sweep is the one
 * exception: it accumulates into per-lane vector accumulators and
 * reduces them in a fixed order at the end, which reorders the sum
 * relative to the scalar sweep. It is therefore gated behind a tested
 * <= 1e-12 parity contract, and laneSweepSerial (lane_sweep.hpp)
 * remains the deterministic reference used by the sharded batch.
 *
 * Mode pinning: setSimdMode(0) forces the scalar paths (benches and
 * parity tests), setSimdMode(-1) restores the default auto dispatch.
 */

#ifndef EFTVQA_SIM_SIMD_HPP
#define EFTVQA_SIM_SIMD_HPP

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

/** Fork threshold in amplitudes, matching the simulators' historical
 *  OpenMP grain. */
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

/**
 * One Pair2q pass of the noisy density-matrix stream (see
 * sim/density_matrix.hpp). The vector is split into 16-element groups
 * that vary four bits; group-local element k = 8 ket_a + 4 ket_b +
 * 2 bra_a + bra_b is read at offset from[k] from the group base. Per
 * group, in order: the optional 4x4 superoperator pre_a on each
 * (ket_a, bra_a) quad and pre_b on each (ket_b, bra_b) quad; when
 * depol, v <- keep v plus quarter_mix (v0 + v5 + v10 + v15) on the
 * four pair-diagonal elements (mixing toward the pair-traced
 * diagonal); then element k is written at offset to[k], negated when
 * flip[k] (the pair's index permutation on both halves).
 */
struct PairKernel
{
    uint64_t from[16] = {};
    uint64_t to[16] = {};
    bool flip[16] = {};
    uint64_t pos[4] = {}; ///< the four varied bit positions, ascending
    const Mat4 *pre_a = nullptr;
    const Mat4 *pre_b = nullptr;
    bool depol = false;
    double keep = 1.0;
    double quarter_mix = 0.0;
};

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
#endif
    fn(0, n_chunks);
}

/** Group-local indices of the four (ket, bra) quads of each qubit,
 *  quad j over 4x4 basis index r = 2 ket + bra. */
inline constexpr uint8_t kPairQuadA[4][4] = {
    {0, 2, 8, 10}, {1, 3, 9, 11}, {4, 6, 12, 14}, {5, 7, 13, 15}};
inline constexpr uint8_t kPairQuadB[4][4] = {
    {0, 1, 4, 5}, {2, 3, 6, 7}, {8, 9, 12, 13}, {10, 11, 14, 15}};

/** Group base of group index t: zeros inserted at the four bits. */
inline uint64_t
pairGroupBase(uint64_t t, const uint64_t (&pos)[4])
{
    for (const uint64_t p : pos)
        t = insertZeroBit(t, p);
    return t;
}

/** a * b in the expansion std::complex uses for finite operands (and
 *  the vector kernels repeat), without its NaN-recovery branch. */
inline cd
cmul(cd a, cd b)
{
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

/** out[r] = sum_c m[4r + c] x[c] over the quad, left to right. */
inline void
quad4(cd *v, const cd *m, const uint8_t (&q)[4])
{
    const cd x0 = v[q[0]], x1 = v[q[1]], x2 = v[q[2]], x3 = v[q[3]];
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r)
        v[q[r]] = cmul(m[4 * r], x0) + cmul(m[4 * r + 1], x1) +
                  cmul(m[4 * r + 2], x2) + cmul(m[4 * r + 3], x3);
}

/** Depolarizing and the permuted store of one group held in @p v.
 *  Never inlined, so a target-attributed caller whose ISA implies FMA
 *  cannot contract its mul/add pairs. */
[[gnu::noinline]] inline void
pairGroupTail(cd *v, cd *base, const PairKernel &k)
{
    if (k.depol) {
        const cd t = (v[0] + v[5] + v[10] + v[15]) * k.quarter_mix;
        for (int e = 0; e < 16; ++e)
            v[e] = v[e] * k.keep;
        for (const int e : {0, 5, 10, 15})
            v[e] = v[e] + t;
    }
    for (int e = 0; e < 16; ++e)
        base[k.to[e]] = k.flip[e] ? v[e] * -1.0 : v[e];
}

/** Scalar reference of the Pair2q pass over groups [g0, g1); the
 *  vector kernels repeat its per-element operation order. */
inline void
pairGroupsScalar(cd *data, size_t g0, size_t g1, const PairKernel &pk)
{
    const PairKernel k = pk; // locals: the stores below cannot alias
    cd ma[16], mb[16];
    for (int e = 0; e < 16; ++e) {
        ma[e] = k.pre_a ? (*k.pre_a)[e] : cd{};
        mb[e] = k.pre_b ? (*k.pre_b)[e] : cd{};
    }
    cd v[16];
    for (size_t g = g0; g < g1; ++g) {
        cd *base = data + pairGroupBase(g, k.pos);
#pragma GCC unroll 16
        for (int e = 0; e < 16; ++e)
            v[e] = base[k.from[e]];
        if (k.pre_a) {
#pragma GCC unroll 4
            for (int j = 0; j < 4; ++j)
                quad4(v, ma, kPairQuadA[j]);
        }
        if (k.pre_b) {
#pragma GCC unroll 4
            for (int j = 0; j < 4; ++j)
                quad4(v, mb, kPairQuadB[j]);
        }
        pairGroupTail(v, base, k);
    }
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

/** row[j] *= pi * conj(ph[j]) over whole chunks (density-matrix
 *  DiagPhase). */
EFTVQA_SIMD_TARGET inline void
kernRowScalePhase(cd *row, size_t n_chunks, cd pi, const cd *ph)
{
    const CVec pv = vbroadcast(pi);
    for (size_t c = 0; c < n_chunks; ++c) {
        const size_t j = c * kLanes;
        const CVec w = vcmul(pv, vconj(vload(ph + j)));
        vstore(row + j, vcmul(vload(row + j), w));
    }
}

/** Density-matrix xor-mask row pair: swap row_i[c] with
 *  row_i2[c ^ f], all columns. */
EFTVQA_SIMD_TARGET inline void
kernXorRowsSwap(cd *row_i, cd *row_i2, size_t c0, size_t c1,
                uint64_t f_hi, unsigned f_lo)
{
    for (size_t c = c0; c < c1; ++c) {
        const size_t j = c * kLanes;
        const CVec a = vload(row_i + j);
        const CVec b = vload(row_i2 + (j ^ f_hi));
        vstore(row_i + j, vlanePermuteXor(b, f_lo));
        vstore(row_i2 + (j ^ f_hi), vlanePermuteXor(a, f_lo));
    }
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

/** Density-matrix diagonal bucket: sum_i (+-) Re(rho_ii). */
EFTVQA_SIMD_TARGET inline void
kernSweepDmDiag(const cd *data, size_t d, uint64_t start, size_t len,
                size_t lanes, const uint64_t *z, cd *out)
{
    SweepAcc s;
    s.init(lanes, z);
    alignas(64) cd buf[kLanes];
    for (uint64_t i = start; i < start + len; i += kLanes) {
        for (size_t l = 0; l < kLanes; ++l)
            buf[l] = cd{data[(i + l) * d + (i + l)].real(), 0.0};
        s.accumulate(i, z, vfromArray(buf));
    }
    s.reduce(out);
}

/** Density-matrix off-diagonal band: sum_i (+-) rho[i, i ^ xm]. */
EFTVQA_SIMD_TARGET inline void
kernSweepDmBand(const cd *data, size_t d, uint64_t start, size_t len,
                uint64_t xm, size_t lanes, const uint64_t *z, cd *out)
{
    SweepAcc s;
    s.init(lanes, z);
    alignas(64) cd buf[kLanes];
    for (uint64_t i = start; i < start + len; i += kLanes) {
        for (size_t l = 0; l < kLanes; ++l)
            buf[l] = data[(i + l) * d + ((i + l) ^ xm)];
        s.accumulate(i, z, vfromArray(buf));
    }
    s.reduce(out);
}

/** Pair2q quad: out[r] = sum_c u[4r + c] x[c], left to right. */
EFTVQA_SIMD_TARGET inline void
kernQuad4(CVec *v, const CVec *u, const uint8_t (&q)[4])
{
    const CVec x0 = v[q[0]], x1 = v[q[1]], x2 = v[q[2]], x3 = v[q[3]];
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r)
        v[q[r]] = vadd(vadd(vadd(vcmul(u[4 * r], x0),
                                 vcmul(u[4 * r + 1], x1)),
                            vcmul(u[4 * r + 2], x2)),
                       vcmul(u[4 * r + 3], x3));
}

/** Pair2q pass, lowest varied bit >= lane width: chunk c holds groups
 *  [c kLanes, (c + 1) kLanes), adjacent in every one of the 16 slots. */
EFTVQA_SIMD_TARGET inline void
kernPair2q(cd *data, size_t c0, size_t c1, const PairKernel &pk)
{
    const PairKernel k = pk; // locals: the stores below cannot alias
    CVec ua[16], ub[16];
    for (int e = 0; e < 16; ++e) {
        ua[e] = vbroadcast(k.pre_a ? (*k.pre_a)[e] : cd{});
        ub[e] = vbroadcast(k.pre_b ? (*k.pre_b)[e] : cd{});
    }
    CVec v[16];
    for (size_t c = c0; c < c1; ++c) {
        cd *base = data + pairGroupBase(c * kLanes, k.pos);
#pragma GCC unroll 16
        for (int e = 0; e < 16; ++e)
            v[e] = vload(base + k.from[e]);
        if (k.pre_a) {
#pragma GCC unroll 4
            for (int j = 0; j < 4; ++j)
                kernQuad4(v, ua, kPairQuadA[j]);
        }
        if (k.pre_b) {
#pragma GCC unroll 4
            for (int j = 0; j < 4; ++j)
                kernQuad4(v, ub, kPairQuadB[j]);
        }
        if (k.depol) {
            CVec t = vscale(vadd(vadd(vadd(v[0], v[5]), v[10]), v[15]),
                            k.quarter_mix);
            vopaque(t); // keep each mul and add unfused
#pragma GCC unroll 16
            for (int e = 0; e < 16; ++e)
                v[e] = vscale(v[e], k.keep);
            for (const int e : {0, 5, 10, 15}) {
                vopaque(v[e]);
                v[e] = vadd(v[e], t);
            }
        }
#pragma GCC unroll 16
        for (int e = 0; e < 16; ++e)
            vstore(base + k.to[e], k.flip[e] ? vscale(v[e], -1.0) : v[e]);
    }
}

/**
 * Pair2q pass when bit 0 is one of the four varied bits (the bra bit
 * of qubit a when lane_bit = 2, of qubit b when lane_bit = 1) and the
 * next one is at least log2(kLanes): each vector holds that bit's two
 * values for kLanes/2 adjacent groups, so a group lives in 8 vectors.
 * The pre-ops run in lanes; depolarizing and the permuted stores run
 * per group from a small buffer, in the scalar order.
 */
EFTVQA_SIMD_TARGET inline void
kernPair2qBit0(cd *data, size_t c0, size_t c1, const PairKernel &pk,
               int lane_bit)
{
    const PairKernel k = pk; // locals: the stores below cannot alias
    // Group element e lives in vector half(e), lane bit (e & lane_bit).
    const auto half = [lane_bit](int e) {
        return ((e >> 1) & ~(lane_bit - 1)) | (e & (lane_bit - 1));
    };
    const bool lane_is_a = lane_bit == 2;
    // The lane qubit's four quads as (A, B) vector pairs; the other
    // qubit's two lane-bit-0 quads as vector quads.
    const uint8_t (*lane_quads)[4] = lane_is_a ? kPairQuadA : kPairQuadB;
    const uint8_t (*other_quads)[4] = lane_is_a ? kPairQuadB : kPairQuadA;
    uint8_t lq[4][2], oq[2][4];
    for (int j = 0; j < 4; ++j) {
        lq[j][0] = static_cast<uint8_t>(half(lane_quads[j][0]));
        lq[j][1] = static_cast<uint8_t>(half(lane_quads[j][2]));
    }
    for (int j = 0; j < 2; ++j)
        for (int r = 0; r < 4; ++r)
            oq[j][r] = static_cast<uint8_t>(half(other_quads[2 * j][r]));
    const Mat4 *lane_pre = lane_is_a ? k.pre_a : k.pre_b;
    const Mat4 *other_pre = lane_is_a ? k.pre_b : k.pre_a;
    CVec lp[8], ou[16];
    if (lane_pre)
        rowPairPatterns(*lane_pre, lp);
    for (int e = 0; e < 16; ++e)
        ou[e] = vbroadcast(other_pre ? (*other_pre)[e] : cd{});
    const auto laneQuads = [&](CVec *w) {
        for (int j = 0; j < 4; ++j)
            kernPairQuad(w[lq[j][0]], w[lq[j][1]], lp);
    };
    const auto otherQuads = [&](CVec *w) {
        for (int j = 0; j < 2; ++j)
            kernQuad4(w, ou, oq[j]);
    };
    uint64_t from[8];
    uint8_t slot[16];
    for (int e = 0; e < 16; ++e) {
        if (!(e & lane_bit))
            from[half(e)] = k.from[e];
        slot[e] = static_cast<uint8_t>(half(e) * kLanes +
                                       ((e & lane_bit) ? 1 : 0));
    }
    CVec w[8];
    cd buf[8 * kLanes];
    cd v[16];
    for (size_t c = c0; c < c1; ++c) {
        cd *base = data + pairGroupBase(c * (kLanes / 2), k.pos);
#pragma GCC unroll 8
        for (int j = 0; j < 8; ++j)
            w[j] = vload(base + from[j]);
        if (k.pre_a) {
            if (lane_is_a)
                laneQuads(w);
            else
                otherQuads(w);
        }
        if (k.pre_b) {
            if (lane_is_a)
                otherQuads(w);
            else
                laneQuads(w);
        }
#pragma GCC unroll 8
        for (int j = 0; j < 8; ++j)
            vstore(buf + j * kLanes, w[j]);
        for (size_t g = 0; g < kLanes / 2; ++g) {
            for (int e = 0; e < 16; ++e)
                v[e] = buf[slot[e] + 2 * g];
            pairGroupTail(v, base + 2 * g, k);
        }
    }
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

/** Pair2q pass over [data, data + span) (always executes: vector
 *  lanes run across adjacent groups when the lowest varied bit is at
 *  least the lane width, the scalar reference otherwise). */
inline void
applyPair2q(cd *data, size_t span, const PairKernel &pk, bool parallel)
{
    const size_t groups = span / 16;
#if defined(EFTVQA_SIMD_VECTOR)
    if (enabled() && (uint64_t{1} << pk.pos[0]) >= kLanes) {
        detail::forSlices(
            groups / kLanes, parallel,
            [&](size_t c0, size_t c1) {
                detail::kernPair2q(data, c0, c1, pk);
            },
            16 * kLanes);
        return;
    }
    // Bit 0 is a bra bit (the from offsets of elements 1 and 2 are the
    // bra_b and bra_a masks).
    const int lane_bit = pk.from[1] == 1 ? 1 : pk.from[2] == 1 ? 2 : 0;
    if (enabled() && lane_bit && (uint64_t{1} << pk.pos[1]) >= kLanes) {
        detail::forSlices(
            groups / (kLanes / 2), parallel,
            [&](size_t c0, size_t c1) {
                detail::kernPair2qBit0(data, c0, c1, pk, lane_bit);
            },
            8 * kLanes);
        return;
    }
#endif
    detail::forSlices(
        groups, parallel,
        [&](size_t g0, size_t g1) {
            detail::pairGroupsScalar(data, g0, g1, pk);
        },
        16);
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

/** row[j] *= pi * conj(ph[j]) over n columns. */
inline void
rowScalePhase(cd *row, size_t n, cd pi, const cd *ph)
{
    size_t j = 0;
#if defined(EFTVQA_SIMD_VECTOR)
    if (enabled() && n >= kLanes) {
        detail::kernRowScalePhase(row, n / kLanes, pi, ph);
        j = (n / kLanes) * kLanes;
    }
#endif
    for (; j < n; ++j)
        row[j] *= pi * std::conj(ph[j]);
}

/** Density-matrix xor-mask row pair swap with column xor f < d. */
inline bool
tryXorRowsSwap(cd *row_i, cd *row_i2, size_t d, uint64_t f)
{
#if defined(EFTVQA_SIMD_VECTOR)
    if (!enabled() || d < kLanes)
        return false;
    detail::kernXorRowsSwap(row_i, row_i2, 0, d / kLanes,
                            f & ~uint64_t{kLanes - 1},
                            static_cast<unsigned>(f & (kLanes - 1)));
    return true;
#else
    (void)row_i;
    (void)row_i2;
    (void)d;
    (void)f;
    return false;
#endif
}

#if defined(EFTVQA_SIMD_VECTOR)
namespace detail {

/** Fixed slice count for the sweep: partials are merged in slice
 *  order, so the result is identical for any OpenMP thread count
 *  (including 1) and for the sharded serial path — the slicing
 *  depends only on the traversal length. */
inline constexpr size_t kSweepSlices = 8;

template <class SliceFn>
inline void
sweepSliced(size_t dim, size_t lanes, bool parallel, double *out_re,
            double *out_im, SliceFn &&slice)
{
    const size_t nslices =
        dim >= kSweepSlices * kLanes * 2 ? kSweepSlices : 1;
    cd partial[kSweepSlices][4];
    const size_t len = dim / nslices;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (                               \
        parallel && nslices > 1 && dim >= kParallelGrainAmps)
#endif
    for (int64_t s = 0; s < static_cast<int64_t>(nslices); ++s)
        slice(static_cast<uint64_t>(s) * len, len,
              partial[static_cast<size_t>(s)]);
#ifndef _OPENMP
    (void)parallel;
#endif
    for (size_t k = 0; k < lanes; ++k) {
        double re = 0.0, im = 0.0;
        for (size_t s = 0; s < nslices; ++s) {
            re += partial[s][k].real();
            im += partial[s][k].imag();
        }
        out_re[k] = re;
        out_im[k] = im;
    }
}

} // namespace detail
#endif

/**
 * Statevector expectation sweep chunk (up to 4 terms sharing an
 * X-mask). Returns false when the vector path is unavailable; the
 * caller then runs the scalar lane sweep.
 */
inline bool
trySweepChunkSv(const cd *data, size_t dim, uint64_t xm, size_t lanes,
                const uint64_t *z, bool parallel, double *out_re,
                double *out_im)
{
#if defined(EFTVQA_SIMD_VECTOR)
    if (!enabled() || dim < kLanes)
        return false;
    if (xm == 0)
        detail::sweepSliced(dim, lanes, parallel, out_re, out_im,
                            [&](uint64_t start, size_t len, cd *out) {
                                detail::kernSweepSvDiag(data, start,
                                                        len, lanes, z,
                                                        out);
                            });
    else
        detail::sweepSliced(dim, lanes, parallel, out_re, out_im,
                            [&](uint64_t start, size_t len, cd *out) {
                                detail::kernSweepSvBand(data, start,
                                                        len, xm, lanes,
                                                        z, out);
                            });
    return true;
#else
    (void)data;
    (void)dim;
    (void)xm;
    (void)lanes;
    (void)z;
    (void)parallel;
    (void)out_re;
    (void)out_im;
    return false;
#endif
}

/** Density-matrix expectation sweep chunk. */
inline bool
trySweepChunkDm(const cd *data, size_t d, uint64_t xm, size_t lanes,
                const uint64_t *z, bool parallel, double *out_re,
                double *out_im)
{
#if defined(EFTVQA_SIMD_VECTOR)
    if (!enabled() || d < kLanes)
        return false;
    if (xm == 0)
        detail::sweepSliced(d, lanes, parallel, out_re, out_im,
                            [&](uint64_t start, size_t len, cd *out) {
                                detail::kernSweepDmDiag(data, d, start,
                                                        len, lanes, z,
                                                        out);
                            });
    else
        detail::sweepSliced(d, lanes, parallel, out_re, out_im,
                            [&](uint64_t start, size_t len, cd *out) {
                                detail::kernSweepDmBand(data, d, start,
                                                        len, xm, lanes,
                                                        z, out);
                            });
    return true;
#else
    (void)data;
    (void)d;
    (void)xm;
    (void)lanes;
    (void)z;
    (void)parallel;
    (void)out_re;
    (void)out_im;
    return false;
#endif
}

} // namespace simd
} // namespace eftvqa

#endif // EFTVQA_SIM_SIMD_HPP
