/**
 * @file
 * Parity and determinism contract of the SIMD lane kernels
 * (sim/simd.hpp) and the cache-blocked compiled schedule:
 *
 *  - every vector kernel (1q, fused 4x4, diagonal phase, xor-mask
 *    permutation, measure/reset) must agree with its scalar reference
 *    sweep to <= 1e-12 on randomized states, across strides, small
 *    dims below the lane width, and tail regions;
 *  - expectationBatch must agree between modes on both dense backends;
 *  - toggling the L2 block schedule must be bit-identical;
 *  - EstimationEngine::energies must be bit-identical across OpenMP
 *    thread counts in both SIMD modes;
 *  - the groupByXMask chunk-plan memo must hit on repeat Hamiltonians.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "ansatz/ansatz.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/density_matrix.hpp"
#include "sim/lane_sweep.hpp"
#include "sim/simd.hpp"
#include "sim/statevector.hpp"
#include "vqa/estimation.hpp"

#include "thread_guard.hpp"

using namespace eftvqa;
using cd = std::complex<double>;

namespace {

constexpr double kTol = 1e-12;

/** Pin the SIMD dispatch mode for a scope; restores auto on exit. */
struct SimdModeGuard
{
    explicit SimdModeGuard(int mode) { simd::setSimdMode(mode); }
    ~SimdModeGuard() { simd::setSimdMode(-1); }
};

/** Pin the compiled block mode for a scope; restores auto on exit. */
struct BlockModeGuard
{
    explicit BlockModeGuard(int mode) { setCompiledBlockMode(mode); }
    ~BlockModeGuard() { setCompiledBlockMode(-1); }
};

/** Normalized random state (deterministic in the seed). */
Statevector
randomState(size_t n, uint64_t seed)
{
    Statevector psi(n);
    Rng rng(seed);
    auto &a = psi.amplitudes();
    double norm2 = 0.0;
    for (auto &x : a) {
        x = cd(rng.normal(), rng.normal());
        norm2 += std::norm(x);
    }
    const double s = 1.0 / std::sqrt(norm2);
    for (auto &x : a)
        x *= s;
    return psi;
}

/** Random 2x2 unitary (deterministic in the seed). */
Mat2
randomU2(uint64_t seed)
{
    Rng rng(seed);
    const double a = rng.uniform(0.0, M_PI);
    const double b = rng.uniform(0.0, 2.0 * M_PI);
    const double c = rng.uniform(0.0, 2.0 * M_PI);
    const cd eb = std::polar(1.0, b);
    const cd ec = std::polar(1.0, c);
    return Mat2{cd(std::cos(a)), -eb * std::sin(a), ec * std::sin(a),
                eb * ec * std::cos(a)};
}

/** Random entangling 4x4 unitary: CZ * (U2 (x) U2). */
Mat4
randomU4(uint64_t seed)
{
    const Mat4 cz = gateMatrix2q(Gate(GateType::CZ, 0, 1), 0, 1);
    return matmul4(cz, kron2q(randomU2(seed), randomU2(seed + 101)));
}

template <class Vec>
double
maxAbsDiff(const Vec &a, const Vec &b)
{
    EXPECT_EQ(a.size(), b.size());
    double m = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

Circuit
boundFche(int n, double theta)
{
    const auto ansatz = fcheAnsatz(n, 1);
    return ansatz.bind(
        std::vector<double>(ansatz.nParameters(), theta));
}

/** Output row @p r of PTM @p m over quad elements @p x: the products
 *  of the columns of each source x bit in @p srcs, ascending, summed
 *  left to right. */
double
ptmRow(const double *m, int r, unsigned srcs, const double (&x)[4])
{
    double y = 0.0;
    bool first = true;
    for (int c = 0; c < 4; ++c)
        if (srcs >> (c >> 1) & 1) {
            const double t = m[4 * r + c] * x[c];
            y = first ? t : y + t;
            first = false;
        }
    return y;
}

/** The members in @p mask of every group of pass @p p, group by group
 *  from the pass's fields alone (see simd::PauliPass). */
void
referencePass(simd::RealVector &d, const simd::PauliPass &p, unsigned mask)
{
    // PTM m of qubit q (0: the Quad's or a, 1: b) on the elements
    // v[kq[r]], r = 2 x_q + z_q.
    const auto quad = [&](const double *m, unsigned q, double *v,
                          const int (&kq)[4]) {
        const double x[4] = {v[kq[0]], v[kq[1]], v[kq[2]], v[kq[3]]};
        for (int r = 0; r < 4; ++r)
            v[kq[r]] = ptmRow(m, r, p.src[q][r >> 1], x);
    };
    if (p.kind == simd::PauliPass::Kind::Quad) {
        const uint64_t l = uint64_t{1} << p.lo, h = uint64_t{1} << p.hi;
        const uint64_t off[4] = {0, l, h, h | l};
        for (uint64_t t = 0; t < d.size() / 4; ++t) {
            double *e = d.data() + simd::detail::insertZeroBit(
                                       simd::detail::insertZeroBit(t, p.lo),
                                       p.hi);
            double v[4];
            for (int k = 0; k < 4; ++k)
                v[k] = e[off[k]];
            quad(p.ma, 0, v, {0, 1, 2, 3});
            for (int k = 0; k < 4; ++k)
                if (mask >> (k >> 1) & 1)
                    e[off[k]] = v[k];
        }
        return;
    }
    // Group element k = 8 x_a + 4 x_b + 2 z_a + z_b.
    for (uint64_t g = 0; g < d.size() / 16; ++g) {
        double *base = d.data() + simd::detail::pairGroupBase(g, p.pos);
        double v[16];
        for (int k = 0; k < 16; ++k)
            v[k] = base[p.from[k]];
        // Qubit a's quads vary bits 8 and 2 of k, b's bits 4 and 1.
        for (const int k : {0, 1, 4, 5})
            if (p.pre_a)
                quad(p.ma, 0, v, {k, k + 2, k + 8, k + 10});
        for (const int k : {0, 2, 8, 10})
            if (p.pre_b)
                quad(p.mb, 1, v, {k, k + 1, k + 4, k + 5});
        for (int k = 0; k < 16; ++k)
            if (mask >> (k >> 2) & 1)
                base[p.to[k]] = v[k] * p.fac[k];
    }
}

} // namespace

TEST(SimdKernels, Apply1qParityAllQubitsAndDims)
{
    // Covers stride == 1, strides below the lane width (the scalar
    // fallback) and wide strides, including dims < 2 * kLanes.
    for (const size_t n : {1u, 2u, 3u, 4u, 6u, 10u}) {
        for (size_t q = 0; q < n; ++q) {
            const Mat2 u = randomU2(7 * n + q);
            Statevector ref = randomState(n, 100 + n);
            Statevector vec = ref;
            {
                SimdModeGuard off(0);
                ref.applyMatrix1q(u, q);
            }
            vec.applyMatrix1q(u, q);
            EXPECT_LE(maxAbsDiff(ref.amplitudes(), vec.amplitudes()),
                      kTol)
                << "n=" << n << " q=" << q;
        }
    }
}

TEST(SimdKernels, Apply2qParityAllPairs)
{
    for (const size_t n : {2u, 3u, 4u, 6u, 10u}) {
        for (size_t qa = 0; qa < n; ++qa) {
            for (size_t qb = 0; qb < n; ++qb) {
                if (qa == qb)
                    continue;
                const Mat4 u = randomU4(31 * n + 5 * qa + qb);
                Statevector ref = randomState(n, 200 + n);
                Statevector vec = ref;
                {
                    SimdModeGuard off(0);
                    ref.applyMatrix2q(u, qa, qb);
                }
                vec.applyMatrix2q(u, qa, qb);
                EXPECT_LE(
                    maxAbsDiff(ref.amplitudes(), vec.amplitudes()),
                    kTol)
                    << "n=" << n << " qa=" << qa << " qb=" << qb;
            }
        }
    }
}

TEST(SimdKernels, DiagPhaseParityMaskAndGatherPaths)
{
    // Low contiguous run -> mask-indexed table; scattered / high runs
    // -> gather path; n=2 exercises dims below the lane width.
    const auto cases = std::vector<std::pair<size_t, std::vector<uint32_t>>>{
        {10, {0, 1, 2, 3}},
        {10, {7, 8, 9}},
        {10, {0, 5, 9}},
        {2, {0, 1}},
    };
    for (const auto &[n, qubits] : cases) {
        Circuit c(n);
        double theta = 0.3;
        for (const uint32_t q : qubits) {
            c.rz(q, theta);
            theta += 0.17;
        }
        const CompiledCircuit compiled(c);
        Statevector ref = randomState(n, 300 + n);
        Statevector vec = ref;
        {
            SimdModeGuard off(0);
            ref.runCompiled(compiled);
        }
        vec.runCompiled(compiled);
        EXPECT_LE(maxAbsDiff(ref.amplitudes(), vec.amplitudes()), kTol)
            << "n=" << n;
    }
}

TEST(SimdKernels, Gf2PermParity)
{
    for (const size_t n : {3u, 10u}) {
        Circuit c(n);
        c.x(0);
        if (n > 3) {
            c.cx(1, 4);
            c.swap(2, 7);
            c.cx(6, 0);
            c.x(static_cast<uint32_t>(n - 1));
        } else {
            c.cx(0, 2);
            c.swap(1, 2);
        }
        const CompiledCircuit compiled(c);
        Statevector ref = randomState(n, 400 + n);
        Statevector vec = ref;
        {
            SimdModeGuard off(0);
            ref.runCompiled(compiled);
        }
        vec.runCompiled(compiled);
        EXPECT_LE(maxAbsDiff(ref.amplitudes(), vec.amplitudes()), kTol)
            << "n=" << n;
    }
}

TEST(SimdKernels, MeasureResetParity)
{
    const size_t n = 10;
    Statevector ref = randomState(n, 55);
    Statevector vec = ref;
    int out_ref = -1, out_vec = -1;
    {
        SimdModeGuard off(0);
        Rng rng(9);
        out_ref = ref.measure(3, rng);
        ref.reset(7, rng);
    }
    {
        Rng rng(9);
        out_vec = vec.measure(3, rng);
        vec.reset(7, rng);
    }
    EXPECT_EQ(out_ref, out_vec);
    EXPECT_LE(maxAbsDiff(ref.amplitudes(), vec.amplitudes()), kTol);
}

TEST(SimdKernels, ExpectationBatchParityStatevector)
{
    const int n = 10;
    Statevector psi(static_cast<size_t>(n));
    psi.run(boundFche(n, 0.3));
    for (const auto &ham : {heisenbergHamiltonian(n, 1.0),
                            isingHamiltonian(n, 0.7)}) {
        std::vector<double> ref;
        {
            SimdModeGuard off(0);
            ref = psi.expectationBatch(ham);
        }
        const std::vector<double> vec = psi.expectationBatch(ham);
        ASSERT_EQ(ref.size(), vec.size());
        for (size_t t = 0; t < ref.size(); ++t)
            EXPECT_NEAR(ref[t], vec[t], kTol) << "term " << t;
    }
}

TEST(SimdKernels, DensityMatrixChannelAndBatchParity)
{
    const int n = 6;
    const auto apply = [&](DensityMatrix &rho) {
        rho.run(boundFche(n, 0.3));
        rho.applyAmplitudeDamping(0.05, 0);
        rho.applyPhaseDamping(0.08, 1);
        rho.applyResetChannel(2);
        rho.applyMeasurementDephase(3);
        rho.applyKraus1q(depolarizingChannel(0.02), 4);
        // Entangling pair ops through both qubit orders and the lane
        // bits (q in {0, 1}), with 1q gates between them.
        rho.applyGate(Gate(GateType::CX, 5, 0));
        rho.applyMatrix1q(randomU2(77), 0);
        rho.applyGate(Gate(GateType::CZ, 0, 5));
        rho.applyMatrix1q(randomU2(78), 5);
        rho.applyGate(Gate(GateType::Swap, 1, 5));
        rho.applyDepolarizing2q(0.03, 1, 0);
    };
    DensityMatrix ref(static_cast<size_t>(n));
    DensityMatrix vec(static_cast<size_t>(n));
    {
        SimdModeGuard off(0);
        apply(ref);
    }
    apply(vec);
    EXPECT_LE(maxAbsDiff(ref.data(), vec.data()), kTol);

    const auto ham = heisenbergHamiltonian(n, 1.0);
    std::vector<double> tref;
    {
        SimdModeGuard off(0);
        tref = ref.expectationBatch(ham);
    }
    const std::vector<double> tvec = vec.expectationBatch(ham);
    ASSERT_EQ(tref.size(), tvec.size());
    for (size_t t = 0; t < tref.size(); ++t)
        EXPECT_NEAR(tref[t], tvec[t], kTol) << "term " << t;

    // Tiny density matrices (rows shorter than a vector register) must
    // stay correct through the scalar fallbacks.
    for (const size_t tiny : {1u, 2u}) {
        DensityMatrix a(tiny), b(tiny);
        const Mat2 u = randomU2(5 + tiny);
        {
            SimdModeGuard off(0);
            a.applyMatrix1q(u, 0);
            a.applyAmplitudeDamping(0.1, 0);
        }
        b.applyMatrix1q(u, 0);
        b.applyAmplitudeDamping(0.1, 0);
        EXPECT_LE(maxAbsDiff(a.data(), b.data()), kTol);
    }
}

TEST(SimdKernels, DensityMatrixStreamOpsBitIdentical)
{
    // n = 1..6: every qubit pair in both orders (z bits inside a vector
    // for q in {0, 1}, and x bits inside one for n <= 2), every
    // permutation, with and without pre-ops and depolarizing, plus a
    // Super1q on every qubit: the vector stream kernels must reproduce
    // the scalar reference bit for bit.
    for (size_t n = 1; n <= 6; ++n) {
        std::vector<DmOp> ops;
        uint64_t seed = 1;
        for (uint32_t a = 0; a < n; ++a)
            for (uint32_t b = 0; b < n; ++b) {
                if (a == b)
                    continue;
                for (const PairPerm perm : {PairPerm::None, PairPerm::CX,
                                            PairPerm::CZ, PairPerm::Swap}) {
                    DmOp op;
                    op.kind = DmOpKind::Pair2q;
                    op.perm = perm;
                    op.q0 = a;
                    op.q1 = b;
                    op.pre0 = seed % 2 == 0;
                    op.pre1 = seed % 3 != 0;
                    op.s0 = superop::then(superop::conjugation(randomU2(seed)),
                                          superop::amplitudeDamping(0.1));
                    op.s1 = superop::conjugation(randomU2(seed + 7));
                    op.depol = seed % 4 == 0 ? 0.0 : 0.05;
                    ops.push_back(op);
                    ++seed;
                }
            }
        for (uint32_t q = 0; q < n; ++q) {
            DmOp op;
            op.q0 = q;
            op.s0 = superop::then(superop::conjugation(randomU2(50 + q)),
                                  superop::thermalRelaxation(100, 80, 30));
            ops.push_back(op);
        }
        DensityMatrix ref(n), vec(n);
        ref.setPureState(randomState(n, 3 + n));
        vec.setPureState(randomState(n, 3 + n));
        {
            SimdModeGuard off(0);
            ref.execute(ops);
        }
        vec.execute(ops);
        ASSERT_EQ(ref.data().size(), vec.data().size());
        EXPECT_EQ(std::memcmp(ref.data().data(), vec.data().data(),
                              ref.data().size() * sizeof(double)),
                  0)
            << "n=" << n;
        EXPECT_NEAR(vec.trace(), 1.0, 1e-12) << "n=" << n;

        // Member runs: every op under every member mask and every
        // source choice per qubit and output x bit (this x bit, the
        // other, both), over random coefficients: the scalar kernels
        // match referencePass (sources summed in ascending order, so
        // reading both gives the whole 4x4 product) and the vector
        // kernels the scalar ones, and the members outside the mask
        // stay untouched.
        const size_t size = size_t{1} << (2 * n);
        simd::RealVector data(size);
        for (size_t i = 0; i < size; ++i)
            data[i] = std::sin(0.37 * static_cast<double>(i) + 0.1 * n);
        for (size_t k = 0; k < ops.size(); ++k) {
            const DmOp &op = ops[k];
            const bool pair = op.kind == DmOpKind::Pair2q;
            simd::PauliPass scalar = streamPass(op, n);
            simd::PauliPass vector = scalar;
            {
                SimdModeGuard off(0);
                simd::planPass(scalar, size);
            }
            simd::planPass(vector, size);
            const unsigned choices = pair ? 81 : 9; // 3 per qubit and bit
            for (unsigned c = 0; c < choices; ++c) {
                for (unsigned q = 0, rest = c; q < (pair ? 2u : 1u); ++q)
                    for (unsigned v = 0; v < 2; ++v, rest /= 3)
                        scalar.src[q][v] = vector.src[q][v] =
                            static_cast<uint8_t>(
                                rest % 3 == 2 ? 3 : 1u << (v ^ rest % 3));
                for (unsigned mask = 1; mask <= scalar.allMembers(); ++mask) {
                    const auto members = static_cast<uint8_t>(mask);
                    const simd::PassRange rs{0, scalar.chunks, members};
                    const simd::PassRange rv{0, vector.chunks, members};
                    simd::RealVector want = data, ref = data, got = data;
                    referencePass(want, scalar, mask);
                    simd::detail::runPass(ref.data(), scalar,
                                          {&rs, &rs + 1, 0, scalar.chunks});
                    simd::detail::runPass(got.data(), vector,
                                          {&rv, &rv + 1, 0, vector.chunks});
                    ASSERT_EQ(std::memcmp(want.data(), ref.data(),
                                          size * sizeof(double)),
                              0)
                        << "n=" << n << " op " << k << " sources " << c
                        << " mask " << mask;
                    ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                                          size * sizeof(double)),
                              0)
                        << "n=" << n << " op " << k << " sources " << c
                        << " mask " << mask;
                    // Output member of mask member o: its x bits
                    // through the op's Pauli permutation.
                    unsigned written = 0;
                    for (unsigned o = 0; o < (pair ? 4u : 2u); ++o) {
                        const int image = pairPauliImage(op.perm, 4 * o).k;
                        if (mask >> o & 1)
                            written |= 1u << (pair ? image >> 2 : o);
                    }
                    size_t outside = 0, kept = 0;
                    for (size_t i = 0; i < size; ++i) {
                        const unsigned xa = (i >> (n + op.q0)) & 1;
                        const unsigned out =
                            pair ? 2 * xa + ((i >> (n + op.q1)) & 1) : xa;
                        if (!(written >> out & 1)) {
                            ++outside;
                            kept += ref[i] == data[i];
                        }
                    }
                    ASSERT_EQ(kept, outside)
                        << "n=" << n << " op " << k << " sources " << c
                        << " mask " << mask;
                }
            }
        }
    }

    // The lane paths are the ones exercised above whenever a vector
    // ISA is active: a quad whose z bit sits inside a vector.
    simd::PauliPass quad;
    quad.lo = 0;
    quad.hi = 6;
    simd::planPass(quad, size_t{1} << 12);
    EXPECT_EQ(quad.path, simd::enabled() ? simd::PauliPass::Path::Lanes
                                         : simd::PauliPass::Path::Scalar);
}

TEST(SimdKernels, BlockedScheduleBitIdenticalAndActive)
{
    // 16q > kBlockQubits: the schedule must contain blocked segments
    // and toggling the blocked traversal must not change a single bit.
    const int n = 16;
    const Circuit bound = boundFche(n, 0.3);
    const CompiledCircuit compiled(bound);
    EXPECT_GT(compiled.nBlockedOps(), 0u);

    Statevector flat(static_cast<size_t>(n));
    Statevector blocked(static_cast<size_t>(n));
    {
        BlockModeGuard off(0);
        flat.runCompiled(compiled);
    }
    {
        BlockModeGuard on(1);
        blocked.runCompiled(compiled);
    }
    ASSERT_EQ(flat.dim(), blocked.dim());
    EXPECT_EQ(std::memcmp(flat.amplitudes().data(),
                          blocked.amplitudes().data(),
                          flat.dim() * sizeof(cd)),
              0);

    // At or below the block size the schedule collapses to one flat
    // segment with nothing marked blocked.
    const CompiledCircuit small(boundFche(12, 0.3));
    EXPECT_EQ(small.nBlockedOps(), 0u);
    ASSERT_EQ(small.blockSchedule().size(), 1u);
    EXPECT_FALSE(small.blockSchedule().front().blocked);
}

TEST(SimdKernels, EnergiesBitIdenticalAcrossThreadsAndSimdModes)
{
    const int n = 10;
    const auto ham = heisenbergHamiltonian(n, 1.0);
    std::vector<Circuit> population;
    for (int k = 0; k < 6; ++k)
        population.push_back(
            boundFche(n, 0.1 + 0.07 * static_cast<double>(k)));

    const auto energiesAt = [&](int threads) {
        ThreadGuard guard(threads);
        EstimationEngine engine(ham, EstimationConfig{});
        return engine.energies(population);
    };

    std::vector<double> modes[2];
    for (const int mode : {0, -1}) {
        SimdModeGuard pin(mode);
        const auto e1 = energiesAt(1);
        const auto e2 = energiesAt(2);
        const auto e4 = energiesAt(4);
        EXPECT_EQ(e1, e2) << "mode " << mode;
        EXPECT_EQ(e1, e4) << "mode " << mode;
        modes[mode == 0 ? 0 : 1] = e1;
    }
    ASSERT_EQ(modes[0].size(), modes[1].size());
    for (size_t k = 0; k < modes[0].size(); ++k)
        EXPECT_NEAR(modes[0][k], modes[1][k], kTol) << "genome " << k;
}

TEST(SimdKernels, SweepPlanMemoHitsOnRepeatHamiltonian)
{
    // An odd coupling keeps this Hamiltonian's content hash unique to
    // this test, so the first batch must miss and the rest must hit.
    const auto ham = heisenbergHamiltonian(9, 1.234375);
    Statevector psi(9);
    psi.run(boundFche(9, 0.3));

    const uint64_t h0 = detail::sweepPlanCacheHits();
    const uint64_t m0 = detail::sweepPlanCacheMisses();
    psi.expectationBatch(ham);
    EXPECT_EQ(detail::sweepPlanCacheMisses(), m0 + 1);
    EXPECT_EQ(detail::sweepPlanCacheHits(), h0);
    psi.expectationBatch(ham);
    psi.expectationBatch(ham);
    EXPECT_EQ(detail::sweepPlanCacheMisses(), m0 + 1);
    EXPECT_EQ(detail::sweepPlanCacheHits(), h0 + 2);

    // The memo holds 64 plans: 64 more distinct Hamiltonians push this
    // one out, and its next batch misses again.
    for (int k = 1; k <= 64; ++k)
        detail::sweepChunkPlan(heisenbergHamiltonian(9, 1.234375 + k));
    EXPECT_EQ(detail::sweepPlanCacheMisses(), m0 + 65);
    psi.expectationBatch(ham);
    EXPECT_EQ(detail::sweepPlanCacheMisses(), m0 + 66);
    EXPECT_EQ(detail::sweepPlanCacheHits(), h0 + 2);
}

TEST(SimdKernels, IsaTagTracksDispatchMode)
{
    const bool active = simd::enabled();
    const uint64_t tag_auto = simd::kernelIsaTag();
    uint64_t tag_off = 0;
    {
        SimdModeGuard off(0);
        EXPECT_FALSE(simd::enabled());
        EXPECT_STREQ(simd::activeIsa(), "scalar");
        tag_off = simd::kernelIsaTag();
    }
    // The compile-memo key must distinguish the modes exactly when the
    // vector path is live in auto mode.
    EXPECT_EQ(tag_auto != tag_off, active);
}
