/**
 * @file
 * Tests for the density-matrix simulator and its noise channels.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/density_matrix.hpp"

using namespace eftvqa;

namespace {

using cd = std::complex<double>;

/** sigma(x, z) in the order of the Pauli index 2 x + z: I, Z, X, Y. */
const Mat2 kSigma[4] = {
    Mat2{1.0, 0.0, 0.0, 1.0},
    Mat2{1.0, 0.0, 0.0, -1.0},
    Mat2{0.0, 1.0, 1.0, 0.0},
    Mat2{0.0, cd{0.0, -1.0}, cd{0.0, 1.0}, 0.0},
};

/** Row-major 4x4 complex matrix, written out for the tests. */
using M4 = std::array<cd, 16>;

M4
mul4(const M4 &a, const M4 &b)
{
    M4 m{};
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            for (int k = 0; k < 4; ++k)
                m[4 * r + c] += a[4 * r + k] * b[4 * k + c];
    return m;
}

M4
dag4(const M4 &a)
{
    M4 m{};
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            m[4 * r + c] = std::conj(a[4 * c + r]);
    return m;
}

/** Two-qubit Pauli k = 8 x_a + 4 x_b + 2 z_a + z_b over the basis
 *  |a b>, index 2 a + b. */
M4
pairPauli(int k)
{
    const Mat2 &pa = kSigma[2 * ((k >> 3) & 1) + ((k >> 1) & 1)];
    const Mat2 &pb = kSigma[2 * ((k >> 2) & 1) + (k & 1)];
    M4 m{};
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            for (int r = 0; r < 2; ++r)
                for (int c = 0; c < 2; ++c)
                    m[4 * (2 * i + j) + 2 * r + c] =
                        pa[2 * i + r] * pb[2 * j + c];
    return m;
}

/** Tr(a b) of 2x2 matrices. */
cd
trace2(const Mat2 &a, const Mat2 &b)
{
    return a[0] * b[0] + a[1] * b[2] + a[2] * b[1] + a[3] * b[3];
}

/** Random circuit over 1q gates and CX/CZ/Swap. */
Circuit
randomCircuit(size_t n, size_t n_gates, uint64_t seed)
{
    Rng rng(seed);
    Circuit c(n);
    const GateType one_q[] = {GateType::H,  GateType::S,  GateType::T,
                              GateType::Rx, GateType::Ry, GateType::Rz};
    const GateType two_q[] = {GateType::CX, GateType::CZ, GateType::Swap};
    for (size_t g = 0; g < n_gates; ++g) {
        if (rng.uniform() < 0.4) {
            const auto a = static_cast<uint32_t>(rng.uniformInt(n));
            auto b = static_cast<uint32_t>(rng.uniformInt(n - 1));
            if (b >= a)
                ++b;
            c.add(Gate(two_q[rng.uniformInt(3)], a, b));
            continue;
        }
        const GateType t = one_q[rng.uniformInt(std::size(one_q))];
        const auto q = static_cast<uint32_t>(rng.uniformInt(n));
        if (isRotationType(t))
            c.add(Gate::rotation(t, q, rng.uniform(-M_PI, M_PI)));
        else
            c.add(Gate(t, q));
    }
    return c;
}

/** Pauli string with per-qubit labels from the digits of @p code
 *  (base 4, Pauli enum order) times i^e. */
PauliString
pauliFromCode(size_t n, size_t code, int e)
{
    PauliString p(n);
    for (size_t q = 0; q < n; ++q, code /= 4)
        p.set(q, static_cast<Pauli>(code % 4));
    p.multiplyByI(e - p.phaseExponent());
    return p;
}

} // namespace

TEST(DensityMatrix, StartsPureZero)
{
    DensityMatrix rho(2);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
    EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("ZI")), 1.0, 1e-12);
}

TEST(DensityMatrix, MatchesStatevectorOnUnitaries)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.rz(1, 0.4);
    c.ry(2, 0.9);
    c.cz(1, 2);
    c.swap(0, 2);

    Statevector psi(3);
    psi.run(c);
    DensityMatrix rho(3);
    rho.run(c);

    for (const char *label : {"XII", "IYI", "IIZ", "XYZ", "ZZI"}) {
        const auto p = PauliString::fromLabel(label);
        EXPECT_NEAR(rho.expectation(p), psi.expectation(p), 1e-10)
            << label;
    }
    EXPECT_NEAR(rho.fidelityWithPure(psi), 1.0, 1e-10);
}

TEST(DensityMatrix, SetPureStateReproducesExpectations)
{
    Statevector psi(2);
    psi.applyGate(Gate(GateType::H, 0));
    psi.applyGate(Gate(GateType::CX, 0, 1));
    DensityMatrix rho(2);
    rho.setPureState(psi);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("XX")), 1.0, 1e-12);
    EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
}

TEST(DensityMatrix, FullDepolarizingGivesMaximallyMixedQubit)
{
    DensityMatrix rho(1);
    rho.applyGate(Gate(GateType::H, 0));
    // p = 3/4 fully depolarizes a single qubit.
    rho.applyPauliChannel1q(depolarizingPauliChannel(0.75), 0);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("X")), 0.0, 1e-12);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("Z")), 0.0, 1e-12);
    EXPECT_NEAR(rho.purity(), 0.5, 1e-12);
}

TEST(DensityMatrix, PauliChannelDampsBlochVector)
{
    DensityMatrix rho(1);
    rho.applyGate(Gate(GateType::H, 0)); // <X> = 1
    PauliChannel ch;
    ch.pz = 0.1; // phase flips shrink <X> by (1 - 2 pz)
    rho.applyPauliChannel1q(ch, 0);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("X")), 0.8, 1e-12);
}

TEST(DensityMatrix, KrausPathMatchesFastPath)
{
    // Generic Kraus application of depolarizing == closed-form path.
    DensityMatrix a(2), b(2);
    Circuit prep(2);
    prep.h(0);
    prep.cx(0, 1);
    prep.rz(1, 0.3);
    a.run(prep);
    b.run(prep);

    a.applyKraus1q(depolarizingChannel(0.2), 1);
    b.applyPauliChannel1q(depolarizingPauliChannel(0.2), 1);
    for (const char *label : {"XX", "ZZ", "IZ", "YX"}) {
        const auto p = PauliString::fromLabel(label);
        EXPECT_NEAR(a.expectation(p), b.expectation(p), 1e-10) << label;
    }
}

TEST(DensityMatrix, AmplitudeDampingDrivesToGround)
{
    DensityMatrix rho(1);
    rho.applyGate(Gate(GateType::X, 0)); // |1>
    rho.applyAmplitudeDamping(1.0, 0);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("Z")), 1.0, 1e-12);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

TEST(DensityMatrix, AmplitudeDampingPartial)
{
    DensityMatrix rho(1);
    rho.applyGate(Gate(GateType::X, 0));
    rho.applyAmplitudeDamping(0.3, 0);
    // <Z> = p0 - p1 = 0.3 - 0.7 = -0.4.
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("Z")), -0.4, 1e-12);
}

TEST(DensityMatrix, PhaseDampingKillsCoherence)
{
    DensityMatrix rho(1);
    rho.applyGate(Gate(GateType::H, 0));
    rho.applyPhaseDamping(1.0, 0);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("X")), 0.0, 1e-12);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("Z")), 0.0, 1e-12);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

TEST(DensityMatrix, ThermalRelaxationMatchesKrausChannel)
{
    const double t1 = 100e3, t2 = 80e3, t = 500.0;
    DensityMatrix a(1), b(1);
    a.applyGate(Gate(GateType::H, 0));
    b.applyGate(Gate(GateType::H, 0));
    a.applyThermalRelaxation(t1, t2, t, 0);
    b.applyKraus1q(thermalRelaxationChannel(t1, t2, t), 0);
    for (const char *label : {"X", "Y", "Z"}) {
        const auto p = PauliString::fromLabel(label);
        EXPECT_NEAR(a.expectation(p), b.expectation(p), 1e-10) << label;
    }
}

TEST(DensityMatrix, Depolarizing2qFullMixesPair)
{
    DensityMatrix rho(2);
    rho.applyGate(Gate(GateType::H, 0));
    rho.applyGate(Gate(GateType::CX, 0, 1));
    rho.applyDepolarizing2q(15.0 / 16.0, 0, 1); // full depolarization
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("XX")), 0.0, 1e-10);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("ZZ")), 0.0, 1e-10);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
    EXPECT_NEAR(rho.purity(), 0.25, 1e-10);
}

TEST(DensityMatrix, Depolarizing2qSmallErrorDampsCorrelations)
{
    DensityMatrix rho(2);
    rho.applyGate(Gate(GateType::H, 0));
    rho.applyGate(Gate(GateType::CX, 0, 1));
    rho.applyDepolarizing2q(0.1, 0, 1);
    // Non-identity two-qubit Paulis shrink by (1 - 16p/15).
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("XX")),
                1.0 - 16.0 * 0.1 / 15.0, 1e-10);
}

TEST(DensityMatrix, MeasurementDephaseKeepsDiagonal)
{
    DensityMatrix rho(1);
    rho.applyGate(Gate::rotation(GateType::Ry, 0, 0.7));
    const double z_before =
        rho.expectation(PauliString::fromLabel("Z"));
    rho.applyMeasurementDephase(0);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("Z")), z_before,
                1e-12);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("X")), 0.0, 1e-12);
}

TEST(DensityMatrix, ResetChannel)
{
    DensityMatrix rho(2);
    rho.applyGate(Gate(GateType::X, 0));
    rho.applyGate(Gate(GateType::H, 1));
    rho.applyResetChannel(0);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("ZI")), 1.0, 1e-12);
    // Other qubit untouched.
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("IX")), 1.0, 1e-12);
}

TEST(DensityMatrix, ProbabilityOfOne)
{
    DensityMatrix rho(1);
    rho.applyGate(Gate::rotation(GateType::Ry, 0, M_PI / 3));
    EXPECT_NEAR(rho.probabilityOfOne(0),
                std::sin(M_PI / 6) * std::sin(M_PI / 6), 1e-12);
}

TEST(DensityMatrixPauliBasis, PairPermutationsMatchConjugation)
{
    // Each table entry: U P_k U^dag = sign P_k' for all 16 pair Paulis,
    // qubit a = q0 (control of CX) the high bit of the basis |a b>.
    M4 cx{}, cz{}, swap{};
    for (int a = 0; a < 2; ++a)
        for (int b = 0; b < 2; ++b) {
            cx[4 * (2 * a + (a ^ b)) + 2 * a + b] = 1.0;
            cz[4 * (2 * a + b) + 2 * a + b] = (a & b) ? -1.0 : 1.0;
            swap[4 * (2 * b + a) + 2 * a + b] = 1.0;
        }
    const std::pair<PairPerm, M4> gates[] = {
        {PairPerm::CX, cx}, {PairPerm::CZ, cz}, {PairPerm::Swap, swap}};
    for (const auto &[perm, u] : gates)
        for (int k = 0; k < 16; ++k) {
            const PauliImage img = pairPauliImage(perm, k);
            ASSERT_TRUE(img.sign == 1 || img.sign == -1);
            const M4 got = mul4(mul4(u, pairPauli(k)), dag4(u));
            const M4 want = pairPauli(img.k);
            for (int e = 0; e < 16; ++e)
                EXPECT_EQ(got[e], static_cast<double>(img.sign) * want[e])
                    << "perm " << static_cast<int>(perm) << " k " << k;
        }
    for (int k = 0; k < 16; ++k) {
        EXPECT_EQ(pairPauliImage(PairPerm::None, k).k, k);
        EXPECT_EQ(pairPauliImage(PairPerm::None, k).sign, 1);
    }
}

TEST(DensityMatrixPauliBasis, ChannelTransferMatricesMatchKrausAction)
{
    // R[a][b] = Tr(P_a L(P_b)) / 2 with L(P) = sum_k K P K^dag,
    // P in (I, Z, X, Y).
    const double s7 = std::sqrt(0.7), s3 = std::sqrt(0.3);
    const double s6 = std::sqrt(0.6), s4 = std::sqrt(0.4);
    const PauliChannel pch{0.1, 0.05, 0.2};
    const KrausChannel pauli_kraus{
        {Mat2{std::sqrt(pch.pIdentity()), 0.0, 0.0,
              std::sqrt(pch.pIdentity())},
         Mat2{0.0, std::sqrt(pch.px), std::sqrt(pch.px), 0.0},
         Mat2{0.0, cd{0.0, -std::sqrt(pch.py)}, cd{0.0, std::sqrt(pch.py)},
              0.0},
         Mat2{std::sqrt(pch.pz), 0.0, 0.0, -std::sqrt(pch.pz)}}};
    const std::pair<const char *, std::pair<Ptm, KrausChannel>> cases[] = {
        {"amplitudeDamping",
         {superop::amplitudeDamping(0.3),
          KrausChannel{{Mat2{1.0, 0.0, 0.0, s7}, Mat2{0.0, s3, 0.0, 0.0}}}}},
        {"phaseDamping",
         {superop::phaseDamping(0.4),
          KrausChannel{{Mat2{1.0, 0.0, 0.0, s6}, Mat2{0.0, 0.0, 0.0, s4}}}}},
        {"thermalRelaxation",
         {superop::thermalRelaxation(100.0, 80.0, 30.0),
          thermalRelaxationChannel(100.0, 80.0, 30.0)}},
        {"pauli", {superop::pauli(pch), pauli_kraus}},
        {"measureDephase",
         {superop::measureDephase(),
          KrausChannel{{Mat2{1.0, 0.0, 0.0, 0.0}, Mat2{0.0, 0.0, 0.0, 1.0}}}}},
        {"reset",
         {superop::reset(),
          KrausChannel{{Mat2{1.0, 0.0, 0.0, 0.0}, Mat2{0.0, 1.0, 0.0, 0.0}}}}},
        {"kraus(depolarizing)",
         {superop::kraus(depolarizingChannel(0.2)), depolarizingChannel(0.2)}},
        {"conjugation(H)",
         {superop::conjugation(gateMatrix1q(GateType::H)),
          KrausChannel{{gateMatrix1q(GateType::H)}}}},
        {"conjugation(S)",
         {superop::conjugation(gateMatrix1q(GateType::S)),
          KrausChannel{{gateMatrix1q(GateType::S)}}}},
        {"conjugation(Ry)",
         {superop::conjugation(gateMatrix1q(GateType::Ry, 0.7)),
          KrausChannel{{gateMatrix1q(GateType::Ry, 0.7)}}}},
        {"conjugation(Rz)",
         {superop::conjugation(gateMatrix1q(GateType::Rz, -1.1)),
          KrausChannel{{gateMatrix1q(GateType::Rz, -1.1)}}}},
    };
    for (const auto &[name, pair] : cases) {
        const auto &[ptm, channel] = pair;
        for (int b = 0; b < 4; ++b) {
            Mat2 img{};
            for (const Mat2 &k : channel.ops) {
                const Mat2 t = matmul(matmul(k, kSigma[b]), dagger(k));
                for (int e = 0; e < 4; ++e)
                    img[e] += t[e];
            }
            for (int a = 0; a < 4; ++a) {
                const cd want = 0.5 * trace2(kSigma[a], img);
                EXPECT_NEAR(want.imag(), 0.0, 1e-14) << name;
                EXPECT_NEAR(ptm[4 * a + b], want.real(), 1e-14)
                    << name << " R[" << a << "][" << b << "]";
            }
        }
    }
}

TEST(DensityMatrixPauliBasis, ExpectationMatchesStatevectorOnRandomStates)
{
    // Every Pauli string (Y-heavy ones included) at every phase
    // exponent: run() through the stream and setPureState() through
    // the basis change both agree with the statevector.
    for (const size_t n : {3u, 4u})
        for (uint64_t seed = 0; seed < 3; ++seed) {
            const Circuit c = randomCircuit(n, 30, 500 * n + seed);
            Statevector psi(n);
            psi.run(c);
            DensityMatrix ran(n), pure(n);
            ran.run(c);
            pure.setPureState(psi);
            for (size_t code = 0; code < (size_t{1} << (2 * n)); ++code)
                for (int e = 0; e < 4; ++e) {
                    const PauliString p = pauliFromCode(n, code, e);
                    const double want = psi.expectation(p);
                    EXPECT_NEAR(ran.expectation(p), want, 1e-12)
                        << p.toString() << " n=" << n << " seed=" << seed;
                    EXPECT_NEAR(pure.expectation(p), want, 1e-12)
                        << p.toString() << " n=" << n << " seed=" << seed;
                }
        }
}

TEST(DensityMatrixPauliBasis, ExpectationBatchEqualsPerTermBitForBit)
{
    const size_t n = 4;
    DensityMatrix rho(n);
    rho.run(randomCircuit(n, 40, 77));
    rho.applyAmplitudeDamping(0.1, 2);
    Hamiltonian ham(n);
    Rng rng(5);
    for (size_t code = 1; code < (size_t{1} << (2 * n)); code += 3) {
        // Hermitian: e = #Y, or #Y + 2 (the negated string) on odd codes.
        int n_y = 0;
        for (size_t c = code; c; c /= 4)
            n_y += c % 4 == static_cast<size_t>(Pauli::Y);
        ham.addTerm(rng.uniform(-1.0, 1.0),
                    pauliFromCode(n, code, n_y + (code % 2 ? 2 : 0)));
    }
    const std::vector<double> batch = rho.expectationBatch(ham);
    ASSERT_EQ(batch.size(), ham.nTerms());
    for (size_t k = 0; k < batch.size(); ++k) {
        const double single = rho.expectation(ham.terms()[k].op);
        EXPECT_EQ(std::memcmp(&batch[k], &single, sizeof single), 0)
            << "term " << k;
    }
}

TEST(DensityMatrixPauliBasis, BasisChangeRoundTrips)
{
    const size_t n = 3, d = size_t{1} << n;
    Statevector psi(n);
    psi.run(randomCircuit(n, 25, 9));
    DensityMatrix rho(n);
    rho.setPureState(psi);
    const std::vector<cd> m = rho.toMatrix();
    const auto &a = psi.amplitudes();
    const std::vector<double> probs = rho.diagonalProbabilities();
    const std::vector<double> want = psi.basisProbabilities();
    for (size_t i = 0; i < d; ++i) {
        EXPECT_NEAR(probs[i], want[i], 1e-12) << i;
        for (size_t j = 0; j < d; ++j)
            EXPECT_NEAR(std::abs(m[i * d + j] - a[i] * std::conj(a[j])), 0.0,
                        1e-12);
    }
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
    EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
    EXPECT_NEAR(rho.fidelityWithPure(psi), 1.0, 1e-12);
    double p1 = 0.0;
    for (size_t i = 0; i < d; ++i)
        if (i & 2)
            p1 += want[i];
    EXPECT_NEAR(rho.probabilityOfOne(1), p1, 1e-12);

    // |0..0>: c = 1 on every Z-type string, 0 elsewhere.
    DensityMatrix zero(n);
    for (size_t k = 0; k < zero.data().size(); ++k)
        EXPECT_EQ(zero.data()[k], k < d ? 1.0 : 0.0) << k;
}
