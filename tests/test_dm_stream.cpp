/**
 * @file
 * The noisy density-matrix stream (compileNoisyStream +
 * DensityMatrix::execute) against two oracles:
 *
 *  - a test-only gate-by-gate reference: the ASAP-layered loop that
 *    applies every gate, every trailing channel and every idle slot as
 *    its own pass, with its own hand-written kernels on a plain
 *    row-major matrix in the computational basis. It shares no code
 *    with the Pauli-basis simulator, so it stays as the oracle that
 *    pins the basis change, the transfer matrices and the Pauli
 *    permutation signs together;
 *  - the tableau trajectory farm on random Clifford circuits with
 *    Pauli-only noise, whose mean energy must agree with the stream's
 *    exact energy within 4 sigma of the trajectory spread.
 *
 * A prepared stream runs lazily over the x slices a query reads; the
 * pruned runs are pinned to the full stream's bits, and no value an
 * earlier run left behind may reach a later query.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "ansatz/ansatz.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "noise/noise_model.hpp"
#include "sim/backend.hpp"
#include "sim/density_matrix.hpp"
#include "sim/simd.hpp"
#include "stabilizer/noisy_clifford.hpp"

#include "thread_guard.hpp"

using namespace eftvqa;

namespace {

using cd = std::complex<double>;

/**
 * Gate-by-gate noisy density matrix: rho as a d x d row-major matrix,
 * every gate and channel one full pass.
 */
class ReferenceRho
{
  public:
    explicit ReferenceRho(size_t n)
        : n_(n), d_(size_t{1} << n), m_(d_ * d_, cd{0.0, 0.0})
    {
        m_[0] = 1.0;
    }

    const std::vector<cd> &data() const { return m_; }

    void
    run(const Circuit &circuit, const DmNoiseSpec &spec)
    {
        const auto &gates = circuit.gates();
        std::vector<size_t> qubit_level(n_, 0);
        std::vector<std::vector<size_t>> by_level;
        for (size_t i = 0; i < gates.size(); ++i) {
            const Gate &g = gates[i];
            size_t lvl = qubit_level[g.q0];
            if (g.isTwoQubit())
                lvl = std::max(lvl, qubit_level[g.q1]);
            qubit_level[g.q0] = lvl + 1;
            if (g.isTwoQubit())
                qubit_level[g.q1] = lvl + 1;
            if (by_level.size() <= lvl)
                by_level.resize(lvl + 1);
            by_level[lvl].push_back(i);
        }
        const PauliChannel &rot = spec.rotation;
        const bool idle_noise = spec.use_relaxation || spec.idle_depol > 0.0;
        std::vector<bool> busy(n_);
        for (const auto &layer : by_level) {
            std::fill(busy.begin(), busy.end(), false);
            for (size_t i : layer) {
                const Gate &g = gates[i];
                applyGate(g);
                busy[g.q0] = true;
                if (g.isTwoQubit())
                    busy[g.q1] = true;
                if (isRotationType(g.type)) {
                    if (rot.px + rot.py + rot.pz > 0.0)
                        pauli(rot, g.q0);
                    if (spec.use_relaxation)
                        relax(spec, spec.time_1q_ns, g.q0);
                } else if (g.isTwoQubit()) {
                    if (spec.two_qubit_depol > 0.0)
                        depolarizing2q(spec.two_qubit_depol, g.q0, g.q1);
                    if (spec.use_relaxation) {
                        relax(spec, spec.time_2q_ns, g.q0);
                        relax(spec, spec.time_2q_ns, g.q1);
                    }
                } else if (g.type != GateType::I &&
                           g.type != GateType::Measure &&
                           g.type != GateType::Reset) {
                    if (spec.one_qubit_depol > 0.0)
                        pauli(depolarizingPauliChannel(spec.one_qubit_depol),
                              g.q0);
                    if (spec.use_relaxation)
                        relax(spec, spec.time_1q_ns, g.q0);
                }
            }
            if (!idle_noise)
                continue;
            for (size_t q = 0; q < n_; ++q) {
                if (busy[q])
                    continue;
                if (spec.use_relaxation)
                    relax(spec, spec.time_2q_ns, q);
                if (spec.idle_depol > 0.0)
                    pauli(depolarizingPauliChannel(spec.idle_depol), q);
            }
        }
    }

  private:
    size_t n_, d_;
    std::vector<cd> m_;

    cd &at(size_t i, size_t j) { return m_[i * d_ + j]; }

    /** 2x2 matrix on one bit of the flat 2n-bit index. */
    void
    atBit(const Mat2 &u, size_t bit)
    {
        const size_t stride = size_t{1} << bit;
        for (size_t base = 0; base < m_.size(); base += 2 * stride)
            for (size_t off = 0; off < stride; ++off) {
                const cd a = m_[base + off], b = m_[base + off + stride];
                m_[base + off] = u[0] * a + u[1] * b;
                m_[base + off + stride] = u[2] * a + u[3] * b;
            }
    }

    /** Row permutation then column permutation by an involution. */
    template <class Perm>
    void
    conjugatePerm(Perm perm)
    {
        for (size_t i = 0; i < d_; ++i)
            if (perm(i) > i)
                for (size_t j = 0; j < d_; ++j)
                    std::swap(at(i, j), at(perm(i), j));
        for (size_t j = 0; j < d_; ++j)
            if (perm(j) > j)
                for (size_t i = 0; i < d_; ++i)
                    std::swap(at(i, j), at(i, perm(j)));
    }

    void
    applyGate(const Gate &g)
    {
        const size_t a = size_t{1} << g.q0, b = size_t{1} << g.q1;
        switch (g.type) {
          case GateType::I:
            return;
          case GateType::CX:
            conjugatePerm([&](size_t i) { return (i & a) ? i ^ b : i; });
            return;
          case GateType::CZ:
            for (size_t i = 0; i < d_; ++i)
                for (size_t j = 0; j < d_; ++j)
                    if (((i & a) && (i & b)) != ((j & a) && (j & b)))
                        at(i, j) = -at(i, j);
            return;
          case GateType::Swap:
            conjugatePerm([&](size_t i) {
                return bool(i & a) == bool(i & b) ? i : i ^ a ^ b;
            });
            return;
          case GateType::Measure:
            phaseDamping(1.0, g.q0);
            return;
          case GateType::Reset:
            phaseDamping(1.0, g.q0);
            for (size_t i = 0; i < d_; ++i)
                for (size_t j = 0; j < d_; ++j)
                    if ((i & a) && (j & a)) {
                        at(i ^ a, j ^ a) += at(i, j);
                        at(i, j) = 0.0;
                    }
            return;
          default: {
            const Mat2 u = gateMatrix1q(g.type, g.angle);
            atBit(u, n_ + g.q0);
            atBit({std::conj(u[0]), std::conj(u[1]), std::conj(u[2]),
                   std::conj(u[3])},
                  g.q0);
            return;
          }
        }
    }

    /** Visit every 2x2 (ket bit, bra bit) block of qubit q. */
    template <class Fn>
    void
    blocks(size_t q, Fn fn)
    {
        const size_t s = size_t{1} << q;
        for (size_t i = 0; i < d_; ++i)
            for (size_t j = 0; j < d_; ++j)
                if (!(i & s) && !(j & s))
                    fn(at(i, j), at(i, j | s), at(i | s, j), at(i | s, j | s));
    }

    void
    pauli(const PauliChannel &ch, size_t q)
    {
        const double pi_ = ch.pIdentity();
        blocks(q, [&](cd &a, cd &b, cd &c, cd &d) {
            const cd a0 = a, b0 = b, c0 = c, d0 = d;
            a = (pi_ + ch.pz) * a0 + (ch.px + ch.py) * d0;
            d = (ch.px + ch.py) * a0 + (pi_ + ch.pz) * d0;
            b = (pi_ - ch.pz) * b0 + (ch.px - ch.py) * c0;
            c = (ch.px - ch.py) * b0 + (pi_ - ch.pz) * c0;
        });
    }

    void
    phaseDamping(double lambda, size_t q)
    {
        const double keep = std::sqrt(1.0 - lambda);
        blocks(q, [&](cd &, cd &b, cd &c, cd &) {
            b *= keep;
            c *= keep;
        });
    }

    void
    relax(const DmNoiseSpec &spec, double t, size_t q)
    {
        if (t <= 0.0)
            return;
        const double gamma = 1.0 - std::exp(-t / spec.t1_ns);
        const double ratio = std::exp(-t / spec.t2_ns) / std::sqrt(1.0 - gamma);
        const double keep = std::sqrt(1.0 - gamma);
        blocks(q, [&](cd &a, cd &b, cd &c, cd &d) {
            a += gamma * d;
            d *= 1.0 - gamma;
            b *= keep;
            c *= keep;
        });
        phaseDamping(std::max(0.0, 1.0 - ratio * ratio), q);
    }

    /** Mix toward (pair-traced rho) (x) I/4 through a d^2 buffer. */
    void
    depolarizing2q(double p, size_t q0, size_t q1)
    {
        const double lam = 16.0 * p / 15.0;
        const size_t m0 = size_t{1} << q0, m1 = size_t{1} << q1;
        const size_t pair = m0 | m1;
        std::vector<cd> mixed(m_.size(), cd{0.0, 0.0});
        for (size_t i = 0; i < d_; ++i)
            for (size_t j = 0; j < d_; ++j) {
                if ((i & pair) != (j & pair))
                    continue;
                const cd v = at(i, j) * 0.25;
                for (size_t s = 0; s < 4; ++s) {
                    const size_t bits = ((s & 1) ? m0 : 0) | ((s & 2) ? m1 : 0);
                    mixed[((i & ~pair) | bits) * d_ + ((j & ~pair) | bits)] +=
                        v;
                }
            }
        for (size_t k = 0; k < m_.size(); ++k)
            m_[k] = (1.0 - lam) * m_[k] + lam * mixed[k];
    }
};

/** Random circuit over every GateType, including I/Measure/Reset. */
Circuit
randomNoisyCircuit(size_t n, size_t n_gates, uint64_t seed)
{
    Rng rng(seed);
    Circuit c(n);
    const GateType one_q[] = {GateType::I,   GateType::X,   GateType::Y,
                              GateType::Z,   GateType::H,   GateType::S,
                              GateType::Sdg, GateType::T,   GateType::Tdg,
                              GateType::Rz,  GateType::Rx,  GateType::Ry,
                              GateType::Measure, GateType::Reset};
    const GateType two_q[] = {GateType::CX, GateType::CZ, GateType::Swap};
    // Pin pair gates on qubits 0 and 1 in both orders: the lowest bit
    // of the 16-element group then sits below the vector lane width.
    if (n >= 2) {
        c.add(Gate(two_q[seed % 3], 0, 1));
        c.add(Gate(two_q[(seed + 1) % 3], 1, 0));
    }
    for (size_t g = 0; g < n_gates; ++g) {
        if (n >= 2 && rng.uniform() < 0.4) {
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
    // Every type at least once across the suite's circuits.
    c.add(Gate(one_q[seed % std::size(one_q)], 0));
    return c;
}

/** Every density-matrix channel switched on, at visible strengths. */
DmNoiseSpec
allChannelsSpec()
{
    DmNoiseSpec spec;
    spec.one_qubit_depol = 0.02;
    spec.two_qubit_depol = 0.05;
    spec.rotation = {0.01, 0.02, 0.03};
    spec.meas_flip = 0.01;
    spec.use_relaxation = true;
    spec.t1_ns = 2000.0;
    spec.t2_ns = 1500.0;
    spec.time_1q_ns = 35.0;
    spec.time_2q_ns = 300.0;
    spec.idle_depol = 0.01;
    return spec;
}

/** @p terms random Pauli strings (any X mask) with random weights. */
Hamiltonian
randomHamiltonian(size_t n, size_t terms, uint64_t seed)
{
    Rng rng(seed);
    Hamiltonian h(n);
    for (size_t t = 0; t < terms; ++t) {
        std::string label(n, 'I');
        for (char &c : label)
            c = "IXYZ"[rng.uniformInt(4)];
        h.addTerm(rng.uniform(-1.0, 1.0), label);
    }
    return h;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Equal bits, except that an exact zero may differ in sign: a pruned
 *  run reads skipped slices only times exact zeros, and those can
 *  flip the sign of a sum that is exactly zero. */
bool
sameValue(double a, double b)
{
    return sameBits(a, b) || (a == 0.0 && b == 0.0);
}

/** Restores the thread count and SIMD dispatch a test scope changed. */
struct ExecutionGuard
{
#ifdef _OPENMP
    int threads = omp_get_max_threads();
    ~ExecutionGuard()
    {
        omp_set_num_threads(threads);
        simd::setSimdMode(-1);
    }
#else
    ~ExecutionGuard() { simd::setSimdMode(-1); }
#endif
};

} // namespace

TEST(DmStream, MatchesGateByGateReferenceOnRandomCircuits)
{
    const DmNoiseSpec specs[] = {nisqDmSpec(NisqParams{}),
                                 pqecDmSpec(PqecParams{}), allChannelsSpec()};
    const char *names[] = {"nisq", "pqec", "all"};
    size_t circuits = 0;
    for (size_t n = 1; n <= 6; ++n)
        for (uint64_t seed = 0; seed < 9; ++seed) {
            const Circuit c =
                randomNoisyCircuit(n, 12 + 4 * n, 7000 * n + seed);
            ++circuits;
            for (size_t s = 0; s < 3; ++s) {
                ReferenceRho ref(n);
                ref.run(c, specs[s]);
                DensityMatrix rho(n);
                rho.execute(compileNoisyStream(c, specs[s]));

                // Compared in the computational basis.
                const std::vector<cd> m = rho.toMatrix();
                double err = 0.0, herm = 0.0;
                const size_t d = rho.dim();
                for (size_t i = 0; i < d; ++i)
                    for (size_t j = 0; j < d; ++j) {
                        const cd v = m[i * d + j];
                        err = std::max(err,
                                       std::abs(v - ref.data()[i * d + j]));
                        herm = std::max(herm,
                                        std::abs(v - std::conj(m[j * d + i])));
                    }
                EXPECT_LE(err, 1e-12)
                    << "n=" << n << " seed=" << seed << " spec=" << names[s];
                EXPECT_LE(herm, 1e-12)
                    << "n=" << n << " seed=" << seed << " spec=" << names[s];
                EXPECT_NEAR(rho.trace(), 1.0, 1e-12)
                    << "n=" << n << " seed=" << seed << " spec=" << names[s];
            }
        }
    EXPECT_GE(circuits, 50u);
}

TEST(DmStream, FusesOneQubitWorkIntoPairOps)
{
    // 16 rotations, 28 CX: one Pair2q per CX absorbs the pending
    // rotations and idle noise, and one Super1q per qubit flushes the
    // tail.
    Circuit c(8);
    for (uint32_t q = 0; q < 8; ++q) {
        c.ry(q, 0.1 * (q + 1));
        c.rz(q, 0.2 * (q + 1));
    }
    for (uint32_t a = 0; a < 8; ++a)
        for (uint32_t b = a + 1; b < 8; ++b)
            c.cx(a, b);
    const std::vector<DmOp> ops =
        compileNoisyStream(c, nisqDmSpec(NisqParams{}));
    const auto pairs = std::count_if(ops.begin(), ops.end(), [](const DmOp &op) {
        return op.kind == DmOpKind::Pair2q;
    });
    EXPECT_EQ(pairs, 28);
    EXPECT_EQ(ops.size(), 28u + 8u);
}

TEST(DmStream, ChannelMethodsKeepValidation)
{
    DensityMatrix rho(2);
    EXPECT_THROW(rho.applyDepolarizing2q(1.5, 0, 1), std::invalid_argument);
    EXPECT_THROW(rho.applyAmplitudeDamping(-0.1, 0), std::invalid_argument);
    EXPECT_THROW(rho.applyPhaseDamping(2.0, 1), std::invalid_argument);
    Circuit c(2);
    Gate unbound(GateType::Rz, 0);
    unbound.param = 0;
    c.add(unbound);
    EXPECT_THROW(rho.prepare(compileNoisyStream(c, DmNoiseSpec{})),
                 std::invalid_argument);
}

TEST(DmStream, TrajectoryFarmAgreesWithinFourSigma)
{
    // Pauli-only noise, matched by hand between the substrates:
    // depolarizing 1q/idle channels, a biased rotation channel, the
    // 15-way 2q depolarizing event and readout flips; relaxation off.
    const double p1 = 0.01, p2 = 0.03, pidle = 0.005, flip = 0.01;
    const PauliChannel rotation{0.004, 0.002, 0.012};
    CliffordNoiseSpec cspec;
    cspec.one_qubit = depolarizingPauliChannel(p1);
    cspec.two_qubit_depol = p2;
    cspec.rotation = rotation;
    cspec.idle = depolarizingPauliChannel(pidle);
    cspec.meas_flip = flip;
    DmNoiseSpec dspec;
    dspec.one_qubit_depol = p1;
    dspec.two_qubit_depol = p2;
    dspec.rotation = rotation;
    dspec.idle_depol = pidle;
    dspec.meas_flip = flip;

    const GateType clifford_1q[] = {GateType::H,  GateType::S, GateType::Sdg,
                                    GateType::X,  GateType::Y, GateType::Z,
                                    GateType::Rz, GateType::Rx, GateType::Ry};
    const GateType two_q[] = {GateType::CX, GateType::CZ, GateType::Swap};
    constexpr size_t kTrajectories = 4000;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        const size_t n = 3 + seed % 3;
        Rng rng(900 + seed);
        Circuit c(n);
        for (size_t g = 0; g < 10 * n; ++g) {
            if (rng.uniform() < 0.4) {
                const auto a = static_cast<uint32_t>(rng.uniformInt(n));
                auto b = static_cast<uint32_t>(rng.uniformInt(n - 1));
                if (b >= a)
                    ++b;
                c.add(Gate(two_q[rng.uniformInt(3)], a, b));
                continue;
            }
            const GateType t = clifford_1q[rng.uniformInt(9)];
            const auto q = static_cast<uint32_t>(rng.uniformInt(n));
            if (isRotationType(t))
                c.add(Gate::rotation(
                    t, q, static_cast<double>(rng.uniformInt(4)) * M_PI / 2));
            else
                c.add(Gate(t, q));
        }
        ASSERT_TRUE(c.isClifford());
        const int width = static_cast<int>(n);
        const Hamiltonian ham = seed % 2 ? isingHamiltonian(width, 0.7)
                                         : heisenbergHamiltonian(width, 1.0);

        const double exact = noisyDensityMatrixEnergy(c, ham, dspec);
        NoisyCliffordSimulator farm(cspec, 0xC0DE + seed);
        const std::vector<double> samples =
            farm.energySamples(c, ham, kTrajectories);
        const double sigma =
            stddev(samples) / std::sqrt(static_cast<double>(kTrajectories));
        EXPECT_LE(std::abs(mean(samples) - exact), 4.0 * sigma + 1e-12)
            << "seed=" << seed << " n=" << n << " exact=" << exact
            << " farm=" << mean(samples) << " sigma=" << sigma;
        // The noise must be visible, or the check is vacuous.
        EXPECT_GT(std::abs(exact - NoisyCliffordSimulator::idealEnergy(c, ham)),
                  4.0 * sigma)
            << "seed=" << seed;
    }
}

TEST(DmStream, PrunedRunsMatchTheFullStream)
{
    // Each query of a prepared stream runs only the slice groups its
    // coefficients depend on. Against the stream executed whole (the
    // eager path, every group of every pass), on random circuits over
    // every gate type, with Measure/Reset, mid-circuit and trailing
    // rotations and pairs on qubits 0/1, for random Hamiltonians at 1
    // and 4 threads, scalar and vector kernels.
    const DmNoiseSpec specs[] = {nisqDmSpec(NisqParams{}),
                                 pqecDmSpec(PqecParams{}), allChannelsSpec()};
    ExecutionGuard guard;
#ifdef _OPENMP
    const int thread_counts[] = {1, 4};
#else
    const int thread_counts[] = {1};
#endif
    size_t checked = 0;
    for (const int threads : thread_counts)
        for (const int simd_mode : {0, -1}) {
#ifdef _OPENMP
            omp_set_num_threads(threads);
#else
            (void)threads;
#endif
            simd::setSimdMode(simd_mode);
            for (size_t n = 1; n <= 8; ++n)
                for (uint64_t seed = 0; seed < 3; ++seed) {
                    const Circuit c =
                        randomNoisyCircuit(n, 12 + 4 * n, 9100 * n + seed);
                    const Hamiltonian h =
                        randomHamiltonian(n, 1 + n, 31 * n + seed);
                    const DmNoiseSpec &spec = specs[(n + seed) % 3];
                    const std::vector<DmOp> ops = compileNoisyStream(c, spec);
                    DensityMatrix full(n);
                    full.execute(ops);
                    DensityMatrix pruned(n);
                    pruned.prepare(ops);
                    const std::vector<double> want = full.expectationBatch(h);
                    const std::vector<double> got = pruned.expectationBatch(h);
                    ASSERT_EQ(got.size(), want.size());
                    for (size_t k = 0; k < want.size(); ++k)
                        EXPECT_TRUE(sameValue(got[k], want[k]))
                            << "n=" << n << " seed=" << seed << " term " << k
                            << ": " << got[k] << " vs " << want[k];
                    EXPECT_TRUE(sameBits(full.expectation(h),
                                         pruned.expectation(h)))
                        << "n=" << n << " seed=" << seed;
                    ++checked;
                }
        }
    EXPECT_GE(checked, 48u);
}

TEST(DmStream, MemberRunsMatchTheFullStream)
{
    // A pruned run computes only the needed members of each slice
    // group when each reads one input member: after the prefix PTMs,
    // every op of an FCHE ladder does. FCHE p = 1 and p = 2 ladders and
    // random circuits with CX/CZ/Swap at 4-10 qubits, NISQ and pQEC,
    // Ising/Heisenberg/random Hamiltonians, teams of 1 and
    // manyThreads(), scalar and vector kernels: energies keep the full
    // stream's bits, terms its values, and so do single-term and state
    // queries after a member run.
    const DmNoiseSpec specs[] = {nisqDmSpec(NisqParams{}),
                                 pqecDmSpec(PqecParams{})};
    ExecutionGuard guard;
    size_t checked = 0;
    for (const size_t n : {4u, 6u, 8u, 10u}) {
        const int width = static_cast<int>(n);
        const Hamiltonian hams[] = {isingHamiltonian(width, 0.8),
                                    heisenbergHamiltonian(width, 1.0),
                                    randomHamiltonian(n, n, 17 * n)};
        std::vector<Circuit> circuits;
        for (const int p : {1, 2}) {
            if (n == 10 && p == 2)
                continue;
            const Circuit ansatz = fcheAnsatz(width, p);
            Rng rng(40 * n + static_cast<uint64_t>(p));
            std::vector<double> theta(ansatz.nParameters());
            for (double &t : theta)
                t = rng.uniform(-M_PI, M_PI);
            circuits.push_back(ansatz.bind(theta));
        }
        if (n < 10)
            circuits.push_back(randomNoisyCircuit(n, 6 * n, 5100 + n));
        // At 10 qubits: the p = 1 ladder under NISQ noise only.
        for (size_t c = 0; c < circuits.size(); ++c)
            for (size_t s = 0; s < (n < 10 ? 2u : 1u); ++s) {
                const std::vector<DmOp> ops =
                    compileNoisyStream(circuits[c], specs[s]);
                DensityMatrix full(n);
                {
                    ThreadGuard serial(1);
                    full.execute(ops);
                }
                for (const int threads : {1, manyThreads()})
                    for (const int simd_mode : {0, -1}) {
                        // A forked run meets a barrier after every
                        // pass, which a loaded host makes slow: below
                        // 10 qubits the team of many runs the p = 1
                        // ladder's vector kernels under NISQ noise.
                        if (threads != 1 && n < 10 &&
                            (simd_mode == 0 || s != 0 || c != 0))
                            continue;
                        ThreadGuard team(threads);
                        simd::setSimdMode(simd_mode);
                        const std::string where =
                            "n=" + std::to_string(n) + " circuit " +
                            std::to_string(c) + " spec " +
                            std::to_string(s) + " threads " +
                            std::to_string(threads) + " simd " +
                            std::to_string(simd_mode);
                        for (const Hamiltonian &h : hams) {
                            // One pruned run; the batch reads the
                            // slices it left valid.
                            DensityMatrix rho(n);
                            rho.prepare(ops);
                            EXPECT_TRUE(sameBits(rho.expectation(h),
                                                 full.expectation(h)))
                                << where;
                            const std::vector<double> got =
                                rho.expectationBatch(h);
                            const std::vector<double> want =
                                full.expectationBatch(h);
                            for (size_t k = 0; k < want.size(); ++k)
                                EXPECT_TRUE(sameValue(got[k], want[k]))
                                    << where << " term " << k;
                            ++checked;
                        }
                        // State and single-term queries after a member
                        // run, on a team of 1 (the purity and the second
                        // new term run every slice once more).
                        if (threads != 1 || n == 10)
                            continue;
                        DensityMatrix rho(n);
                        rho.prepare(ops);
                        rho.expectationBatch(hams[0]);
                        EXPECT_TRUE(sameValue(rho.trace(), full.trace()))
                            << where;
                        EXPECT_TRUE(sameBits(rho.purity(), full.purity()))
                            << where;
                        const auto &terms = hams[1].terms();
                        DensityMatrix one(n);
                        one.prepare(ops);
                        for (size_t k = 0; k < terms.size(); k += 3)
                            EXPECT_TRUE(
                                sameValue(one.expectation(terms[k].op),
                                          full.expectation(terms[k].op)))
                                << where << " single term " << k;
                    }
            }
    }
    EXPECT_GE(checked, 120u);
}

TEST(DmStream, NoStaleSliceReachesALaterRun)
{
    // A NaN rotation poisons every coefficient it reaches; the next
    // prepared circuit on the same backend must give a fresh
    // backend's bits, for its energy terms and for its samples.
    const size_t n = 6;
    const sim::NoiseModel noise = sim::NoiseModel::nisq();
    Circuit poisoned(n);
    for (uint32_t q = 0; q < n; ++q)
        poisoned.add(Gate::rotation(GateType::Ry, q,
                                    std::numeric_limits<double>::quiet_NaN()));
    for (uint32_t q = 0; q + 1 < n; ++q)
        poisoned.cx(q, q + 1);
    const Circuit valid = randomNoisyCircuit(n, 40, 77);
    const Hamiltonian h = randomHamiltonian(n, 12, 5);

    auto used = sim::makeBackend(sim::BackendKind::DensityMatrix, n, &noise);
    used->prepare(poisoned);
    const Hamiltonian everything = randomHamiltonian(n, 64, 6);
    EXPECT_TRUE(std::isnan(used->energy(everything)));
    used->prepare(valid);
    auto fresh = sim::makeBackend(sim::BackendKind::DensityMatrix, n, &noise);
    fresh->prepare(valid);

    const std::vector<double> a = used->expectationBatch(h);
    const std::vector<double> b = fresh->expectationBatch(h);
    for (size_t k = 0; k < a.size(); ++k)
        EXPECT_TRUE(sameBits(a[k], b[k])) << "term " << k;
    Rng ra(11), rb(11);
    EXPECT_EQ(used->sample(64, ra), fresh->sample(64, rb));
}

TEST(DmStream, StateQueriesAfterAPrunedRunMatchAFullRun)
{
    // After a pruned expectationBatch, every other query executes what
    // it reads and must equal a run of the whole stream.
    const size_t n = 5;
    const sim::NoiseModel noise = sim::NoiseModel::pqec();
    const Circuit c = randomNoisyCircuit(n, 36, 404);
    const std::vector<DmOp> ops = compileNoisyStream(c, noise.dm);
    const Hamiltonian h = randomHamiltonian(n, 3, 8);

    DensityMatrix full(n);
    full.execute(ops);
    const auto fresh = [&] {
        DensityMatrix rho(n);
        rho.prepare(ops);
        rho.expectationBatch(h);
        return rho;
    };
    EXPECT_TRUE(sameBits(fresh().purity(), full.purity()));
    EXPECT_TRUE(sameBits(fresh().trace(), full.trace()));
    const std::vector<cd> m = fresh().toMatrix(), mf = full.toMatrix();
    ASSERT_EQ(m.size(), mf.size());
    for (size_t i = 0; i < m.size(); ++i)
        EXPECT_TRUE(sameValue(m[i].real(), mf[i].real()) &&
                    sameValue(m[i].imag(), mf[i].imag()))
            << "element " << i;
    const std::vector<double> p = fresh().diagonalProbabilities(),
                              pf = full.diagonalProbabilities();
    for (size_t i = 0; i < p.size(); ++i)
        EXPECT_TRUE(sameValue(p[i], pf[i])) << "basis state " << i;
    const Hamiltonian other = randomHamiltonian(n, 16, 9);
    DensityMatrix rho = fresh();
    for (const auto &t : other.terms())
        EXPECT_TRUE(sameValue(rho.expectation(t.op), full.expectation(t.op)))
            << t.op.toString();

    auto pruned = sim::makeBackend(sim::BackendKind::DensityMatrix, n, &noise);
    pruned->prepare(c);
    pruned->expectationBatch(h);
    auto whole = sim::makeBackend(sim::BackendKind::DensityMatrix, n, &noise);
    whole->prepare(c);
    Rng ra(3), rb(3);
    EXPECT_EQ(pruned->sample(128, ra), whole->sample(128, rb));
    for (const auto &t : other.terms())
        EXPECT_TRUE(sameValue(pruned->expectation(t.op),
                              whole->expectation(t.op)))
            << t.op.toString();
}
