/**
 * @file
 * Tests for trajectory-based noisy Clifford simulation.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>

#include "ham/ising.hpp"
#include "noise/noise_model.hpp"
#include "stabilizer/noisy_clifford.hpp"
#include "vqa/fault.hpp"

#include "thread_guard.hpp"

using namespace eftvqa;

namespace {

Circuit
bellCircuit()
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    return c;
}

Hamiltonian
zzObservable()
{
    Hamiltonian h(2);
    h.addTerm(1.0, "ZZ");
    return h;
}

/**
 * Random bound Clifford circuit over every gate type the farm runs:
 * the 1q Cliffords and Paulis, CX/CZ/Swap in both qubit orders and
 * Rx/Ry/Rz at 1, 2 and 3 quarter turns. Above 64 qubits a fixed pair
 * straddling the first word boundary is mixed in.
 */
Circuit
randomCliffordCircuit(uint32_t n, size_t n_gates, uint64_t seed)
{
    Rng rng(seed);
    Circuit c(n);
    for (size_t i = 0; i < n_gates; ++i) {
        auto a = static_cast<uint32_t>(rng.uniformInt(n));
        auto b = static_cast<uint32_t>(rng.uniformInt(n - 1));
        b += b >= a ? 1 : 0;
        if (n > 64 && rng.uniformInt(4) == 0) {
            a = 3;
            b = 66;
        }
        if (rng.bernoulli(0.5))
            std::swap(a, b);
        const double turns =
            static_cast<double>(1 + rng.uniformInt(3)) * M_PI / 2.0;
        switch (rng.uniformInt(13)) {
          case 0: c.h(a); break;
          case 1: c.s(a); break;
          case 2: c.sdg(a); break;
          case 3: c.x(a); break;
          case 4: c.y(a); break;
          case 5: c.z(a); break;
          case 6: c.add(Gate(GateType::I, a)); break;
          case 7: c.cx(a, b); break;
          case 8: c.cz(a, b); break;
          case 9: c.swap(a, b); break;
          case 10: c.rx(a, turns); break;
          case 11: c.ry(a, turns); break;
          default: c.rz(a, turns); break;
        }
    }
    return c;
}

/**
 * Terms with ideal value +1 or -1 (the noiseless state's stabilizers
 * and products of neighbouring ones, signs included), random
 * low-weight Paulis (mostly ideal value 0) and the identity.
 */
Hamiltonian
oracleHamiltonian(const Circuit &c, uint64_t seed)
{
    const size_t n = c.nQubits();
    Tableau t(n);
    Rng unused(1);
    t.run(c, unused);
    Rng rng(seed);
    Hamiltonian h(n);
    for (size_t i = 0; i < n; ++i) {
        h.addTerm(rng.uniform(-1.0, 1.0), t.stabilizer(i));
        h.addTerm(rng.uniform(-1.0, 1.0),
                  t.stabilizer(i) * t.stabilizer((i + 1) % n));
    }
    const Pauli kinds[] = {Pauli::X, Pauli::Y, Pauli::Z};
    for (size_t k = 0; k < n; ++k) {
        PauliString p(n);
        const size_t weight = 1 + rng.uniformInt(4);
        for (size_t w = 0; w < weight; ++w)
            p.set(rng.uniformInt(n), kinds[rng.uniformInt(3)]);
        h.addTerm(rng.uniform(-1.0, 1.0), p);
    }
    h.addTerm(0.25, PauliString(n));
    return h;
}

/** FNV-1a over the bytes of @p v, as 16 hex digits. */
std::string
bitsDigest(const std::vector<double> &v)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (double d : v) {
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, h);
    return buf;
}

/** Noise strong enough that most trajectories carry errors. */
CliffordNoiseSpec
oracleSpec(bool pqec)
{
    CliffordNoiseSpec spec =
        pqec ? pqecCliffordSpec(PqecParams{5e-3, 3})
             : nisqCliffordSpec(NisqParams{2e-2, 20e3, 20e3});
    if (pqec)
        spec.idle.pz += 2e-3; // idle channel must fire at this depth
    return spec;
}

struct FarmOracle
{
    uint32_t qubits;
    bool pqec;
    size_t trajectories;
    const char *samples_bits; ///< digest of energySamples
    const char *terms_bits;   ///< digest of termExpectations
};

} // namespace

TEST(NoisyClifford, FrameFarmMatchesRecordedBits)
{
    // Digests recorded from the per-trajectory tableau farm that the
    // Pauli-frame farm replaced: its outputs must stay byte-identical
    // on a team of 1 and of 4 threads, at every SIMD tier.
    const FarmOracle cases[] = {
        {5, false, 64, "0x18d9ce61250b38d7", "0x7f8b7fd5c7fa736f"},
        {5, true, 64, "0xd7b2fb79182362a9", "0x7d9a0b4a5c99c22c"},
        {70, false, 24, "0x741e916da0235ce8", "0x41ba8026d2072690"},
        {70, true, 24, "0xcc192328ba516c2f", "0xb6027c990e22d3a6"},
    };
    for (const auto &oc : cases) {
        SCOPED_TRACE(std::to_string(oc.qubits) +
                     (oc.pqec ? "q pQEC" : "q NISQ"));
        const Circuit c = randomCliffordCircuit(oc.qubits, 12 * oc.qubits,
                                                oc.qubits + 7);
        const Hamiltonian h = oracleHamiltonian(c, oc.qubits + 11);
        const CliffordNoiseSpec spec = oracleSpec(oc.pqec);
        ASSERT_GT(spec.meas_flip, 0.0);
        ASSERT_GT(spec.idle.px + spec.idle.py + spec.idle.pz, 0.0);
        for (const int threads : {1, 4}) {
            ThreadGuard guard(threads);
            NoisyCliffordSimulator a(spec, 2024);
            const auto samples = a.energySamples(c, h, oc.trajectories);
            EXPECT_EQ(bitsDigest(samples), oc.samples_bits);
            // The noise must actually flip terms for the pin to bite.
            EXPECT_GT(std::set<double>(samples.begin(), samples.end())
                          .size(),
                      2u);
            NoisyCliffordSimulator b(spec, 2024);
            EXPECT_EQ(
                bitsDigest(b.termExpectations(c, h, oc.trajectories)),
                oc.terms_bits);
        }
    }
}

TEST(NoisyClifford, FarmRejectsMeasureAndReset)
{
    Hamiltonian h(2);
    h.addTerm(1.0, "ZZ");
    for (const GateType type : {GateType::Measure, GateType::Reset}) {
        Circuit c = bellCircuit();
        c.add(Gate(type, 1));
        NoisyCliffordSimulator sim(CliffordNoiseSpec::ideal(), 3);
        EXPECT_THROW(sim.energySamples(c, h, 4), std::invalid_argument);
        EXPECT_THROW(sim.termExpectations(c, h, 4), std::invalid_argument);
    }
}

TEST(NoisyClifford, ExpiredDeadlineEndsTheFarmInTheCheckpoint)
{
    CancelToken token;
    token.setDeadline(0.01);
    while (!token.expired())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    const Circuit c = randomCliffordCircuit(8, 64, 3);
    const Hamiltonian h = oracleHamiltonian(c, 4);
    NoisyCliffordSimulator sim(oracleSpec(false), 5);
    {
        CancelScope scope(&token);
        EXPECT_THROW(sim.energySamples(c, h, 16), TimeoutError);
        EXPECT_THROW(sim.termExpectations(c, h, 16), TimeoutError);
    }
    EXPECT_NO_THROW(sim.energySamples(c, h, 16));
}

TEST(NoisyClifford, IdealEnergyMatchesTableau)
{
    const double e =
        NoisyCliffordSimulator::idealEnergy(bellCircuit(), zzObservable());
    EXPECT_DOUBLE_EQ(e, 1.0);
}

TEST(NoisyClifford, NoiselessSpecReproducesIdeal)
{
    NoisyCliffordSimulator sim(CliffordNoiseSpec::ideal(), 42);
    EXPECT_DOUBLE_EQ(sim.energy(bellCircuit(), zzObservable(), 20), 1.0);
}

TEST(NoisyClifford, LevelBucketingAppliesEveryGate)
{
    // Regression: FCHE-style entanglers produce gate lists whose ASAP
    // levels are NOT monotone in program order; the layered trajectory
    // runner must still execute every gate. With zero noise its energy
    // must match the straight-line ideal evaluation exactly.
    Circuit c(6);
    for (int q = 0; q < 6; ++q)
        c.rx(static_cast<uint32_t>(q), M_PI / 2);
    for (int a = 0; a < 6; ++a)
        for (int b = a + 1; b < 6; ++b)
            c.cx(static_cast<uint32_t>(a), static_cast<uint32_t>(b));
    for (int q = 0; q < 6; ++q)
        c.rz(static_cast<uint32_t>(q), M_PI);

    Hamiltonian ham(6);
    ham.addTerm(0.7, "ZZIIII");
    ham.addTerm(-0.4, "IIXXII");
    ham.addTerm(0.3, "IIIIYY");
    ham.addTerm(1.0, "ZIIIIZ");

    NoisyCliffordSimulator sim(CliffordNoiseSpec::ideal(), 5);
    EXPECT_DOUBLE_EQ(sim.energy(c, ham, 3),
                     NoisyCliffordSimulator::idealEnergy(c, ham));
}

TEST(NoisyClifford, DepolarizingDegradesEnergy)
{
    CliffordNoiseSpec spec;
    spec.two_qubit_depol = 0.2;
    NoisyCliffordSimulator sim(spec, 42);
    const double e = sim.energy(bellCircuit(), zzObservable(), 3000);
    // ZZ survives II and ZZ errors plus XX/YY (which commute with ZZ
    // in sign-effect terms: XX flips ZZ? X on both flips neither sign of
    // ZZ eigenvalue). Just require visible degradation from 1.0.
    EXPECT_LT(e, 0.99);
    EXPECT_GT(e, 0.5);
}

TEST(NoisyClifford, MeasurementFlipDampsByWeight)
{
    CliffordNoiseSpec spec;
    spec.meas_flip = 0.1;
    NoisyCliffordSimulator sim(spec, 1);
    const double e = sim.energy(bellCircuit(), zzObservable(), 10);
    // weight-2 term damped by (1-0.2)^2 = 0.64.
    EXPECT_NEAR(e, 0.64, 1e-9);
}

TEST(NoisyClifford, RotationChannelAppliesToRotations)
{
    Circuit c(1);
    c.h(0);
    c.rz(0, M_PI); // Clifford rotation = Z
    Hamiltonian h(1);
    h.addTerm(1.0, "X");

    CliffordNoiseSpec spec;
    spec.rotation.pz = 0.25; // flips <X> sign with prob 0.25
    NoisyCliffordSimulator sim(spec, 77);
    const double e = sim.energy(c, h, 4000);
    // ideal <X> after H, Rz(pi) = -1; Z errors flip to +1 with p=.25:
    // mean = -1 * (1 - 2*0.25) = -0.5.
    EXPECT_NEAR(e, -0.5, 0.05);
}

TEST(NoisyClifford, IdleNoiseHitsWaitingQubits)
{
    // Qubit 1 idles while qubit 0 works; idle dephasing kills its <X>.
    Circuit c(2);
    c.h(1); // put qubit 1 in |+>, then let it idle for many layers
    for (int i = 0; i < 50; ++i)
        c.h(0);
    Hamiltonian h(2);
    h.addTerm(1.0, "IX");

    CliffordNoiseSpec spec;
    spec.idle.pz = 0.05;
    NoisyCliffordSimulator sim(spec, 5);
    const double e = sim.energy(c, h, 1500);
    EXPECT_LT(e, 0.2); // heavily dephased
    EXPECT_GT(e, -0.2);
}

TEST(NoisyClifford, EnergySamplesHaveRightCount)
{
    NoisyCliffordSimulator sim(CliffordNoiseSpec::ideal(), 3);
    const auto samples =
        sim.energySamples(bellCircuit(), zzObservable(), 7);
    EXPECT_EQ(samples.size(), 7u);
}

TEST(NoisyClifford, RejectsNonCliffordCircuit)
{
    Circuit c(1);
    c.rz(0, 0.3);
    Hamiltonian h(1);
    h.addTerm(1.0, "Z");
    NoisyCliffordSimulator sim(CliffordNoiseSpec::ideal(), 3);
    EXPECT_THROW(sim.energy(c, h, 5), std::invalid_argument);
}

TEST(NoisyClifford, MoreNoiseMeansWorseIsingEnergy)
{
    // Prepare |1111> (Z-field energy -4), then idle through CNOT pairs
    // whose only effect is to expose the state to two-qubit noise:
    // noisier execution must yield higher (worse) energy on average.
    const auto ham = isingHamiltonian(4, 1.0);
    Circuit c(4);
    for (int q = 0; q < 4; ++q)
        c.x(static_cast<uint32_t>(q));
    for (int rep = 0; rep < 5; ++rep)
        for (int q = 0; q + 1 < 4; ++q) {
            c.cx(static_cast<uint32_t>(q), static_cast<uint32_t>(q + 1));
            c.cx(static_cast<uint32_t>(q), static_cast<uint32_t>(q + 1));
        }

    CliffordNoiseSpec low;
    low.two_qubit_depol = 0.01;
    CliffordNoiseSpec high;
    high.two_qubit_depol = 0.3;
    NoisyCliffordSimulator sim_low(low, 9);
    NoisyCliffordSimulator sim_high(high, 9);
    const double e_low = sim_low.energy(c, ham, 2000);
    const double e_high = sim_high.energy(c, ham, 2000);
    EXPECT_LT(e_low, e_high);
}
