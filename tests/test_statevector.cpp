/**
 * @file
 * Tests for the dense statevector simulator.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/statevector.hpp"

using namespace eftvqa;

TEST(Statevector, StartsInZero)
{
    Statevector psi(2);
    EXPECT_NEAR(psi.amplitudes()[0].real(), 1.0, 1e-12);
    EXPECT_NEAR(psi.norm(), 1.0, 1e-12);
}

TEST(Statevector, HadamardCreatesSuperposition)
{
    Statevector psi(1);
    psi.applyGate(Gate(GateType::H, 0));
    EXPECT_NEAR(std::norm(psi.amplitudes()[0]), 0.5, 1e-12);
    EXPECT_NEAR(std::norm(psi.amplitudes()[1]), 0.5, 1e-12);
}

TEST(Statevector, SingleZExpectation)
{
    Hamiltonian h(1);
    h.addTerm(1.0, "Z");
    Statevector psi(1);
    EXPECT_NEAR(psi.expectation(h), 1.0, 1e-12);
    psi.applyGate(Gate(GateType::X, 0));
    EXPECT_NEAR(psi.expectation(h), -1.0, 1e-12);
    EXPECT_NEAR(psi.expectation(PauliString::fromLabel("Z")), -1.0, 1e-12);
}

TEST(Statevector, BellStateExpectations)
{
    Statevector psi(2);
    psi.applyGate(Gate(GateType::H, 0));
    psi.applyGate(Gate(GateType::CX, 0, 1));
    EXPECT_NEAR(psi.expectation(PauliString::fromLabel("XX")), 1.0, 1e-12);
    EXPECT_NEAR(psi.expectation(PauliString::fromLabel("ZZ")), 1.0, 1e-12);
    EXPECT_NEAR(psi.expectation(PauliString::fromLabel("YY")), -1.0, 1e-12);
    EXPECT_NEAR(psi.expectation(PauliString::fromLabel("ZI")), 0.0, 1e-12);
}

TEST(Statevector, RzPhaseOnPlusState)
{
    Statevector psi(1);
    psi.applyGate(Gate(GateType::H, 0));
    psi.applyGate(Gate::rotation(GateType::Rz, 0, M_PI / 2));
    // Rz(pi/2)|+> has <X> = cos(pi/2) = 0, <Y> = sin(pi/2) = 1.
    EXPECT_NEAR(psi.expectation(PauliString::fromLabel("X")), 0.0, 1e-12);
    EXPECT_NEAR(psi.expectation(PauliString::fromLabel("Y")), 1.0, 1e-12);
}

TEST(Statevector, RxRotatesZExpectation)
{
    Statevector psi(1);
    psi.applyGate(Gate::rotation(GateType::Rx, 0, 0.7));
    EXPECT_NEAR(psi.expectation(PauliString::fromLabel("Z")),
                std::cos(0.7), 1e-12);
}

TEST(Statevector, RyRotatesTowardsPlus)
{
    Statevector psi(1);
    psi.applyGate(Gate::rotation(GateType::Ry, 0, M_PI / 2));
    EXPECT_NEAR(psi.expectation(PauliString::fromLabel("X")), 1.0, 1e-12);
}

TEST(Statevector, CZPhase)
{
    Statevector psi(2);
    psi.applyGate(Gate(GateType::H, 0));
    psi.applyGate(Gate(GateType::H, 1));
    psi.applyGate(Gate(GateType::CZ, 0, 1));
    // CZ|++> has <XI> = <IX> = 0 (entangled), <XZ> = 1.
    EXPECT_NEAR(psi.expectation(PauliString::fromLabel("XZ")), 1.0, 1e-12);
    EXPECT_NEAR(psi.expectation(PauliString::fromLabel("ZX")), 1.0, 1e-12);
}

TEST(Statevector, SwapMovesExcitation)
{
    Statevector psi(2);
    psi.applyGate(Gate(GateType::X, 0));
    psi.applyGate(Gate(GateType::Swap, 0, 1));
    EXPECT_NEAR(psi.expectation(PauliString::fromLabel("ZI")), 1.0, 1e-12);
    EXPECT_NEAR(psi.expectation(PauliString::fromLabel("IZ")), -1.0, 1e-12);
}

TEST(Statevector, UnitarityPreservesNorm)
{
    Statevector psi(3);
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.rz(1, 0.3);
    c.ry(2, 1.1);
    c.cz(1, 2);
    psi.run(c);
    EXPECT_NEAR(psi.norm(), 1.0, 1e-12);
}

TEST(Statevector, MeasurementCollapses)
{
    Rng rng(5);
    Statevector psi(1);
    psi.applyGate(Gate(GateType::X, 0));
    EXPECT_EQ(psi.measure(0, rng), 1);
    // Measuring again is deterministic.
    EXPECT_EQ(psi.measure(0, rng), 1);
}

TEST(Statevector, MeasurementStatistics)
{
    Rng rng(6);
    int ones = 0;
    const int shots = 2000;
    for (int s = 0; s < shots; ++s) {
        Statevector psi(1);
        psi.applyGate(Gate(GateType::H, 0));
        ones += psi.measure(0, rng);
    }
    EXPECT_NEAR(static_cast<double>(ones) / shots, 0.5, 0.05);
}

TEST(Statevector, ResetReturnsToZero)
{
    Rng rng(7);
    Statevector psi(1);
    psi.applyGate(Gate(GateType::X, 0));
    psi.reset(0, rng);
    EXPECT_NEAR(psi.expectation(PauliString::fromLabel("Z")), 1.0, 1e-12);
}

TEST(Statevector, ApplyPauliMatchesGateSequence)
{
    Statevector a(2), b(2);
    Circuit prep(2);
    prep.h(0);
    prep.cx(0, 1);
    a.run(prep);
    b.run(prep);
    a.applyPauli(PauliString::fromLabel("XY"));
    b.applyGate(Gate(GateType::X, 0));
    b.applyGate(Gate(GateType::Y, 1));
    EXPECT_NEAR(a.overlapSquared(b), 1.0, 1e-12);
}

TEST(Statevector, OverlapOfOrthogonalStates)
{
    Statevector a(1), b(1);
    b.applyGate(Gate(GateType::X, 0));
    EXPECT_NEAR(a.overlapSquared(b), 0.0, 1e-12);
}
