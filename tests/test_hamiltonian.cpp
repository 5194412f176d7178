/**
 * @file
 * Tests for Hamiltonian storage, matrix-free application and Lanczos.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "pauli/hamiltonian.hpp"
#include "pauli/lanczos.hpp"

using namespace eftvqa;

TEST(Hamiltonian, AddTermValidation)
{
    Hamiltonian h(2);
    EXPECT_NO_THROW(h.addTerm(1.0, "XZ"));
    auto bad = PauliString::fromLabel("XZ");
    bad.multiplyByI(1); // i * XZ is not Hermitian
    EXPECT_THROW(h.addTerm(1.0, bad), std::invalid_argument);
    EXPECT_THROW(h.addTerm(1.0, PauliString::fromLabel("X")),
                 std::invalid_argument); // size mismatch
}

TEST(Hamiltonian, OneNorm)
{
    Hamiltonian h(1);
    h.addTerm(2.0, "X");
    h.addTerm(-3.0, "Z");
    EXPECT_DOUBLE_EQ(h.oneNorm(), 5.0);
}

TEST(Hamiltonian, ApplyMatchesManualMatrix)
{
    // H = X on 1 qubit: H|0> = |1>.
    Hamiltonian h(1);
    h.addTerm(1.0, "X");
    std::vector<std::complex<double>> v = {1.0, 0.0}, out;
    h.apply(v, out);
    EXPECT_NEAR(std::abs(out[0]), 0.0, 1e-12);
    EXPECT_NEAR(out[1].real(), 1.0, 1e-12);
}

TEST(Hamiltonian, CompressMergesDuplicates)
{
    Hamiltonian h(2);
    h.addTerm(1.0, "XX");
    h.addTerm(2.0, "XX");
    h.addTerm(1e-15, "ZZ");
    h.compress();
    ASSERT_EQ(h.nTerms(), 1u);
    EXPECT_DOUBLE_EQ(h.terms()[0].coefficient, 3.0);
}

TEST(Lanczos, TridiagonalSmallestEigenvalue)
{
    // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
    EXPECT_NEAR(tridiagonalSmallestEigenvalue({2.0, 2.0}, {1.0}), 1.0,
                1e-9);
    // 1x1 matrix.
    EXPECT_NEAR(tridiagonalSmallestEigenvalue({5.0}, {}), 5.0, 1e-9);
}

TEST(Lanczos, SingleQubitZGroundState)
{
    Hamiltonian h(1);
    h.addTerm(1.0, "Z");
    EXPECT_NEAR(h.groundStateEnergy(), -1.0, 1e-8);
}

TEST(Lanczos, TransverseFieldExactValue)
{
    // H = X + Z on one qubit: eigenvalues +/- sqrt(2).
    Hamiltonian h(1);
    h.addTerm(1.0, "X");
    h.addTerm(1.0, "Z");
    EXPECT_NEAR(h.groundStateEnergy(), -std::sqrt(2.0), 1e-8);
}

TEST(Lanczos, TwoQubitBellHamiltonian)
{
    // H = XX + ZZ: ground energy -2 in the singlet/triplet split? The
    // spectrum of XX + ZZ is {2, 0, 0, -2}.
    Hamiltonian h(2);
    h.addTerm(1.0, "XX");
    h.addTerm(1.0, "ZZ");
    EXPECT_NEAR(h.groundStateEnergy(), -2.0, 1e-8);
}

TEST(Lanczos, HeisenbergDimerExact)
{
    // H = XX + YY + ZZ on 2 qubits: ground state is the singlet at -3.
    Hamiltonian h(2);
    h.addTerm(1.0, "XX");
    h.addTerm(1.0, "YY");
    h.addTerm(1.0, "ZZ");
    EXPECT_NEAR(h.groundStateEnergy(), -3.0, 1e-8);
}

TEST(Lanczos, GroundEnergyBoundedByOneNorm)
{
    Hamiltonian h(3);
    h.addTerm(0.7, "XXI");
    h.addTerm(-0.4, "IZZ");
    h.addTerm(0.2, "YIY");
    const double e0 = h.groundStateEnergy();
    EXPECT_LE(std::abs(e0), h.oneNorm() + 1e-9);
}
