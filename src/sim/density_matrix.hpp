/**
 * @file
 * Dense density-matrix simulator with Kraus-channel noise.
 *
 * This is the in-tree replacement for Qiskit's AerSimulator density-matrix
 * backend the paper uses for 8- and 12-qubit studies (section 5.2.1).
 * The density operator is stored in the Pauli basis: the 4^n real
 * coefficients c_P = Tr(P rho) of rho = 2^-n sum_P c_P P (8 * 4^n
 * bytes). Gates and channels act as real Pauli transfer matrices, and a
 * Pauli expectation is one coefficient lookup.
 *
 * The coefficients of one X mask x form a contiguous slice of 2^n
 * doubles, and every stream op keeps slices apart: CX/CZ/Swap map x
 * linearly, and a PTM that keeps {I, Z} and {X, Y} apart keeps x_q. A
 * stream prepared from |0..0> therefore runs lazily: each query
 * executes only the slices that the slices it reads depend on
 * (see DensityMatrix::prepare).
 */

#ifndef EFTVQA_SIM_DENSITY_MATRIX_HPP
#define EFTVQA_SIM_DENSITY_MATRIX_HPP

#include <complex>
#include <vector>

#include "circuit/circuit.hpp"
#include "pauli/hamiltonian.hpp"
#include "sim/channels.hpp"
#include "sim/simd.hpp"
#include "sim/statevector.hpp"

namespace eftvqa {

/**
 * One-qubit channels as Pauli transfer matrices (see Ptm): real 4x4
 * matrices over the qubit's Pauli coefficients (c_I, c_Z, c_X, c_Y),
 * new c_a = sum_b R[4a + b] c_b.
 */
namespace superop {

/** The PTM of rho -> K rho K^dag (a unitary gate when K is unitary). */
Ptm conjugation(const Mat2 &k);

/** sum_k of the conjugation PTMs of the Kraus operators. */
Ptm kraus(const KrausChannel &channel);

/** diag(1, 1 - 2(px + py), 1 - 2(py + pz), 1 - 2(px + pz)). */
Ptm pauli(const PauliChannel &channel);

/** Amplitude damping; throws on gamma outside [0, 1]. */
Ptm amplitudeDamping(double gamma);

/** Phase damping; throws on lambda outside [0, 1]. */
Ptm phaseDamping(double lambda);

/**
 * Thermal relaxation for duration t with times T1, T2: amplitude
 * damping then phase damping, matching thermalRelaxationChannel();
 * identity when t <= 0.
 */
Ptm thermalRelaxation(double t1, double t2, double t);

/** Z-basis measurement without readout (full dephasing). */
Ptm measureDephase();

/** Trace out the qubit and re-prepare |0>. */
Ptm reset();

/** The composition "first, then second" (second * first). */
Ptm then(const Ptm &first, const Ptm &second);

} // namespace superop

/** Op kinds of the noisy density-matrix stream (see DmOp). */
enum class DmOpKind : uint8_t
{
    Super1q, ///< one PTM on qubit q0's coefficient quads
    Pair2q,  ///< one pass over 16-element groups of a qubit pair
};

/** Pauli permutation a Pair2q op applies (conjugation by the gate). */
enum class PairPerm : uint8_t
{
    None,
    CX,   ///< control q0, target q1
    CZ,
    Swap,
};

/** Permutation of a CX/CZ/Swap gate (None for any other type). */
PairPerm pairPerm(GateType t);

/**
 * The image U P U^dag = sign * P' of a two-qubit Pauli under a Pair2q
 * permutation. Pauli k = 8 x_a + 4 x_b + 2 z_a + z_b is sigma(x_a,
 * z_a) (x) sigma(x_b, z_b), qubit a = q0 and b = q1, with
 * sigma(x, z) = i^(x z) X^x Z^z (so sigma(1, 1) = Y).
 */
struct PauliImage
{
    int k;
    int sign; ///< +1 or -1
};
PauliImage pairPauliImage(PairPerm perm, int k);

/**
 * One op of the noisy density-matrix stream over the Pauli
 * coefficients. Super1q applies the PTM s0 to qubit q0. Pair2q makes
 * one in-place pass over the 16-element groups of qubits (q0, q1): the
 * pending PTMs s0 of q0 (when pre0) and s1 of q1 (when pre1), then the
 * signed Pauli permutation and two-qubit depolarizing with probability
 * depol, which scales the 15 non-identity pair Paulis by 1 - 16p/15
 * (the two commute).
 */
struct DmOp
{
    DmOpKind kind = DmOpKind::Super1q;
    PairPerm perm = PairPerm::None;
    bool pre0 = false;
    bool pre1 = false;
    uint32_t q0 = 0;
    uint32_t q1 = 0;
    double depol = 0.0;
    Ptm s0{};
    Ptm s1{};
};

/** The stream kernel pass of @p op on @p n qubits, before
 *  simd::planPass chooses its path; throws on a bad qubit or depol. */
simd::PauliPass streamPass(const DmOp &op, size_t n);

/**
 * Density operator on n qubits (n <= 13 supported; memory is 8 * 4^n
 * bytes). Index convention: data[(x << n) | z] = Tr(sigma(x, z) rho),
 * where qubit q owns bit q of the n-bit masks x and z and
 * sigma(x, z) = prod_q i^(x_q z_q) X_q^(x_q) Z_q^(z_q) is the Hermitian
 * Pauli with those masks (qubit q's x bit sits at position n + q of
 * the index, its z bit at position q).
 */
class DensityMatrix
{
  public:
    /** |0..0><0..0| on @p n_qubits qubits. */
    explicit DensityMatrix(size_t n_qubits);

    size_t nQubits() const { return n_; }
    size_t dim() const { return size_t{1} << n_; }

    /** 64-byte-aligned Pauli coefficients (see the class comment);
     *  executes the whole pending stream first. */
    const simd::RealVector &data() const;

    /**
     * The operator in the computational basis: element (i, j) =
     * <i|rho|j> at i * 2^n + j, i the ket (row) index. O(n 4^n).
     */
    std::vector<std::complex<double>> toMatrix() const;

    /** Reset to |0..0><0..0|. */
    void setZeroState();

    /** Initialize from a pure state. O(n 4^n). */
    void setPureState(const Statevector &psi);

    /** Apply a one-qubit unitary. */
    void applyMatrix1q(const Mat2 &u, size_t q);

    /** Apply a unitary gate (Measure/Reset are channels; see below). */
    void applyGate(const Gate &g);

    /**
     * Execute a noisy stream (noise/noise_model.hpp compiles one per
     * circuit and noise spec) on the current state, now. Every op is
     * elementwise per group, so the result is bit-identical at any
     * thread count and on any ISA.
     */
    void execute(const std::vector<DmOp> &ops);

    /**
     * Reset to |0..0><0..0| and hold @p stream unexecuted. Each query
     * below then runs it from |0..0> over only the x slices the
     * coefficients it reads depend on: a backward walk from those
     * slices marks, per op, the slices (members) of its 2- or 4-slice
     * groups it must output. A member that reads one input member runs
     * alone, with the full kernel's products of that member's terms;
     * any other needed group runs whole through the full execution's
     * kernels. The terms a member run drops are exact zeros, so the
     * values read are the full stream's (up to the sign of an exact
     * zero). A qubit's x bit is zero until an op can set it, so its
     * first PTM reads only x_q = 0. Every slice of a planned group is
     * first reset to |0..0>'s value, and slices a query already read
     * stay valid until the next prepare; a query that needs more after
     * that runs every slice.
     * The const queries therefore write the state: use one
     * DensityMatrix per thread.
     */
    void prepare(std::vector<DmOp> stream);

    /**
     * Run all gates of a bound circuit (no gate noise; Measure/Reset
     * execute as their channels): the noisy stream of an empty noise
     * spec.
     */
    void run(const Circuit &circuit);

    // The channel methods below each run a one-op stream.

    /** Apply a single-qubit Kraus channel to qubit q. */
    void applyKraus1q(const KrausChannel &channel, size_t q);

    /** Apply a single-qubit Pauli channel to qubit q. */
    void applyPauliChannel1q(const PauliChannel &channel, size_t q);

    /**
     * Two-qubit symmetric depolarizing channel: with probability p a
     * uniformly random non-identity two-qubit Pauli is applied.
     */
    void applyDepolarizing2q(double p, size_t q0, size_t q1);

    /** Amplitude damping with decay probability gamma. */
    void applyAmplitudeDamping(double gamma, size_t q);

    /** Phase damping with parameter lambda. */
    void applyPhaseDamping(double lambda, size_t q);

    /**
     * Thermal relaxation for duration t with times T1, T2 (see
     * superop::thermalRelaxation).
     */
    void applyThermalRelaxation(double t1, double t2, double t, size_t q);

    /** Non-destructive Z-basis measurement channel (full dephase of q). */
    void applyMeasurementDephase(size_t q);

    /** Reset channel: trace out q and re-prepare |0>. */
    void applyResetChannel(size_t q);

    /**
     * Tr(P rho): the coefficient at P's masks times the real part of
     * i^(e - #Y) for P = i^e X^x Z^z (zero for a non-Hermitian P).
     */
    double expectation(const PauliString &p) const;

    /** Tr(H rho). */
    double expectation(const Hamiltonian &h) const;

    /** All term expectations of @p h, aligned with h.terms(): one
     *  coefficient lookup per term. */
    std::vector<double> expectationBatch(const Hamiltonian &h) const;

    /**
     * Measurement probabilities per basis state: a Walsh-Hadamard
     * transform of the Z-type coefficients. Roundoff may leave tiny
     * negatives; the sampler clamps them.
     */
    std::vector<double> diagonalProbabilities() const;

    /** Tr(rho) = c_I; 1 up to roundoff for CPTP evolution. */
    double trace() const;

    /** Tr(rho^2) = 2^-n sum_P c_P^2. */
    double purity() const;

    /** <psi| rho |psi> — fidelity against a pure reference state. */
    double fidelityWithPure(const Statevector &psi) const;

    /** Probability of measuring qubit q as 1: (c_I - c_{Z_q}) / 2. */
    double probabilityOfOne(size_t q) const;

  private:
    /** Bitmap over the 2^n x slices. */
    using Slices = std::vector<uint64_t>;

    size_t n_;
    // A prepared stream stays pending until it has run over every
    // slice; data_ holds its state on the slices of valid_.
    mutable simd::RealVector data_;
    mutable std::vector<DmOp> stream_;
    mutable bool pending_ = false;
    mutable Slices valid_;
    mutable std::vector<simd::PauliPass> passes_;
    /** Slice planning buffers, kept to reuse their capacity. */
    struct SlicePlan
    {
        Slices want, touched, cur, next;
        std::vector<uint8_t> groups;  ///< per group: its needed members
        std::vector<uint64_t> zero_x; ///< per op: qubits whose x bit is 0
        simd::StreamRanges ranges;
    };
    mutable SlicePlan plan_;

    /** Split stream ops across the OpenMP team for this call: off
     *  inside a parallel region. Never changes bits. */
    bool forkable() const;

    /** Make the pending stream's state valid on slice @p x (or on
     *  every slice) before a read. */
    void settle(uint64_t x) const;
    void settleAll() const;

    /** Run the pending stream over the slices of plan_.want, or over
     *  every slice when an earlier run left some valid; the slices run
     *  are valid afterwards. */
    void runPending() const;
};

} // namespace eftvqa

#endif // EFTVQA_SIM_DENSITY_MATRIX_HPP
