/**
 * @file
 * Dense density-matrix simulator with Kraus-channel noise.
 *
 * This is the in-tree replacement for Qiskit's AerSimulator density-matrix
 * backend the paper uses for 8- and 12-qubit studies (section 5.2.1).
 * The density operator is stored as a 2^n x 2^n row-major matrix; gates
 * act as rho -> U rho U^dag and noise as rho -> sum_k K_k rho K_k^dag.
 */

#ifndef EFTVQA_SIM_DENSITY_MATRIX_HPP
#define EFTVQA_SIM_DENSITY_MATRIX_HPP

#include <complex>
#include <vector>

#include "circuit/circuit.hpp"
#include "pauli/hamiltonian.hpp"
#include "sim/channels.hpp"
#include "sim/statevector.hpp"

namespace eftvqa {

/**
 * 4x4 superoperators on one qubit's (ket, bra) bit pair of rho viewed
 * as a 2n-bit vector (element (i, j) at index i * 2^n + j, so qubit q's
 * ket bit sits at position n + q and its bra bit at q). Basis index
 * 2 ket + bra, ket the high bit: the channel rho -> sum_k K rho K^dag
 * is sum_k K (x) conj(K).
 */
namespace superop {

/** K (x) conj(K): conjugation rho -> K rho K^dag (a unitary gate). */
Mat4 conjugation(const Mat2 &k);

/** sum_k K_k (x) conj(K_k). */
Mat4 kraus(const KrausChannel &channel);

Mat4 pauli(const PauliChannel &channel);

/** Amplitude damping; throws on gamma outside [0, 1]. */
Mat4 amplitudeDamping(double gamma);

/** Phase damping; throws on lambda outside [0, 1]. */
Mat4 phaseDamping(double lambda);

/**
 * Thermal relaxation for duration t with times T1, T2: amplitude
 * damping then phase damping, matching thermalRelaxationChannel();
 * identity when t <= 0.
 */
Mat4 thermalRelaxation(double t1, double t2, double t);

/** Z-basis measurement without readout (full dephasing). */
Mat4 measureDephase();

/** Trace out the qubit and re-prepare |0>. */
Mat4 reset();

/** The composition "first, then second" (second * first). */
Mat4 then(const Mat4 &first, const Mat4 &second);

} // namespace superop

/** Op kinds of the noisy density-matrix stream (see DmOp). */
enum class DmOpKind : uint8_t
{
    Super1q, ///< one 4x4 superoperator on bits (n + q0, q0)
    Pair2q,  ///< one pass over 16-element groups of a qubit pair
};

/** Index permutation a Pair2q op applies to both halves of rho. */
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
 * One op of the noisy density-matrix stream, which treats rho as a
 * 2n-bit vector. Super1q applies s0 to bits (n + q0, q0). Pair2q makes
 * one in-place pass over the 16-element groups on bits (n + q0, n + q1,
 * q0, q1): the pending superoperators s0 of q0 (when pre0) and s1 of
 * q1 (when pre1), then the permutation and two-qubit depolarizing with
 * probability depol (which commute).
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
    Mat4 s0{};
    Mat4 s1{};
};

/**
 * Density operator on n qubits (n <= 13 supported; memory is 16 * 4^n
 * bytes). Index convention: element (i, j) = data[i * 2^n + j], where i
 * is the ket (row) index.
 */
class DensityMatrix
{
  public:
    /** |0..0><0..0| on @p n_qubits qubits. */
    explicit DensityMatrix(size_t n_qubits);

    size_t nQubits() const { return n_; }
    size_t dim() const { return size_t{1} << n_; }

    /** 64-byte-aligned row-major storage (see simd::AmpVector). */
    const simd::AmpVector &data() const { return data_; }

    /** Reset to |0..0><0..0|. */
    void setZeroState();

    /** Initialize from a pure state. */
    void setPureState(const Statevector &psi);

    /** Apply a one-qubit unitary. */
    void applyMatrix1q(const Mat2 &u, size_t q);

    /**
     * Apply a 4x4 unitary to the pair (qa, qb), qa indexing the high
     * bit of the 4x4 basis (conjugation: ket side then bra side).
     */
    void applyMatrix2q(const Mat4 &u, size_t qa, size_t qb);

    /** Apply a collapsed diagonal-gate run: rho_ij *= ph_i conj(ph_j). */
    void applyDiagPhase(const DiagPhaseOp &d);

    /** Conjugate by a collapsed X/CX/Swap basis permutation. */
    void applyGf2Perm(const Gf2PermOp &p);

    /** Apply a unitary gate (Measure/Reset are channels; see below). */
    void applyGate(const Gate &g);

    /**
     * Execute a noisy stream (noise/noise_model.hpp compiles one per
     * circuit and noise spec). Every op is elementwise per group, so
     * the result is bit-identical at any thread count and on any ISA.
     */
    void execute(const std::vector<DmOp> &ops);

    /**
     * Split stream ops across the OpenMP team (default on; always
     * serial inside an enclosing parallel region). Never changes bits.
     */
    void setParallel(bool parallel) { parallel_ = parallel; }

    /**
     * Run all gates of a bound circuit (no gate noise; Measure/Reset
     * execute as their channels). Compiles to the fused op stream
     * first; repeat callers should compile once and use runCompiled().
     */
    void run(const Circuit &circuit);

    /** Execute a pre-compiled op stream (the hot path). */
    void runCompiled(const CompiledCircuit &compiled);

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

    /** Tr(P rho) for a Hermitian Pauli. */
    double expectation(const PauliString &p) const;

    /** Tr(H rho). */
    double expectation(const Hamiltonian &h) const;

    /**
     * All term expectations of @p h, aligned with h.terms(). Terms are
     * bucketed by X-mask; each bucket reads its off-diagonal band
     * rho[i, i ^ x] once and reuses the element for every term in the
     * bucket (one O(2^n) band traversal per bucket instead of one per
     * term).
     */
    std::vector<double> expectationBatch(const Hamiltonian &h) const;

    /** Diagonal Tr projections: measurement probabilities per basis state. */
    std::vector<double> diagonalProbabilities() const;

    /** Tr(rho); 1 up to roundoff for CPTP evolution. */
    double trace() const;

    /** Tr(rho^2). */
    double purity() const;

    /** <psi| rho |psi> — fidelity against a pure reference state. */
    double fidelityWithPure(const Statevector &psi) const;

    /** Probability of measuring qubit q as 1. */
    double probabilityOfOne(size_t q) const;

  private:
    size_t n_;
    simd::AmpVector data_;
    bool parallel_ = true;

    /** Parallel flag for this call: off inside a parallel region. */
    bool forkable() const;

    void applySuper1q(const Mat4 &s, size_t q);
    void applyPair2q(const DmOp &op);
};

} // namespace eftvqa

#endif // EFTVQA_SIM_DENSITY_MATRIX_HPP
