/**
 * @file
 * Execution-regime noise models: NISQ and pQEC (paper sections 4.4, 5.2).
 *
 * NISQ error rates (from McKay et al. and the paper's section 4.4):
 * CNOT error p_phys, non-Rz single-qubit gates p_phys/10, Rz gates 0
 * (virtual Z), measurement 10 p_phys, plus thermal relaxation on gates
 * and idle windows.
 *
 * pQEC error rates: all Clifford operations, measurement and memory at
 * the surface-code logical rate (~1e-7 for d = 11, p = 1e-3), while
 * injected Rz(theta) gates retain the near-physical injection error
 * 23 p / 30 with Z-biased structure (Lao & Criger).
 *
 * Both regimes run on the density matrix as one compiled stream per
 * bound circuit (compileNoisyStream). An energy runs that stream only
 * over the Pauli x slices its terms read (DensityMatrix::prepare).
 */

#ifndef EFTVQA_NOISE_NOISE_MODEL_HPP
#define EFTVQA_NOISE_NOISE_MODEL_HPP

#include "circuit/circuit.hpp"
#include "pauli/hamiltonian.hpp"
#include "sim/channels.hpp"
#include "sim/density_matrix.hpp"
#include "stabilizer/noisy_clifford.hpp"

namespace eftvqa {

/** Physical-device parameters for the NISQ regime. */
struct NisqParams
{
    double p_phys = 1e-3;     ///< two-qubit (CNOT) error rate
    double t1_ns = 100e3;     ///< relaxation time
    double t2_ns = 100e3;     ///< dephasing time (T2 <= 2 T1)
    double time_1q_ns = 35;   ///< single-qubit gate duration
    double time_2q_ns = 300;  ///< two-qubit gate duration
    double time_meas_ns = 700;///< measurement duration

    double cxError() const { return p_phys; }
    double oneQubitError() const { return p_phys / 10.0; }
    double rzError() const { return 0.0; } // virtual Z
    double measError() const { return 10.0 * p_phys; }
};

/** Logical-device parameters for the pQEC regime. */
struct PqecParams
{
    double p_phys = 1e-3; ///< underlying physical error rate
    int distance = 11;    ///< surface-code distance

    /** Per-operation logical Clifford error (~1e-7 at d=11, p=1e-3). */
    double cliffordError() const;

    /** Injected Rz error 23 p / 30 (~0.76e-3 at p = 1e-3). */
    double rzError() const;

    /** Per-code-cycle idle (memory) error. */
    double memoryErrorPerCycle() const { return cliffordError(); }

    /** Logical measurement error. */
    double measError() const { return cliffordError(); }
};

/** Pauli-noise spec for the stabilizer backend, NISQ regime. */
CliffordNoiseSpec nisqCliffordSpec(const NisqParams &params);

/** Pauli-noise spec for the stabilizer backend, pQEC regime. */
CliffordNoiseSpec pqecCliffordSpec(const PqecParams &params);

/**
 * Noise configuration for the density-matrix backend.
 */
struct DmNoiseSpec
{
    double one_qubit_depol = 0.0; ///< after each 1q Clifford/rotation-free gate
    double two_qubit_depol = 0.0; ///< after each 2q gate (both qubits' pair)
    PauliChannel rotation;        ///< after each Rz/Rx/Ry
    double meas_flip = 0.0;       ///< readout bit-flip

    bool use_relaxation = false;  ///< NISQ thermal relaxation on/off
    double t1_ns = 0.0, t2_ns = 0.0;
    double time_1q_ns = 0.0, time_2q_ns = 0.0;

    double idle_depol = 0.0;      ///< per-layer idle depolarizing (pQEC)
};

/** Density-matrix noise spec for the NISQ regime. */
DmNoiseSpec nisqDmSpec(const NisqParams &params);

/** Density-matrix noise spec for the pQEC regime. */
DmNoiseSpec pqecDmSpec(const PqecParams &params);

/**
 * Compiles a bound circuit and noise spec into the noisy
 * density-matrix stream (see DmOp): the spec's channels trail each
 * gate and idle-window noise fills every ASAP layer in which a qubit
 * has no gate. A qubit's 1q gates, their channels and its idle noise
 * fuse into one pending Pauli transfer matrix, which the qubit's next
 * 2q gate absorbs as a Pair2q pre-op; whatever is left at the end is
 * one Super1q per qubit. O(gates) real 4x4 products, so it is compiled
 * fresh for every bound circuit. An empty spec gives the noiseless
 * stream DensityMatrix::run executes.
 */
std::vector<DmOp> compileNoisyStream(const Circuit &circuit,
                                     const DmNoiseSpec &spec);

/**
 * Analytic readout damping (1 - 2 p_meas)^weight(P) of a Pauli
 * expectation under symmetric per-qubit measurement bit-flips; 1.0
 * when p_meas <= 0. Shared by every backend's meas_flip path.
 */
double readoutDampingFactor(double meas_flip, const PauliString &op);

/**
 * Energy Tr(H rho) after noisy execution, with readout error folded in
 * analytically as a (1 - 2 p_meas)^weight damping per Pauli term. The
 * stream runs only over the x slices the terms read.
 */
double noisyDensityMatrixEnergy(const Circuit &circuit,
                                const Hamiltonian &ham,
                                const DmNoiseSpec &spec);

} // namespace eftvqa

#endif // EFTVQA_NOISE_NOISE_MODEL_HPP
