/**
 * @file
 * Monte-Carlo Pauli-noise trajectories over the stabilizer simulator.
 *
 * This is the engine behind the paper's large-scale Clifford-state VQE
 * evaluation (section 5.2.2): every classically simulable noise source —
 * depolarizing, bit-flip, and Pauli-twirled thermal relaxation — is
 * sampled per gate/idle slot, and energies are averaged across
 * trajectories.
 *
 * The energy farms split each call into one noiseless reference and
 * one Pauli frame per trajectory (Gidney, "Stim", Quantum 5, 497
 * (2021)). A reference Tableau gives every Hamiltonian term its ideal
 * value in {-1, 0, +1}. Each trajectory then carries only the Pauli
 * its noise left on the state, as x/z bit words pushed through the
 * Clifford gates. A term's sample is its ideal value, negated when
 * the frame anticommutes with the term. Circuits with Measure or Reset
 * are rejected by the farms.
 *
 * The farm is deterministic in parallel: one RNG stream is forked per
 * trajectory up front (Rng::forkStreams), so trajectory k consumes
 * stream k on whatever thread runs it, in the same order a full
 * tableau trajectory (runTrajectory) does. Per-term tallies are integer
 * sums, exactly order-independent. The farm therefore returns the same
 * bits for any OpenMP team size; a team of 1 is the serial sweep of
 * the same streams.
 */

#ifndef EFTVQA_STABILIZER_NOISY_CLIFFORD_HPP
#define EFTVQA_STABILIZER_NOISY_CLIFFORD_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "pauli/hamiltonian.hpp"
#include "sim/channels.hpp"
#include "stabilizer/tableau.hpp"

namespace eftvqa {

/** Pauli-noise specification for trajectory simulation. */
struct CliffordNoiseSpec
{
    /** Channel applied to the qubit after each one-qubit Clifford. */
    PauliChannel one_qubit;

    /** Total probability of a 15-way two-qubit depolarizing event. */
    double two_qubit_depol = 0.0;

    /** Channel applied after each rotation gate (Rz/Rx/Ry). In the pQEC
     *  regime this carries the magic-state-injection error 23p/30. */
    PauliChannel rotation;

    /** Channel applied per idle layer per idle qubit. */
    PauliChannel idle;

    /** Classical measurement bit-flip probability (scales Pauli
     *  expectations by (1-2p)^weight). */
    double meas_flip = 0.0;

    /** Noiseless spec. */
    static CliffordNoiseSpec ideal() { return {}; }
};

/**
 * Runs noisy Clifford circuits and estimates Hamiltonian energies.
 */
class NoisyCliffordSimulator
{
  public:
    NoisyCliffordSimulator(CliffordNoiseSpec spec, uint64_t seed);

    /**
     * Mean energy over @p trajectories noisy executions of the (bound,
     * Clifford) circuit. Readout error is folded in analytically as a
     * (1-2p)^weight damping per Pauli term. Throws
     * std::invalid_argument for zero trajectories, a non-Clifford
     * circuit, or a circuit with Measure or Reset.
     */
    double energy(const Circuit &circuit, const Hamiltonian &ham,
                  size_t trajectories);

    /** Per-trajectory energies (for variance studies / mitigation). */
    std::vector<double> energySamples(const Circuit &circuit,
                                      const Hamiltonian &ham,
                                      size_t trajectories);

    /**
     * Mean per-term Pauli expectations over @p trajectories noisy
     * executions, aligned with ham.terms() and including the analytic
     * readout damping. One batched pass: the reference tableau is read
     * once per term, and each trajectory's frame is tested once
     * against every term whose ideal value is non-zero.
     */
    std::vector<double> termExpectations(const Circuit &circuit,
                                         const Hamiltonian &ham,
                                         size_t trajectories);

    /**
     * One noisy execution as a full tableau; returns the post-circuit
     * stabilizer state. Unlike the farms it runs Measure and Reset.
     */
    Tableau runTrajectory(const Circuit &circuit);

    /** Single noiseless energy evaluation. */
    static double idealEnergy(const Circuit &circuit,
                              const Hamiltonian &ham);

    const CliffordNoiseSpec &spec() const { return spec_; }

  private:
    CliffordNoiseSpec spec_;
    Rng rng_;

    /** Per-term (1-2p)^weight readout damping, hoisted out of the
     *  trajectory loop. */
    std::vector<double> dampingTable(const Hamiltonian &ham) const;
};

} // namespace eftvqa

#endif // EFTVQA_STABILIZER_NOISY_CLIFFORD_HPP
