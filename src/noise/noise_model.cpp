#include "noise/noise_model.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "qec/magic/injection.hpp"
#include "qec/surface_code.hpp"

namespace eftvqa {

double
PqecParams::cliffordError() const
{
    return surfaceCodeLogicalErrorRate(distance, p_phys);
}

double
PqecParams::rzError() const
{
    return InjectionModel(distance, p_phys).injectedErrorRate();
}

CliffordNoiseSpec
nisqCliffordSpec(const NisqParams &params)
{
    CliffordNoiseSpec spec;
    spec.one_qubit = depolarizingPauliChannel(params.oneQubitError());
    spec.two_qubit_depol = params.cxError();
    // Rz is error-free in NISQ (virtual Z); Rx/Ry compile to physical
    // pulses, but in VQA circuits they are folded into the 1q budget.
    spec.rotation = depolarizingPauliChannel(params.oneQubitError());
    spec.idle = pauliTwirledRelaxation(params.t1_ns, params.t2_ns,
                                       params.time_2q_ns);
    spec.meas_flip = params.measError();
    return spec;
}

CliffordNoiseSpec
pqecCliffordSpec(const PqecParams &params)
{
    CliffordNoiseSpec spec;
    const double eps = params.cliffordError();
    spec.one_qubit = depolarizingPauliChannel(eps);
    spec.two_qubit_depol = eps;
    // The injected state's error is Z-biased (Lao & Criger), but the
    // consumption circuit (CNOT + measurement + conditional correction,
    // Fig 2C) propagates it onto the data qubit in all Pauli directions;
    // the stabilizer path therefore models the net rotation error as
    // depolarizing at the full injection rate.
    spec.rotation = depolarizingPauliChannel(params.rzError());
    spec.idle = depolarizingPauliChannel(params.memoryErrorPerCycle());
    spec.meas_flip = params.measError();
    return spec;
}

DmNoiseSpec
nisqDmSpec(const NisqParams &params)
{
    DmNoiseSpec spec;
    spec.one_qubit_depol = params.oneQubitError();
    spec.two_qubit_depol = params.cxError();
    spec.rotation = {}; // Rz error-free; biased channels unused in NISQ
    spec.meas_flip = params.measError();
    spec.use_relaxation = true;
    spec.t1_ns = params.t1_ns;
    spec.t2_ns = params.t2_ns;
    spec.time_1q_ns = params.time_1q_ns;
    spec.time_2q_ns = params.time_2q_ns;
    return spec;
}

DmNoiseSpec
pqecDmSpec(const PqecParams &params)
{
    DmNoiseSpec spec;
    const double eps = params.cliffordError();
    spec.one_qubit_depol = eps;
    spec.two_qubit_depol = eps;
    const double rz = params.rzError();
    spec.rotation.pz = 0.9 * rz;
    spec.rotation.px = 0.05 * rz;
    spec.rotation.py = 0.05 * rz;
    spec.meas_flip = params.measError();
    spec.idle_depol = params.memoryErrorPerCycle();
    return spec;
}

namespace {

/** A Pauli transfer matrix, or nullopt for the identity (nothing to
 *  apply). */
using MaybeSuper = std::optional<Ptm>;

/** @p acc, then @p next. */
void
absorb(MaybeSuper &acc, const MaybeSuper &next)
{
    if (next)
        acc = acc ? superop::then(*acc, *next) : *next;
}

MaybeSuper
pauliIfAny(const PauliChannel &ch)
{
    if (ch.px + ch.py + ch.pz > 0.0)
        return superop::pauli(ch);
    return std::nullopt;
}

MaybeSuper
chain(MaybeSuper first, const MaybeSuper &second)
{
    absorb(first, second);
    return first;
}

} // namespace

std::vector<DmOp>
compileNoisyStream(const Circuit &circuit, const DmNoiseSpec &spec)
{
    // The channels that trail each gate class, and one idle slot (an
    // ASAP layer in which the qubit has no gate).
    const auto relax = [&](double t) -> MaybeSuper {
        if (!spec.use_relaxation)
            return std::nullopt;
        return superop::thermalRelaxation(spec.t1_ns, spec.t2_ns, t);
    };
    const MaybeSuper after_rotation =
        chain(pauliIfAny(spec.rotation), relax(spec.time_1q_ns));
    const MaybeSuper after_1q = chain(
        pauliIfAny(depolarizingPauliChannel(spec.one_qubit_depol)),
        relax(spec.time_1q_ns));
    const MaybeSuper after_2q = relax(spec.time_2q_ns);
    const MaybeSuper idle_slot =
        chain(relax(spec.time_2q_ns),
              pauliIfAny(depolarizingPauliChannel(spec.idle_depol)));

    // Each qubit's transfer matrix since its last Pair2q; ops on
    // different qubits commute, so it waits for the qubit's next
    // two-qubit gate (or the end of the circuit).
    const size_t n = circuit.nQubits();
    std::vector<MaybeSuper> pending(n);
    std::vector<size_t> level(n, 0);
    const auto idleUntil = [&](size_t q, size_t lvl) {
        for (; level[q] < lvl; ++level[q])
            absorb(pending[q], idle_slot);
    };

    std::vector<DmOp> ops;
    for (const Gate &g : circuit.gates()) {
        if (g.isParameterized())
            throw std::invalid_argument(
                "compileNoisyStream: unbound parameter");
        const size_t a = g.q0;
        if (g.isTwoQubit()) {
            const size_t b = g.q1;
            const size_t lvl = std::max(level[a], level[b]);
            idleUntil(a, lvl);
            idleUntil(b, lvl);
            level[a] = level[b] = lvl + 1;
            DmOp op;
            op.kind = DmOpKind::Pair2q;
            op.perm = pairPerm(g.type);
            op.q0 = g.q0;
            op.q1 = g.q1;
            op.depol = spec.two_qubit_depol;
            op.pre0 = pending[a].has_value();
            op.pre1 = pending[b].has_value();
            if (op.pre0)
                op.s0 = *pending[a];
            if (op.pre1)
                op.s1 = *pending[b];
            ops.push_back(op);
            pending[a] = pending[b] = after_2q;
            continue;
        }
        ++level[a];
        switch (g.type) {
          case GateType::I:
            break;
          case GateType::Measure:
            absorb(pending[a], superop::measureDephase());
            break;
          case GateType::Reset:
            absorb(pending[a], superop::reset());
            break;
          default:
            absorb(pending[a],
                   superop::conjugation(gateMatrix1q(g.type, g.angle)));
            absorb(pending[a],
                   isRotationType(g.type) ? after_rotation : after_1q);
            break;
        }
    }

    const size_t depth =
        n == 0 ? 0 : *std::max_element(level.begin(), level.end());
    for (size_t q = 0; q < n; ++q) {
        idleUntil(q, depth);
        if (!pending[q])
            continue;
        DmOp op;
        op.q0 = static_cast<uint32_t>(q);
        op.s0 = *pending[q];
        ops.push_back(op);
    }
    return ops;
}

double
readoutDampingFactor(double meas_flip, const PauliString &op)
{
    if (meas_flip <= 0.0)
        return 1.0;
    return std::pow(1.0 - 2.0 * meas_flip,
                    static_cast<double>(op.weight()));
}

double
noisyDensityMatrixEnergy(const Circuit &circuit, const Hamiltonian &ham,
                         const DmNoiseSpec &spec)
{
    DensityMatrix rho(circuit.nQubits());
    rho.prepare(compileNoisyStream(circuit, spec));
    const std::vector<double> vals = rho.expectationBatch(ham);
    double energy = 0.0;
    for (size_t k = 0; k < vals.size(); ++k) {
        const auto &t = ham.terms()[k];
        energy += t.coefficient * readoutDampingFactor(spec.meas_flip, t.op) *
                  vals[k];
    }
    return energy;
}

} // namespace eftvqa
