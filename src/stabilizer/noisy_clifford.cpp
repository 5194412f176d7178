#include "stabilizer/noisy_clifford.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/stats.hpp"
#include "noise/noise_model.hpp"
#include "vqa/fault.hpp"

namespace eftvqa {

namespace {

/** Which noise channel follows a scheduled gate. */
enum class GateNoise : uint8_t
{
    None,
    OneQubit,
    Rotation,
    TwoQubit,
};

/** One scheduled gate and the noise drawn after it. */
struct Step
{
    size_t gate; ///< index into circuit.gates()
    uint32_t q0, q1;
    GateNoise noise;
};

/**
 * ASAP layer schedule of a circuit, flattened: layer l runs steps
 * [step_end[l-1], step_end[l]) in program order, then draws idle noise
 * on qubits [idle_end[l-1], idle_end[l]) of `idle`, ascending.
 */
struct Schedule
{
    std::vector<Step> steps;
    std::vector<uint32_t> idle;
    std::vector<size_t> step_end, idle_end;
};

/**
 * Group gates into ASAP layers so idle noise can be applied per layer
 * to qubits not acted upon. Gate indices are bucketed by level — the
 * program-order gate list is NOT level-sorted (e.g. the FCHE entangler
 * starts a new low-level chain after a deep one).
 */
Schedule
buildSchedule(const Circuit &circuit)
{
    const auto &gates = circuit.gates();
    const size_t n = circuit.nQubits();
    std::vector<size_t> qubit_level(n, 0), gate_level(gates.size());
    size_t levels = 0;
    for (size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        size_t lvl = qubit_level[g.q0];
        if (g.isTwoQubit())
            lvl = std::max(lvl, qubit_level[g.q1]);
        qubit_level[g.q0] = lvl + 1;
        if (g.isTwoQubit())
            qubit_level[g.q1] = lvl + 1;
        gate_level[i] = lvl;
        levels = std::max(levels, lvl + 1);
    }

    // Counting sort by level keeps program order within a level.
    Schedule sched;
    sched.step_end.assign(levels, 0);
    for (size_t lvl : gate_level)
        ++sched.step_end[lvl];
    for (size_t l = 1; l < levels; ++l)
        sched.step_end[l] += sched.step_end[l - 1];
    std::vector<size_t> next(levels, 0);
    for (size_t l = 1; l < levels; ++l)
        next[l] = sched.step_end[l - 1];
    sched.steps.resize(gates.size());
    for (size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        GateNoise noise = GateNoise::None;
        if (isRotationType(g.type))
            noise = GateNoise::Rotation;
        else if (g.isTwoQubit())
            noise = GateNoise::TwoQubit;
        else if (g.type != GateType::I && g.type != GateType::Measure &&
                 g.type != GateType::Reset)
            noise = GateNoise::OneQubit;
        sched.steps[next[gate_level[i]]++] = {i, g.q0, g.q1, noise};
    }

    // busy[q] == l + 1 while qubit q is acted on in layer l.
    std::vector<size_t> busy(n, 0);
    sched.idle_end.resize(levels);
    size_t first = 0;
    for (size_t l = 0; l < levels; ++l) {
        for (size_t k = first; k < sched.step_end[l]; ++k) {
            busy[sched.steps[k].q0] = l + 1;
            if (sched.steps[k].noise == GateNoise::TwoQubit)
                busy[sched.steps[k].q1] = l + 1;
        }
        first = sched.step_end[l];
        for (size_t q = 0; q < n; ++q)
            if (busy[q] != l + 1)
                sched.idle.push_back(static_cast<uint32_t>(q));
        sched.idle_end[l] = sched.idle.size();
    }
    return sched;
}

template <class State>
void
applyChannel(State &s, const PauliChannel &ch, size_t q, Rng &rng)
{
    const double u = rng.uniform();
    if (u < ch.px)
        s.x(q);
    else if (u < ch.px + ch.py)
        s.y(q);
    else if (u < ch.px + ch.py + ch.pz)
        s.z(q);
}

template <class State>
void
applyTwoQubitDepol(State &s, double p, size_t q0, size_t q1, Rng &rng)
{
    if (p <= 0.0)
        return;
    if (!rng.bernoulli(p))
        return;
    // Uniform over the 15 non-identity two-qubit Paulis.
    const uint64_t idx = rng.uniformInt(15) + 1;
    auto apply_single = [&](uint64_t code, size_t q) {
        switch (code) {
          case 1: s.x(q); break;
          case 2: s.y(q); break;
          case 3: s.z(q); break;
          default: break;
        }
    };
    apply_single(idx & 3, q0);
    apply_single((idx >> 2) & 3, q1);
}

/**
 * One noisy execution of the schedule on @p s: each gate, the noise
 * drawn after it, then each layer's idle noise. This walk fixes the
 * order of every draw from @p rng, so the tableau and the Pauli frame
 * consume a trajectory's stream identically.
 */
template <class State>
void
runScheduled(const CliffordNoiseSpec &spec, const Schedule &sched, State &s,
             Rng &rng)
{
    const bool has_idle = spec.idle.px + spec.idle.py + spec.idle.pz > 0.0;
    size_t step = 0, idle = 0;
    for (size_t l = 0; l < sched.step_end.size(); ++l) {
        for (; step < sched.step_end[l]; ++step) {
            const Step &st = sched.steps[step];
            s.gate(st.gate, rng);
            switch (st.noise) {
              case GateNoise::Rotation:
                applyChannel(s, spec.rotation, st.q0, rng);
                break;
              case GateNoise::TwoQubit:
                applyTwoQubitDepol(s, spec.two_qubit_depol, st.q0, st.q1,
                                   rng);
                break;
              case GateNoise::OneQubit:
                applyChannel(s, spec.one_qubit, st.q0, rng);
                break;
              case GateNoise::None: break;
            }
        }
        if (has_idle)
            for (; idle < sched.idle_end[l]; ++idle)
                applyChannel(s, spec.idle, sched.idle[idle], rng);
        idle = sched.idle_end[l];
    }
}

/** A trajectory as a full tableau (runTrajectory). */
struct TableauState
{
    Tableau &t;
    const std::vector<Gate> &gates;

    void gate(size_t i, Rng &rng) { t.applyGate(gates[i], rng); }
    void x(size_t q) { t.x(q); }
    void y(size_t q) { t.y(q); }
    void z(size_t q) { t.z(q); }
};

/** A Clifford gate's action on a Pauli frame; signs are dropped. */
struct FrameGate
{
    enum Kind : uint8_t
    {
        Identity, ///< Paulis, I and even quarter turns
        SwapXZ,   ///< H, odd Ry
        ZxorX,    ///< S, Sdg, odd Rz
        XxorZ,    ///< odd Rx
        CX,
        CZ,
        Swap,
    };
    Kind kind;
    uint32_t a, b;
};

FrameGate
frameGate(const Gate &g)
{
    auto odd_turns = [&] {
        return std::llround(g.angle / (M_PI / 2.0)) % 2 != 0;
    };
    switch (g.type) {
      case GateType::H: return {FrameGate::SwapXZ, g.q0, 0};
      case GateType::S:
      case GateType::Sdg: return {FrameGate::ZxorX, g.q0, 0};
      case GateType::Rz:
        return {odd_turns() ? FrameGate::ZxorX : FrameGate::Identity, g.q0,
                0};
      case GateType::Rx:
        return {odd_turns() ? FrameGate::XxorZ : FrameGate::Identity, g.q0,
                0};
      case GateType::Ry:
        return {odd_turns() ? FrameGate::SwapXZ : FrameGate::Identity,
                g.q0, 0};
      case GateType::CX: return {FrameGate::CX, g.q0, g.q1};
      case GateType::CZ: return {FrameGate::CZ, g.q0, g.q1};
      case GateType::Swap: return {FrameGate::Swap, g.q0, g.q1};
      default: return {FrameGate::Identity, g.q0, 0};
    }
}

/**
 * The Pauli F with noisy state = F |ideal> up to phase, as x and z bit
 * words. A gate U maps F to U F U^dag; a noise Pauli multiplies in.
 */
struct PauliFrame
{
    const FrameGate *ops; ///< frameGate() of every circuit gate
    std::vector<uint64_t> xs, zs;

    static uint64_t mask(size_t q) { return uint64_t{1} << (q % 64); }
    static uint64_t bit(const std::vector<uint64_t> &v, size_t q)
    {
        return (v[q / 64] >> (q % 64)) & 1;
    }
    static void flipIf(std::vector<uint64_t> &v, size_t q, uint64_t b)
    {
        v[q / 64] ^= b << (q % 64);
    }

    void x(size_t q) { xs[q / 64] ^= mask(q); }
    void z(size_t q) { zs[q / 64] ^= mask(q); }
    void y(size_t q)
    {
        x(q);
        z(q);
    }

    void gate(size_t i, Rng &)
    {
        const FrameGate &g = ops[i];
        const size_t w = g.a / 64;
        const uint64_t m = mask(g.a);
        switch (g.kind) {
          case FrameGate::Identity: return;
          case FrameGate::SwapXZ: {
            const uint64_t d = (xs[w] ^ zs[w]) & m;
            xs[w] ^= d;
            zs[w] ^= d;
            return;
          }
          case FrameGate::ZxorX: zs[w] ^= xs[w] & m; return;
          case FrameGate::XxorZ: xs[w] ^= zs[w] & m; return;
          case FrameGate::CX:
            flipIf(xs, g.b, bit(xs, g.a));
            flipIf(zs, g.a, bit(zs, g.b));
            return;
          case FrameGate::CZ:
            flipIf(zs, g.a, bit(xs, g.b));
            flipIf(zs, g.b, bit(xs, g.a));
            return;
          case FrameGate::Swap: {
            const uint64_t dx = bit(xs, g.a) ^ bit(xs, g.b);
            const uint64_t dz = bit(zs, g.a) ^ bit(zs, g.b);
            flipIf(xs, g.a, dx);
            flipIf(xs, g.b, dx);
            flipIf(zs, g.a, dz);
            flipIf(zs, g.b, dz);
            return;
          }
        }
    }

    /** True when the frame anticommutes with @p p. */
    bool anticommutes(const PauliString &p) const
    {
        const auto &px = p.xWords();
        const auto &pz = p.zWords();
        uint64_t acc = 0;
        for (size_t w = 0; w < xs.size(); ++w)
            acc ^= (xs[w] & pz[w]) ^ (zs[w] & px[w]);
        return (std::popcount(acc) & 1) != 0;
    }
};

/**
 * What one frame farm run leaves for its reducers: each term's
 * noiseless value, the terms where that value is non-zero (ascending),
 * and per trajectory one bit per such term that is set when the
 * trajectory's frame anticommutes with it, negating its sample.
 */
struct FarmFlips
{
    std::vector<int> ideal;
    std::vector<size_t> live;
    size_t words = 0; ///< flip words per trajectory
    std::vector<uint64_t> bits;

    bool flipped(size_t k, size_t i) const
    {
        return (bits[k * words + i / 64] >> (i % 64)) & 1;
    }
};

/**
 * The trajectory farm behind energySamples and termExpectations: one
 * noiseless reference tableau for every term's ideal value, then one
 * Pauli frame per trajectory k on stream k. Trajectory k writes only
 * its own flip words, so the farm is bit-identical for any OpenMP
 * team size.
 */
FarmFlips
runFrameFarm(const CliffordNoiseSpec &spec, Rng &rng,
             const Circuit &circuit, const Hamiltonian &ham,
             size_t trajectories, const char *who)
{
    if (trajectories == 0)
        throw std::invalid_argument(std::string(who) +
                                    ": need trajectories > 0");
    if (!circuit.isClifford())
        throw std::invalid_argument(
            std::string(who) +
            ": circuit must be Clifford (angles in pi/2 Z)");
    // A measurement draws from the trajectory stream inside the state
    // and collapses it; a frame has neither.
    if (circuit.countType(GateType::Measure) +
            circuit.countType(GateType::Reset) >
        0)
        throw std::invalid_argument(
            std::string(who) + ": the trajectory farm has no Measure/Reset");

    const size_t n = circuit.nQubits();
    const auto &terms = ham.terms();
    FarmFlips out;
    {
        Tableau reference(n);
        Rng unused(1);
        reference.run(circuit, unused);
        out.ideal.resize(terms.size());
        for (size_t j = 0; j < terms.size(); ++j) {
            out.ideal[j] = reference.expectation(terms[j].op);
            if (out.ideal[j] != 0)
                out.live.push_back(j);
        }
    }
    out.words = (out.live.size() + 63) / 64;
    out.bits.assign(trajectories * out.words, 0);

    const Schedule sched = buildSchedule(circuit);
    std::vector<FrameGate> ops;
    ops.reserve(circuit.nGates());
    for (const Gate &g : circuit.gates())
        ops.push_back(frameGate(g));
    std::vector<Rng> streams = rng.forkStreams(trajectories);

    // Soft-deadline / client-disconnect seam: the engine publishes the
    // cell's CancelToken via CancelScope before calling in here.
    // Throws are forbidden inside the OpenMP region, so trajectories
    // poll non-throwingly and skip remaining work; the checkpoint after
    // the region raises on the calling thread. A partially-skipped farm
    // never returns — cancellation always ends in the throw below.
    const CancelToken *cancel = activeCancelToken();
    const size_t words = (n + 63) / 64;
#ifdef _OPENMP
#pragma omp parallel if (trajectories > 1)
#endif
    {
        PauliFrame f{ops.data(), std::vector<uint64_t>(words),
                     std::vector<uint64_t>(words)};
        // nowait: rows are disjoint, and the region's closing barrier
        // is the only one a farm call pays.
#ifdef _OPENMP
#pragma omp for schedule(static) nowait
#endif
        for (int64_t sk = 0; sk < static_cast<int64_t>(trajectories);
             ++sk) {
            if (cancel && (cancel->cancelled() || cancel->expired()))
                continue;
            const auto k = static_cast<size_t>(sk);
            std::fill(f.xs.begin(), f.xs.end(), 0);
            std::fill(f.zs.begin(), f.zs.end(), 0);
            runScheduled(spec, sched, f, streams[k]);
            uint64_t *row = out.bits.data() + k * out.words;
            for (size_t i = 0; i < out.live.size(); ++i)
                if (f.anticommutes(terms[out.live[i]].op))
                    row[i / 64] |= uint64_t{1} << (i % 64);
        }
    }
    cancelCheckpoint();
    return out;
}

} // namespace

NoisyCliffordSimulator::NoisyCliffordSimulator(CliffordNoiseSpec spec,
                                               uint64_t seed)
    : spec_(spec), rng_(seed)
{
}

Tableau
NoisyCliffordSimulator::runTrajectory(const Circuit &circuit)
{
    Tableau t(circuit.nQubits());
    TableauState state{t, circuit.gates()};
    runScheduled(spec_, buildSchedule(circuit), state, rng_);
    return t;
}

std::vector<double>
NoisyCliffordSimulator::dampingTable(const Hamiltonian &ham) const
{
    const auto &terms = ham.terms();
    std::vector<double> damping(terms.size(), 1.0);
    if (spec_.meas_flip > 0.0)
        for (size_t j = 0; j < terms.size(); ++j)
            damping[j] = readoutDampingFactor(spec_.meas_flip, terms[j].op);
    return damping;
}

double
NoisyCliffordSimulator::energy(const Circuit &circuit, const Hamiltonian &ham,
                               size_t trajectories)
{
    return mean(energySamples(circuit, ham, trajectories));
}

std::vector<double>
NoisyCliffordSimulator::energySamples(const Circuit &circuit,
                                      const Hamiltonian &ham,
                                      size_t trajectories)
{
    const FarmFlips farm = runFrameFarm(spec_, rng_, circuit, ham,
                                        trajectories, "energySamples");
    const std::vector<double> damping = dampingTable(ham);
    const auto &terms = ham.terms();
    // Terms with ideal value 0 sample 0 on every trajectory and add
    // nothing, so summing the live terms in term order gives the bits
    // of the full per-term sum.
    std::vector<double> samples(trajectories, 0.0);
    for (size_t k = 0; k < trajectories; ++k) {
        double total = 0.0;
        for (size_t i = 0; i < farm.live.size(); ++i) {
            const size_t j = farm.live[i];
            const int ev = farm.flipped(k, i) ? -farm.ideal[j]
                                              : farm.ideal[j];
            total += terms[j].coefficient * static_cast<double>(ev) *
                     damping[j];
        }
        samples[k] = total;
    }
    return samples;
}

std::vector<double>
NoisyCliffordSimulator::termExpectations(const Circuit &circuit,
                                         const Hamiltonian &ham,
                                         size_t trajectories)
{
    const FarmFlips farm = runFrameFarm(spec_, rng_, circuit, ham,
                                        trajectories, "termExpectations");
    const std::vector<double> damping = dampingTable(ham);
    // Per-term tallies are integer sums of {-1, 0, +1} samples, exact
    // in any order: ideal * (trajectories - 2 * flips).
    std::vector<int64_t> acc(ham.nTerms(), 0);
    for (size_t i = 0; i < farm.live.size(); ++i) {
        int64_t flips = 0;
        for (size_t k = 0; k < trajectories; ++k)
            flips += farm.flipped(k, i) ? 1 : 0;
        acc[farm.live[i]] = farm.ideal[farm.live[i]] *
                            (static_cast<int64_t>(trajectories) - 2 * flips);
    }
    const double inv = 1.0 / static_cast<double>(trajectories);
    std::vector<double> out(acc.size());
    for (size_t j = 0; j < acc.size(); ++j)
        out[j] = static_cast<double>(acc[j]) * inv * damping[j];
    return out;
}

double
NoisyCliffordSimulator::idealEnergy(const Circuit &circuit,
                                    const Hamiltonian &ham)
{
    Tableau t(circuit.nQubits());
    Rng rng(1); // measurements (if any) would consume randomness
    t.run(circuit, rng);
    return t.energy(ham);
}

} // namespace eftvqa
