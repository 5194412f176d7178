/**
 * @file
 * dm_vqe: the fig13 cell protocol on 8 qubits — best-of ideal
 * statevector minimization, then Nelder-Mead refinement under the
 * NISQ and pQEC density-matrix regimes — over three cells (Ising,
 * Heisenberg and the 367-term H2O surrogate), in process, no store.
 *
 * Untraced units evaluate energies through session.evaluator(regime),
 * timed as the optimizer sees them. Traced units evaluate the same
 * energies through the public layer entry points the engine uses
 * (CompiledCircuit, Backend::prepare / prepareCompiled,
 * Backend::expectationBatch), with a span at each, so the noisy
 * density-matrix time shows as its own layer. Both paths produce the
 * same bits, which the fresh-session re-evaluation check confirms.
 */

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "ansatz/ansatz.hpp"
#include "sim/backend.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/density_matrix.hpp"
#include "vqa/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace eftvqa;

namespace {

constexpr int kQubits = 8;
constexpr size_t kRefineEvals = 30;  ///< Nelder-Mead budget per noisy regime
constexpr size_t kAttempts = 2;      ///< ideal best-of runs = attempts + 1
constexpr size_t kHitProbes = 16;    ///< cached re-evaluations per regime
constexpr size_t kSetupReps = 5;

struct DmInputs
{
    double coupling = 1.0;
    double bond_length = 1.0;
};

DmInputs
dmInputs(uint64_t seed)
{
    SeedStream s(seed);
    DmInputs in;
    in.coupling = s.uniform(0.25, 2.0);
    in.bond_length = s.uniform(1.0, 4.5);
    return in;
}

SweepSpec
dmSweepSpec(const DmInputs &in)
{
    SweepSpec sweep;
    sweep.name = "perfbench_dm_vqe";
    sweep.families = {HamFamily::Ising, HamFamily::Heisenberg,
                      HamFamily::Molecule};
    sweep.sizes = {kQubits};
    sweep.couplings = {in.coupling};
    MoleculeSpec h2o;
    h2o.molecule = Molecule::H2O;
    h2o.bond_length = in.bond_length;
    h2o.n_qubits = kQubits;
    sweep.molecules = {h2o};
    sweep.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    sweep.regimes = {RegimeSpec::ideal(), RegimeSpec::nisqDensityMatrix(),
                     RegimeSpec::pqecDensityMatrix()};
    sweep.key_salt = kRefineEvals * 8 + kAttempts;
    sweep.customize = [](const SweepPoint &pt, ExperimentSpec &spec) {
        spec.genetic.seed = 555 + 101 * (static_cast<uint64_t>(pt.index) + 1);
    };
    sweep.cell_workers = 1;
    return sweep;
}

/** Everything the cell function records, shared across cells. */
struct DmContext
{
    explicit DmContext(Tracer &t) : tracer(t) {}

    Tracer &tracer;
    std::atomic<uint64_t> parent{0};

    std::mutex mutex; ///< guards the members below
    std::map<std::string, std::vector<double>> energy_ms;
    std::vector<double> cell_ms;
    std::vector<double> hit_ms;
    std::map<size_t, std::pair<std::vector<double>, std::vector<double>>>
        final_params; ///< cell index -> (nisq, pqec)
    uint64_t optimizer_evals = 0;
    // Traced-path counters.
    uint64_t memo_hits = 0;
    uint64_t memo_misses = 0;
    uint64_t dm_gates = 0;
    uint64_t compile_ops = 0;
    uint64_t compile_gates = 0;
};

/**
 * One regime's energy through the layer entry points, mirroring
 * EstimationEngine's exact path: the compiled pipeline only for
 * engines without density-matrix noise, prepare, batch expectations,
 * sum in term order. A content-hash memo stands in for the session's
 * energy cache (both are pure, so hits change no bits).
 */
class LayerEvaluator
{
  public:
    LayerEvaluator(DmContext &ctx, const Hamiltonian &ham,
                   const RegimeSpec &regime, std::string tag)
        : ctx_(ctx), ham_(ham), tag_(std::move(tag))
    {
        const EstimationConfig cfg = regime.estimationConfig();
        dm_ = cfg.noise && cfg.noise->hasDmNoise();
        backend_ = sim::makeBackend(cfg.backend, ham.nQubits(),
                                    cfg.noise ? &*cfg.noise : nullptr);
    }

    double operator()(const Circuit &bound)
    {
        Scope span(ctx_.tracer, "vqa.energy", tag_);
        const uint64_t key = bound.contentHash();
        if (const auto it = memo_.find(key); it != memo_.end()) {
            std::lock_guard<std::mutex> lock(ctx_.mutex);
            ++ctx_.memo_hits;
            return it->second;
        }
        uint64_t ops = 0;
        if (dm_) {
            Scope prep(ctx_.tracer, "noise.dm_prepare", tag_);
            backend_->prepare(bound);
        } else {
            std::optional<CompiledCircuit> compiled;
            {
                Scope comp(ctx_.tracer, "sim.compile", tag_);
                compiled.emplace(bound);
            }
            ops = compiled->nOps();
            Scope prep(ctx_.tracer, "sim.sv_prepare", tag_);
            backend_->prepareCompiled(*compiled);
        }
        std::vector<double> vals;
        {
            Scope ex(ctx_.tracer,
                     dm_ ? "sim.expectation.dm" : "sim.expectation.sv", tag_);
            vals = backend_->expectationBatch(ham_);
        }
        double energy = 0.0;
        const auto &terms = ham_.terms();
        for (size_t k = 0; k < terms.size(); ++k)
            energy += terms[k].coefficient * vals[k];
        memo_.emplace(key, energy);
        std::lock_guard<std::mutex> lock(ctx_.mutex);
        ++ctx_.memo_misses;
        if (dm_) {
            ctx_.dm_gates += bound.nGates();
        } else {
            ctx_.compile_ops += ops;
            ctx_.compile_gates += bound.nGates();
        }
        return energy;
    }

  private:
    DmContext &ctx_;
    const Hamiltonian &ham_;
    std::string tag_;
    bool dm_ = false;
    std::unique_ptr<sim::Backend> backend_;
    std::unordered_map<uint64_t, double> memo_;
};

EnergyEvaluator
timedEvaluator(EnergyEvaluator inner, DmContext &ctx, std::string regime)
{
    return [inner = std::move(inner), &ctx,
            regime = std::move(regime)](const Circuit &bound) {
        const int64_t t0 = nowNs();
        const double e = inner(bound);
        const double ms = static_cast<double>(nowNs() - t0) * 1e-6;
        std::lock_guard<std::mutex> lock(ctx.mutex);
        ctx.energy_ms[regime].push_back(ms);
        return e;
    };
}

SweepCellFn
dmCellFn(DmContext &ctx, bool traced)
{
    return [&ctx, traced](const SweepCell &cell, ExperimentSession &session) {
        const int64_t t0 = nowNs();
        const std::string tag = cell.keyString();
        Scope cell_span(ctx.tracer, "vqa.sweep.cell", tag, ctx.parent.load());
        const ExperimentSpec &spec = session.spec();
        const auto evaluator = [&](const char *name) -> EnergyEvaluator {
            const RegimeSpec &regime = spec.regime(name);
            if (traced) {
                auto layered = std::make_shared<LayerEvaluator>(
                    ctx, session.hamiltonian(), regime, tag);
                return [layered](const Circuit &c) { return (*layered)(c); };
            }
            return timedEvaluator(session.evaluator(regime), ctx, name);
        };

        NelderMeadOptimizer opt(0.6);
        const double e0 = session.hamiltonian().groundStateEnergy();
        const VqeResult ideal =
            runBestOf(spec.ansatz, evaluator("ideal"), opt, 4 * kRefineEvals,
                      kAttempts + 1, spec.genetic.seed);
        const VqeResult nisq = runVqe(spec.ansatz, evaluator("nisq"), opt,
                                      ideal.params, kRefineEvals);
        const VqeResult pqec = runVqe(spec.ansatz, evaluator("pqec"), opt,
                                      ideal.params, kRefineEvals);
        const double ms = static_cast<double>(nowNs() - t0) * 1e-6;

        // Store hits of the session's energy cache: the refined optima
        // were just evaluated, so these re-evaluations never compute.
        std::vector<double> hits;
        if (!traced)
            for (const auto &[name, result] :
                 {std::pair{"nisq", &nisq}, std::pair{"pqec", &pqec}}) {
                const Circuit bound = spec.ansatz.bind(result->params);
                for (size_t k = 0; k < kHitProbes; ++k) {
                    const int64_t h0 = nowNs();
                    session.energy(spec.regime(name), bound);
                    hits.push_back(static_cast<double>(nowNs() - h0) * 1e-6);
                }
            }

        SweepRow row;
        row.set("e0", e0);
        row.set("e_nisq", nisq.energy);
        row.set("e_pqec", pqec.energy);
        row.set("gamma", relativeImprovement(e0, pqec.energy, nisq.energy));
        std::lock_guard<std::mutex> lock(ctx.mutex);
        ctx.cell_ms.push_back(ms);
        ctx.hit_ms.insert(ctx.hit_ms.end(), hits.begin(), hits.end());
        ctx.final_params[cell.point.index] = {nisq.params, pqec.params};
        ctx.optimizer_evals +=
            ideal.evaluations + nisq.evaluations + pqec.evaluations;
        return row;
    };
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Variational bound and bit-exact fresh-session re-evaluation of
 *  every row. */
void
checkRows(Report &report, const SweepRunner &runner,
          const SweepReport &sweep, const DmContext &ctx)
{
    report.check(sweep.failed == 0 && sweep.rows.size() == runner.cells().size(),
                 "dm_vqe: sweep completed every cell");
    for (size_t i = 0; i < sweep.rows.size(); ++i) {
        const SweepRow &row = sweep.rows[i];
        const SweepCell &cell = runner.cells()[i];
        const double e0 = row.num("e0");
        report.check(e0 <= row.num("e_nisq") && e0 <= row.num("e_pqec"),
                     "dm_vqe: variational bound in " + cell.label);
        ExperimentSpec fresh_spec = cell.experiment;
        fresh_spec.share_cache = false;
        fresh_spec.cache_capacity = 0;
        ExperimentSession fresh(fresh_spec);
        const auto &[p_nisq, p_pqec] = ctx.final_params.at(i);
        const Circuit &ansatz = fresh_spec.ansatz;
        report.check(
            sameBits(fresh.energy(fresh_spec.regime("nisq"), ansatz.bind(p_nisq)),
                     row.num("e_nisq")),
            "dm_vqe: fresh re-evaluation of e_nisq in " + cell.label);
        report.check(
            sameBits(fresh.energy(fresh_spec.regime("pqec"), ansatz.bind(p_pqec)),
                     row.num("e_pqec")),
            "dm_vqe: fresh re-evaluation of e_pqec in " + cell.label);
    }
}

/** Median microseconds of @p reps calls of @p op. */
template <class F>
double
probeUs(size_t reps, F &&op)
{
    std::vector<double> us;
    us.reserve(reps);
    for (size_t i = 0; i < reps; ++i) {
        const int64_t t0 = nowNs();
        op(i);
        us.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
    }
    return median(std::move(us));
}

/** One public DensityMatrix channel / gate call on an 8-qubit rho. */
void
channelProbes(Report &report)
{
    constexpr size_t reps = 200;
    DensityMatrix rho(kQubits);
    for (uint32_t q = 0; q < kQubits; ++q)
        rho.applyGate(Gate(GateType::H, q));
    const auto q_of = [](size_t i) { return static_cast<size_t>(i % kQubits); };
    report.set("noise.depol2q_us", probeUs(reps, [&](size_t i) {
                   rho.applyDepolarizing2q(0.01, q_of(i), q_of(i + 1));
               }), "us", reps);
    report.set("noise.amp_damp_us", probeUs(reps, [&](size_t i) {
                   rho.applyAmplitudeDamping(0.01, q_of(i));
               }), "us", reps);
    report.set("noise.phase_damp_us", probeUs(reps, [&](size_t i) {
                   rho.applyPhaseDamping(0.01, q_of(i));
               }), "us", reps);
    report.set("noise.pauli1q_us", probeUs(reps, [&](size_t i) {
                   rho.applyPauliChannel1q(PauliChannel{1e-3, 1e-3, 1e-3},
                                           q_of(i));
               }), "us", reps);
    report.set("noise.bytes_per_call",
               16.0 * static_cast<double>(size_t{1} << (2 * kQubits)), "B");
    report.set("sim.dm_gate1q_us", probeUs(reps, [&](size_t i) {
                   rho.applyGate(Gate::rotation(
                       GateType::Rx, static_cast<uint32_t>(q_of(i)), 0.3));
               }), "us", reps);
    report.set("sim.dm_cx_us", probeUs(reps, [&](size_t i) {
                   rho.applyGate(Gate(GateType::CX,
                                      static_cast<uint32_t>(q_of(i)),
                                      static_cast<uint32_t>(q_of(i + 1))));
               }), "us", reps);
}

} // namespace

Report
runDmVqe(const RunConfig &config)
{
    Report report;
    report.env["cell_workers"] = "1";
    const DmInputs in = dmInputs(config.seed);
    report.env["inputs"] = "J=" + std::to_string(in.coupling) +
                           " h2o_bond=" + std::to_string(in.bond_length);
    const SweepSpec spec = dmSweepSpec(in);

    // Set-up: expand the grid (Hamiltonians, ansatz, keys) and pay each
    // regime's first evaluation (backend allocation, OpenMP start-up).
    std::vector<double> setup_s;
    for (size_t r = 0; r < kSetupReps; ++r) {
        const auto t0 = Clock::now();
        SweepRunner runner(spec);
        const SweepCell &cell = runner.cells().back();
        ExperimentSession session(cell.experiment);
        const Circuit bound = cell.experiment.ansatz.bind(std::vector<double>(
            cell.experiment.ansatz.nParameters(), 0.1));
        for (const RegimeSpec &regime : cell.experiment.regimes)
            session.energy(regime, bound);
        setup_s.push_back(secondsSince(t0));
    }

    Tracer tracer(false);
    DmContext ctx(tracer);
    std::vector<double> wall_untraced, wall_traced;
    std::vector<double> evals_per_unit, idle_s, executed, skipped, failed;
    const auto start = Clock::now();
    repeatFor(config.seconds, start, config.trace ? 2 : 1, [&](size_t i) {
        const bool traced = config.trace && i % 2 == 1;
        tracer.setOn(traced);
        const uint64_t evals_before = ctx.optimizer_evals;
        const size_t cells_before = ctx.cell_ms.size();
        const auto t0 = Clock::now();
        SweepRunner runner(spec);
        SweepReport sweep;
        {
            Scope root(tracer, "vqa.sweep.run");
            ctx.parent = root.id();
            sweep = runner.run(dmCellFn(ctx, traced), nullptr);
        }
        const double wall = secondsSince(t0);
        tracer.setOn(false);
        (traced ? wall_traced : wall_untraced).push_back(wall);
        double busy = 0.0;
        for (size_t c = cells_before; c < ctx.cell_ms.size(); ++c)
            busy += ctx.cell_ms[c] * 1e-3;
        idle_s.push_back(wall - busy); // one cell worker
        evals_per_unit.push_back(
            static_cast<double>(ctx.optimizer_evals - evals_before));
        executed.push_back(static_cast<double>(sweep.executed));
        skipped.push_back(static_cast<double>(sweep.skipped));
        failed.push_back(static_cast<double>(sweep.failed));
        checkRows(report, runner, sweep, ctx);
    });
    for (double e : evals_per_unit)
        report.check(e == evals_per_unit.front(),
                     "dm_vqe: optimizer evaluation count repeats");

    reportEndToEnd(report, setup_s, wall_untraced, ctx.energy_ms, ctx.cell_ms,
                   ctx.hit_ms);

    if (!config.trace)
        return report;

    // Per-layer numbers, per traced unit of work.
    const std::vector<Span> spans = tracer.spans();
    const double units = static_cast<double>(wall_traced.size());
    const auto busy = [&](const char *name) {
        return spanTotalSeconds(spans, name) / units;
    };
    const auto calls = [&](const char *name) {
        return static_cast<double>(spanSeconds(spans, name).size()) / units;
    };
    report.set("noise.dm_prepare.calls", calls("noise.dm_prepare"), "count");
    report.set("noise.dm_prepare.busy_s", busy("noise.dm_prepare"), "s");
    report.set("noise.dm_prepare.ns_per_gate",
               ratio(busy("noise.dm_prepare") * units * 1e9,
                     static_cast<double>(ctx.dm_gates)),
               "ns");
    channelProbes(report);
    report.set("sim.compile.calls", calls("sim.compile"), "count");
    report.set("sim.compile.busy_s", busy("sim.compile"), "s");
    report.set("sim.compile.ops_per_gate",
               ratio(static_cast<double>(ctx.compile_ops),
                     static_cast<double>(ctx.compile_gates)),
               "ratio");
    report.set("sim.sv_prepare.busy_s", busy("sim.sv_prepare"), "s");
    report.set("sim.expectation.sv.busy_s", busy("sim.expectation.sv"), "s");
    report.set("sim.expectation.dm.busy_s", busy("sim.expectation.dm"), "s");
    report.set("sim.expectation.calls",
               calls("sim.expectation.sv") + calls("sim.expectation.dm"),
               "count");
    report.set("vqa.energy.calls", calls("vqa.energy"), "count");
    report.set("vqa.energy.busy_s", busy("vqa.energy"), "s");
    report.set("vqa.energy_cache.hit_ratio",
               ratio(static_cast<double>(ctx.memo_hits),
                     static_cast<double>(ctx.memo_hits + ctx.memo_misses)),
               "ratio");
    report.set("vqa.optimizer.evals", evals_per_unit.front(), "count");
    const std::vector<double> cell_s = spanSeconds(spans, "vqa.sweep.cell");
    report.setTail("vqa.sweep.cell_s", cell_s, "s");
    report.set("vqa.sweep.cells_executed", median(executed), "count");
    report.set("vqa.sweep.skipped", median(skipped), "count");
    report.set("vqa.sweep.failed", median(failed), "count");
    report.set("vqa.sweep.idle_s", median(idle_s), "s", idle_s.size());
    reportTracing(report, spans, wall_traced, wall_untraced);
    return report;
}

} // namespace perfbench
