#include "clifford_cell.hpp"

#include <algorithm>

#include "ansatz/ansatz.hpp"
#include "vqa/clifford_vqe.hpp"
#include "vqa/metrics.hpp"

namespace perfbench {

using namespace eftvqa;

void
CellRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mutex);
    energy_ms.clear();
    cell_ms.clear();
    cell_ms_by_key.clear();
    cells = energy_calls = tableau_evals = trajectories = 0;
    cache_hits = cache_misses = compile_hits = compile_misses = 0;
    optimizer_evals = 0;
}

namespace {

Tracer &
tracerOf(CellRecorder *rec)
{
    static Tracer off(false);
    return rec ? rec->tracer : off;
}

/** Trajectories one engine evaluation samples under @p r. */
uint64_t
trajectoriesOf(const RegimeSpec &r)
{
    if (!r.noise || !r.noise->hasCliffordNoise())
        return 1;
    return r.trajectories > 0 ? static_cast<uint64_t>(r.trajectories)
                              : r.noise->trajectories;
}

/**
 * ExperimentSession::cliffordVqe's GA (or cliffordReference's, for the
 * ideal regime) with the population objective timed: one energy_ms
 * sample per generation batch, per genome, under @p label.
 */
DiscreteResult
runGa(ExperimentSession &session, const RegimeSpec &regime,
      const std::string &label, const std::string &tag, CellRecorder *rec)
{
    Tracer &tr = tracerOf(rec);
    EstimationEngine &engine = session.engine(regime);
    const Circuit &ansatz = session.spec().ansatz;
    const auto objective = [&](const std::vector<std::vector<int>> &pop) {
        Scope span(tr, "vqa.energy", tag);
        std::vector<Circuit> bound;
        bound.reserve(pop.size());
        for (const auto &angles : pop)
            bound.push_back(ansatz.bind(cliffordAngles(angles)));
        const int64_t t0 = nowNs();
        std::vector<double> out;
        {
            Scope farm(tr, "stabilizer.prepare", tag);
            out = engine.energies(bound);
        }
        if (rec) {
            const double ms = static_cast<double>(nowNs() - t0) * 1e-6;
            std::lock_guard<std::mutex> lock(rec->mutex);
            if (!label.empty())
                rec->energy_ms[label].push_back(
                    ms / static_cast<double>(pop.size()));
            rec->energy_calls += pop.size();
        }
        return out;
    };
    return geneticMinimizeBatch(objective, ansatz.nParameters(), 4,
                                session.spec().genetic);
}

double
singleEnergy(ExperimentSession &session, const RegimeSpec &regime,
             const Circuit &bound, const std::string &tag,
             CellRecorder *rec)
{
    Tracer &tr = tracerOf(rec);
    Scope span(tr, "vqa.energy", tag);
    Scope farm(tr, "stabilizer.prepare", tag);
    if (rec) {
        std::lock_guard<std::mutex> lock(rec->mutex);
        ++rec->energy_calls;
    }
    return session.energy(regime, bound);
}

} // namespace

SweepSpec
cliffordSweepSpec(const CliffordGrid &grid)
{
    SweepSpec spec;
    spec.name = grid.name;
    spec.families = {HamFamily::Ising, HamFamily::Heisenberg};
    spec.sizes = grid.sizes;
    spec.couplings = grid.couplings;
    spec.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    spec.genetic.population = grid.population;
    spec.genetic.generations = grid.generations;
    spec.genetic.seed = 1234;
    const size_t traj = grid.trajectories;
    spec.regimes = {RegimeSpec::nisqTableau(traj / 8),
                    RegimeSpec::pqecTableau(traj / 8)};
    spec.customize = [traj](const SweepPoint &pt, ExperimentSpec &es) {
        es.genetic.seed = 1234 + static_cast<uint64_t>(pt.qubits) * 17 +
                          static_cast<uint64_t>(pt.coupling * 100.0);
        es.regimes.push_back(
            RegimeSpec::nisqTableau(traj,
                                    9100 + static_cast<uint64_t>(pt.qubits))
                .named("nisq-eval"));
        es.regimes.push_back(
            RegimeSpec::pqecTableau(traj,
                                    9200 + static_cast<uint64_t>(pt.qubits))
                .named("pqec-eval"));
    };
    spec.max_cells = std::max<size_t>(spec.max_cells, spec.cellCount());
    return spec;
}

SweepCellFn
cliffordCellFn(size_t trajectories, CellRecorder *rec)
{
    return [trajectories, rec](const SweepCell &cell,
                               ExperimentSession &session) {
        Tracer &tr = tracerOf(rec);
        const std::string tag = cell.keyString();
        const int64_t t0 = nowNs();
        Scope cell_span(tr, "vqa.sweep.cell", tag,
                        rec ? rec->parent_span.load() : 0);

        const ExperimentSpec &spec = session.spec();
        const Circuit &ansatz = spec.ansatz;
        const uint64_t ga_seed = spec.genetic.seed;
        // The GA regime derivation of ExperimentSession::cliffordVqe.
        const auto ga_regime = [&](const char *name) {
            const RegimeSpec &base = spec.regime(name);
            RegimeSpec ga = base.named(base.name + "#ga");
            if (ga.noise)
                ga.noise->seed = ga_seed ^ 0xA5A5A5A5ull;
            return ga;
        };
        const RegimeSpec nisq_ga = ga_regime("nisq");
        const RegimeSpec pqec_ga = ga_regime("pqec");
        const RegimeSpec ideal = RegimeSpec::idealTableau(ga_seed);
        const auto bind = [&](const DiscreteResult &r) {
            return ansatz.bind(cliffordAngles(r.best_params));
        };

        const DiscreteResult nisq = runGa(session, nisq_ga, "nisq", tag, rec);
        const double nisq_ideal =
            singleEnergy(session, ideal, bind(nisq), tag, rec);
        const DiscreteResult pqec = runGa(session, pqec_ga, "pqec", tag, rec);
        const double pqec_ideal =
            singleEnergy(session, ideal, bind(pqec), tag, rec);
        const DiscreteResult ref = runGa(session, ideal, "", tag, rec);
        const double e0 = std::min({ref.best_value, nisq_ideal, pqec_ideal});
        RegimeComparison cmp;
        {
            Scope span(tr, "vqa.energy", tag);
            Scope farm(tr, "stabilizer.prepare", tag);
            cmp = compareRegimes(session, spec.regime("pqec-eval"), bind(pqec),
                                 spec.regime("nisq-eval"), bind(nisq), e0,
                                 2.0 / static_cast<double>(trajectories));
        }

        SweepRow row;
        row.set("family", hamFamilyName(cell.point.family));
        row.set("qubits", cell.point.qubits);
        row.set("j", cell.point.coupling);
        row.set("e0", e0);
        row.set("e_nisq", cmp.energy_b);
        row.set("e_pqec", cmp.energy_a);
        row.set("gamma", cmp.gamma);

        if (rec) {
            uint64_t hits = 0, misses = 0, traj = 0, chits = 0, cmisses = 0;
            for (const RegimeSpec *r :
                 {&nisq_ga, &pqec_ga, &ideal, &spec.regime("nisq-eval"),
                  &spec.regime("pqec-eval")}) {
                const EstimationEngine &e = session.engine(*r);
                hits += e.cacheHits();
                misses += e.cacheMisses();
                traj += e.cacheMisses() * trajectoriesOf(*r);
                chits += e.compileCacheHits();
                cmisses += e.compileCacheMisses();
            }
            const double ms = static_cast<double>(nowNs() - t0) * 1e-6;
            std::lock_guard<std::mutex> lock(rec->mutex);
            ++rec->cells;
            rec->energy_calls += 2;
            rec->cache_hits += hits;
            rec->cache_misses += misses;
            rec->tableau_evals += misses;
            rec->trajectories += traj;
            rec->compile_hits += chits;
            rec->compile_misses += cmisses;
            rec->optimizer_evals +=
                nisq.evaluations + pqec.evaluations + ref.evaluations;
            rec->cell_ms.push_back(ms);
            rec->cell_ms_by_key[tag] = ms;
        }
        return row;
    };
}

void
reportCliffordLayers(Report &report, const CellRecorder &rec,
                     const std::vector<Span> &spans, double recorded_units,
                     double traced_units)
{
    const auto per_unit = [&](uint64_t count) {
        return static_cast<double>(count) / recorded_units;
    };
    const double farm_s =
        spanTotalSeconds(spans, "stabilizer.prepare") / traced_units;
    report.set("stabilizer.prepare.calls", per_unit(rec.tableau_evals), "count");
    report.set("stabilizer.prepare.busy_s", farm_s, "s");
    report.set("stabilizer.trajectories_per_s",
               ratio(per_unit(rec.trajectories), farm_s), "1/s");
    report.set("vqa.energy.calls", per_unit(rec.energy_calls), "count");
    report.set("vqa.energy.busy_s",
               spanTotalSeconds(spans, "vqa.energy") / traced_units, "s");
    report.set("vqa.optimizer.evals", per_unit(rec.optimizer_evals), "count");
    report.setTail("vqa.sweep.cell_s", spanSeconds(spans, "vqa.sweep.cell"),
                   "s");
}

} // namespace perfbench
