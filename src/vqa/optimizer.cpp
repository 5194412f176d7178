#include "vqa/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"

namespace eftvqa {

namespace {

/** Bookkeeping wrapper counting evaluations and best-so-far history. */
class TrackedObjective
{
  public:
    TrackedObjective(const ObjectiveFn &fn, OptimizerResult &result)
        : fn_(fn), result_(result)
    {
    }

    double
    operator()(const std::vector<double> &x)
    {
        const double v = fn_(x);
        ++result_.evaluations;
        if (result_.history.empty() || v < result_.best_value) {
            result_.best_value = v;
            result_.best_params = x;
        }
        result_.history.push_back(result_.best_value);
        return v;
    }

  private:
    const ObjectiveFn &fn_;
    OptimizerResult &result_;
};

} // namespace

// --------------------------------------------------------------------
// Nelder–Mead
// --------------------------------------------------------------------

NelderMeadOptimizer::NelderMeadOptimizer(double initial_step)
    : step_(initial_step)
{
    if (initial_step <= 0.0)
        throw std::invalid_argument("NelderMead: step > 0");
}

OptimizerResult
NelderMeadOptimizer::minimize(const ObjectiveFn &fn,
                              std::vector<double> initial, size_t max_evals)
{
    if (initial.empty())
        throw std::invalid_argument("NelderMead: empty parameter vector");
    OptimizerResult result;
    TrackedObjective objective(fn, result);

    const size_t n = initial.size();
    std::vector<std::vector<double>> simplex;
    std::vector<double> values;
    simplex.push_back(initial);
    values.push_back(objective(initial));
    for (size_t i = 0; i < n && result.evaluations < max_evals; ++i) {
        auto vertex = initial;
        vertex[i] += step_;
        simplex.push_back(vertex);
        values.push_back(objective(vertex));
    }

    constexpr double alpha = 1.0, gamma = 2.0, rho = 0.5, sigma = 0.5;

    while (result.evaluations + 2 < max_evals) {
        // Order vertices by value.
        std::vector<size_t> idx(simplex.size());
        std::iota(idx.begin(), idx.end(), 0);
        std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
            return values[a] < values[b];
        });
        std::vector<std::vector<double>> sorted_simplex;
        std::vector<double> sorted_values;
        for (size_t i : idx) {
            sorted_simplex.push_back(simplex[i]);
            sorted_values.push_back(values[i]);
        }
        simplex = std::move(sorted_simplex);
        values = std::move(sorted_values);

        // Centroid of all but the worst.
        std::vector<double> centroid(n, 0.0);
        for (size_t i = 0; i + 1 < simplex.size(); ++i)
            for (size_t d = 0; d < n; ++d)
                centroid[d] += simplex[i][d];
        for (double &c : centroid)
            c /= static_cast<double>(simplex.size() - 1);

        const auto &worst = simplex.back();
        std::vector<double> reflected(n);
        for (size_t d = 0; d < n; ++d)
            reflected[d] = centroid[d] + alpha * (centroid[d] - worst[d]);
        const double fr = objective(reflected);

        if (fr < values.front()) {
            // Expand.
            std::vector<double> expanded(n);
            for (size_t d = 0; d < n; ++d)
                expanded[d] =
                    centroid[d] + gamma * (reflected[d] - centroid[d]);
            const double fe = objective(expanded);
            if (fe < fr) {
                simplex.back() = expanded;
                values.back() = fe;
            } else {
                simplex.back() = reflected;
                values.back() = fr;
            }
        } else if (fr < values[values.size() - 2]) {
            simplex.back() = reflected;
            values.back() = fr;
        } else {
            // Contract.
            std::vector<double> contracted(n);
            for (size_t d = 0; d < n; ++d)
                contracted[d] =
                    centroid[d] + rho * (worst[d] - centroid[d]);
            const double fc = objective(contracted);
            if (fc < values.back()) {
                simplex.back() = contracted;
                values.back() = fc;
            } else {
                // Shrink toward the best vertex.
                for (size_t i = 1; i < simplex.size(); ++i) {
                    for (size_t d = 0; d < n; ++d)
                        simplex[i][d] = simplex[0][d] +
                                        sigma * (simplex[i][d] -
                                                 simplex[0][d]);
                    if (result.evaluations >= max_evals)
                        break;
                    values[i] = objective(simplex[i]);
                }
            }
        }
    }
    return result;
}

// --------------------------------------------------------------------
// Genetic algorithm (discrete Clifford space)
// --------------------------------------------------------------------

void
GeneticConfig::validate() const
{
    if (population < 2)
        throw std::invalid_argument(
            "GeneticConfig.population: must be >= 2 (got " +
            std::to_string(population) + ")");
    if (generations == 0)
        throw std::invalid_argument(
            "GeneticConfig.generations: must be > 0");
    if (elite >= population)
        throw std::invalid_argument(
            "GeneticConfig.elite: must be < population (got elite=" +
            std::to_string(elite) + ", population=" +
            std::to_string(population) + ")");
    if (mutation_rate < 0.0 || mutation_rate > 1.0)
        throw std::invalid_argument(
            "GeneticConfig.mutation_rate: must be in [0, 1] (got " +
            std::to_string(mutation_rate) + ")");
    if (crossover_rate < 0.0 || crossover_rate > 1.0)
        throw std::invalid_argument(
            "GeneticConfig.crossover_rate: must be in [0, 1] (got " +
            std::to_string(crossover_rate) + ")");
}

DiscreteResult
geneticMinimizeBatch(const DiscreteBatchObjectiveFn &fn, size_t n_params,
                     int n_values, const GeneticConfig &config)
{
    if (n_params == 0 || n_values < 2)
        throw std::invalid_argument("geneticMinimize: bad search space");
    config.validate();

    Rng rng(config.seed);
    DiscreteResult result;

    auto random_individual = [&]() {
        std::vector<int> ind(n_params);
        for (auto &v : ind)
            v = static_cast<int>(rng.uniformInt(
                static_cast<uint64_t>(n_values)));
        return ind;
    };

    // The fitness function never consumes GA randomness, so generating
    // every individual of a generation before evaluating the batch
    // walks the exact RNG stream of the one-at-a-time formulation.
    std::vector<std::vector<int>> population;
    for (size_t i = 0; i < config.population; ++i)
        population.push_back(random_individual());
    std::vector<double> fitness = fn(population);
    if (fitness.size() != population.size())
        throw std::logic_error(
            "geneticMinimizeBatch: objective returned wrong batch size");
    result.evaluations += population.size();

    auto record_best = [&]() {
        for (size_t i = 0; i < population.size(); ++i) {
            if (result.best_params.empty() ||
                fitness[i] < result.best_value) {
                result.best_value = fitness[i];
                result.best_params = population[i];
            }
        }
    };
    record_best();

    for (size_t gen = 0; gen < config.generations; ++gen) {
        // Rank selection: sort ascending by fitness (minimization).
        std::vector<size_t> idx(population.size());
        std::iota(idx.begin(), idx.end(), 0);
        std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
            return fitness[a] < fitness[b];
        });

        std::vector<std::vector<int>> next;
        std::vector<double> next_fitness;
        for (size_t e = 0; e < config.elite; ++e) {
            next.push_back(population[idx[e]]);
            next_fitness.push_back(fitness[idx[e]]);
        }

        auto tournament = [&]() -> const std::vector<int> & {
            const size_t a = rng.uniformInt(population.size());
            const size_t b = rng.uniformInt(population.size());
            return fitness[a] < fitness[b] ? population[a] : population[b];
        };

        std::vector<std::vector<int>> offspring;
        while (next.size() + offspring.size() < config.population) {
            std::vector<int> child = tournament();
            if (rng.bernoulli(config.crossover_rate)) {
                const auto &other = tournament();
                const size_t cut = rng.uniformInt(n_params);
                for (size_t d = cut; d < n_params; ++d)
                    child[d] = other[d];
            }
            for (size_t d = 0; d < n_params; ++d)
                if (rng.bernoulli(config.mutation_rate))
                    child[d] = static_cast<int>(rng.uniformInt(
                        static_cast<uint64_t>(n_values)));
            offspring.push_back(std::move(child));
        }

        const std::vector<double> offspring_fitness = fn(offspring);
        if (offspring_fitness.size() != offspring.size())
            throw std::logic_error(
                "geneticMinimizeBatch: objective returned wrong batch "
                "size");
        result.evaluations += offspring.size();
        for (size_t i = 0; i < offspring.size(); ++i) {
            next.push_back(std::move(offspring[i]));
            next_fitness.push_back(offspring_fitness[i]);
        }
        population = std::move(next);
        fitness = std::move(next_fitness);
        record_best();
    }
    return result;
}

DiscreteResult
geneticMinimize(const DiscreteObjectiveFn &fn, size_t n_params, int n_values,
                const GeneticConfig &config)
{
    DiscreteBatchObjectiveFn batch =
        [&fn](const std::vector<std::vector<int>> &individuals) {
            std::vector<double> values;
            values.reserve(individuals.size());
            for (const auto &ind : individuals)
                values.push_back(fn(ind));
            return values;
        };
    return geneticMinimizeBatch(batch, n_params, n_values, config);
}

} // namespace eftvqa
