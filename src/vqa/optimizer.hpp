/**
 * @file
 * Classical optimizers for the VQA outer loop (paper section 5.2: Cobyla
 * and ImFil for continuous parameters, a genetic algorithm for the
 * discrete Clifford parameter space).
 *
 * The continuous optimizer is Nelder–Mead, implemented from scratch
 * (the derivative-free simplex family Cobyla belongs to). The genetic
 * optimizer lives here too; clifford_vqe.hpp wires it to the
 * stabilizer backend.
 */

#ifndef EFTVQA_VQA_OPTIMIZER_HPP
#define EFTVQA_VQA_OPTIMIZER_HPP

#include <functional>
#include <string>
#include <vector>

namespace eftvqa {

/** Objective over continuous parameters. */
using ObjectiveFn = std::function<double(const std::vector<double> &)>;

/** Result of a minimization run. */
struct OptimizerResult
{
    std::vector<double> best_params;
    double best_value = 0.0;
    size_t evaluations = 0;
    std::vector<double> history; ///< best-so-far after each evaluation
};

/** Interface for continuous derivative-free minimizers. */
class Optimizer
{
  public:
    virtual ~Optimizer() = default;

    /** Minimize @p fn from @p initial using at most @p max_evals calls. */
    virtual OptimizerResult minimize(const ObjectiveFn &fn,
                                     std::vector<double> initial,
                                     size_t max_evals) = 0;

    /** Human-readable name. */
    virtual std::string name() const = 0;
};

/** Nelder–Mead simplex with adaptive restarts. */
class NelderMeadOptimizer : public Optimizer
{
  public:
    explicit NelderMeadOptimizer(double initial_step = 0.5);
    OptimizerResult minimize(const ObjectiveFn &fn,
                             std::vector<double> initial,
                             size_t max_evals) override;
    std::string name() const override { return "nelder-mead"; }

  private:
    double step_;
};

/** Objective over discrete parameter assignments. */
using DiscreteObjectiveFn = std::function<double(const std::vector<int> &)>;

/** Configuration of the genetic optimizer. */
struct GeneticConfig
{
    size_t population = 32;
    size_t generations = 40;
    double mutation_rate = 0.08;
    double crossover_rate = 0.7;
    size_t elite = 4;
    uint64_t seed = 11;

    /**
     * Throw std::invalid_argument naming the offending field for
     * configurations the GA cannot run (population < 2, zero
     * generations, elite >= population, rates outside [0, 1]). Called
     * by geneticMinimize/geneticMinimizeBatch and by
     * ExperimentSpec::validate().
     */
    void validate() const;
};

/** Result of a discrete minimization. */
struct DiscreteResult
{
    std::vector<int> best_params;
    double best_value = 0.0;
    size_t evaluations = 0;
};

/**
 * mu+lambda genetic algorithm over vectors in {0..n_values-1}^n_params
 * (the paper's optimizer for Clifford-restricted angles, section 5.2.2).
 */
DiscreteResult geneticMinimize(const DiscreteObjectiveFn &fn,
                               size_t n_params, int n_values,
                               const GeneticConfig &config);

/**
 * Population-at-a-time objective: receives every individual of a
 * generation at once and returns their fitness values in order. This is
 * the seam the batch evaluators plug into (EstimationEngine::energies
 * deduplicates repeated genomes and fans the rest out across backend
 * clones).
 */
using DiscreteBatchObjectiveFn =
    std::function<std::vector<double>(const std::vector<std::vector<int>> &)>;

/**
 * geneticMinimize with batched fitness evaluation. The evolution path
 * is identical to the scalar form for the same config and per-genome
 * fitness values: offspring of a generation are generated first (all
 * RNG draws), then evaluated in one batch.
 */
DiscreteResult geneticMinimizeBatch(const DiscreteBatchObjectiveFn &fn,
                                    size_t n_params, int n_values,
                                    const GeneticConfig &config);

} // namespace eftvqa

#endif // EFTVQA_VQA_OPTIMIZER_HPP
