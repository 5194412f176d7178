/**
 * @file
 * Tests for the classical optimizers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "vqa/optimizer.hpp"

using namespace eftvqa;

namespace {

/** Shifted quadratic bowl with minimum value -1 at (1, -2). */
double
bowl(const std::vector<double> &x)
{
    const double a = x[0] - 1.0;
    const double b = x[1] + 2.0;
    return a * a + b * b - 1.0;
}

} // namespace

TEST(NelderMead, MinimizesQuadratic)
{
    NelderMeadOptimizer opt(0.5);
    const auto result = opt.minimize(bowl, {0.0, 0.0}, 400);
    EXPECT_NEAR(result.best_value, -1.0, 1e-4);
    EXPECT_NEAR(result.best_params[0], 1.0, 1e-2);
    EXPECT_NEAR(result.best_params[1], -2.0, 1e-2);
}

TEST(NelderMead, RespectsEvaluationBudget)
{
    NelderMeadOptimizer opt;
    const auto result = opt.minimize(bowl, {0.0, 0.0}, 50);
    EXPECT_LE(result.evaluations, 50u);
    EXPECT_EQ(result.history.size(), result.evaluations);
}

TEST(NelderMead, HistoryIsMonotone)
{
    NelderMeadOptimizer opt;
    const auto result = opt.minimize(bowl, {3.0, 3.0}, 200);
    for (size_t i = 1; i < result.history.size(); ++i)
        EXPECT_LE(result.history[i], result.history[i - 1]);
}

TEST(NelderMead, RejectsEmptyStart)
{
    NelderMeadOptimizer opt;
    EXPECT_THROW(opt.minimize(bowl, {}, 10), std::invalid_argument);
}

TEST(Genetic, FindsDiscreteMinimum)
{
    // Minimum at all-2 assignment.
    DiscreteObjectiveFn fn = [](const std::vector<int> &x) {
        double total = 0.0;
        for (int v : x)
            total += (v - 2) * (v - 2);
        return total;
    };
    GeneticConfig config;
    config.generations = 60;
    const auto result = geneticMinimize(fn, 8, 4, config);
    EXPECT_DOUBLE_EQ(result.best_value, 0.0);
    for (int v : result.best_params)
        EXPECT_EQ(v, 2);
}

TEST(Genetic, DeterministicForSeed)
{
    DiscreteObjectiveFn fn = [](const std::vector<int> &x) {
        double total = 0.0;
        for (size_t i = 0; i < x.size(); ++i)
            total += x[i] * static_cast<double>(i + 1);
        return total;
    };
    GeneticConfig config;
    config.seed = 123;
    const auto a = geneticMinimize(fn, 5, 3, config);
    const auto b = geneticMinimize(fn, 5, 3, config);
    EXPECT_DOUBLE_EQ(a.best_value, b.best_value);
    EXPECT_EQ(a.best_params, b.best_params);
}

TEST(Genetic, RejectsBadConfig)
{
    DiscreteObjectiveFn fn = [](const std::vector<int> &) { return 0.0; };
    GeneticConfig bad;
    bad.elite = bad.population;
    EXPECT_THROW(geneticMinimize(fn, 3, 2, bad), std::invalid_argument);
    EXPECT_THROW(geneticMinimize(fn, 0, 2, GeneticConfig{}),
                 std::invalid_argument);
}

TEST(Genetic, EvaluationCountTracksPopulationAndGenerations)
{
    DiscreteObjectiveFn fn = [](const std::vector<int> &x) {
        return static_cast<double>(x[0]);
    };
    GeneticConfig config;
    config.population = 10;
    config.generations = 5;
    config.elite = 2;
    const auto result = geneticMinimize(fn, 2, 3, config);
    // initial 10 + 5 generations x 8 offspring.
    EXPECT_EQ(result.evaluations, 50u);
}
