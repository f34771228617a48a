/**
 * @file
 * The optimizer family evaluated in Fig. 3 plus CodeCrunch's Sequential
 * Random Embedding (SRE).
 *
 * All optimizers work on the separable structure of the interval
 * problem: the objective decomposes into per-function (service, cost)
 * terms coupled only through the budget inequality, which lets every
 * optimizer evaluate single-coordinate moves incrementally.
 */
#pragma once

#include <string>

#include "common/rng.hpp"
#include "opt/objective.hpp"

namespace codecrunch::opt {

/**
 * Every Choice, enumerated once: the snapshot bit outermost, then
 * compress, then architecture, with the keep-alive level innermost.
 * Has choicesPerFunction() entries.
 */
const std::vector<Choice>& choiceSet();

/**
 * Objective with per-function decomposition. evaluate()/cost() are the
 * sums of term() over all functions (divided by N for the mean service
 * time).
 */
class SeparableObjective : public Objective
{
  public:
    /** (estimated service seconds, keep-alive cost dollars) of one
     * function under one choice. */
    virtual std::pair<double, double>
    term(std::size_t index, const Choice& choice) const = 0;

    /**
     * Every term of function `index`, in choiceSet() order: `out` must
     * hold choicesPerFunction() entries. Each entry must equal term()
     * for its choice bit for bit. An override may share work across
     * the row that term() repeats per choice.
     */
    virtual void
    termRow(std::size_t index, std::pair<double, double>* out) const
    {
        for (const Choice& choice : choiceSet())
            *out++ = term(index, choice);
    }

    double
    evaluate(const Assignment& assignment) const override
    {
        double total = 0.0;
        for (std::size_t i = 0; i < assignment.size(); ++i)
            total += term(i, assignment[i]).first;
        return assignment.empty()
            ? 0.0
            : total / static_cast<double>(assignment.size());
    }

    double
    cost(const Assignment& assignment) const override
    {
        double total = 0.0;
        for (std::size_t i = 0; i < assignment.size(); ++i)
            total += term(i, assignment[i]).second;
        return total;
    }
};

/**
 * Result of one optimization run.
 */
struct OptimizerResult {
    Assignment assignment;
    /** Objective::score of the assignment. */
    double score = 0.0;
    /**
     * Number of per-function term probes performed; a probe served
     * from a filled term row counts like one that computes the term.
     */
    std::size_t evaluations = 0;
};

/**
 * Base class for discrete optimizers.
 */
class Optimizer
{
  public:
    virtual ~Optimizer() = default;

    virtual std::string name() const = 0;

    /**
     * Minimize `objective` starting from `start`.
     * @param rng randomness source (deterministic per seed).
     */
    virtual OptimizerResult
    optimize(const SeparableObjective& objective,
             const Assignment& start, Rng& rng) = 0;
};

/**
 * Steepest coordinate descent — the paper's "gradient descent" on the
 * discrete space: per round, apply the single-coordinate change that
 * most reduces the score; stop at a local minimum or the round cap.
 */
class CoordinateDescent : public Optimizer
{
  public:
    explicit CoordinateDescent(std::size_t maxRounds = 1000)
        : maxRounds_(maxRounds)
    {
    }

    std::string name() const override { return "gradient-descent"; }

    OptimizerResult
    optimize(const SeparableObjective& objective,
             const Assignment& start, Rng& rng) override;

  private:
    std::size_t maxRounds_;
};

/**
 * Newton-style optimizer: per function, fits a quadratic along the
 * keep-alive axis and jumps to its minimum (flip moves for the two
 * binary axes), iterating a few sweeps. Mirrors how second-order
 * methods behave on this discrete, non-convex space (Fig. 3: poorly).
 */
class NewtonLike : public Optimizer
{
  public:
    explicit NewtonLike(std::size_t sweeps = 4) : sweeps_(sweeps) {}

    std::string name() const override { return "newton"; }

    OptimizerResult
    optimize(const SeparableObjective& objective,
             const Assignment& start, Rng& rng) override;

  private:
    std::size_t sweeps_;
};

/**
 * Generational genetic algorithm with tournament selection, uniform
 * crossover, and per-gene mutation.
 */
class Genetic : public Optimizer
{
  public:
    Genetic(std::size_t population = 24, std::size_t generations = 30,
            double mutationRate = 0.05)
        : population_(population), generations_(generations),
          mutationRate_(mutationRate)
    {
    }

    std::string name() const override { return "genetic"; }

    OptimizerResult
    optimize(const SeparableObjective& objective,
             const Assignment& start, Rng& rng) override;

  private:
    std::size_t population_;
    std::size_t generations_;
    double mutationRate_;
};

/**
 * Simulated annealing: random single-coordinate proposals accepted
 * with the Metropolis criterion under a geometric cooling schedule.
 * Another classic general-purpose optimizer that struggles on this
 * space within an online time budget (Fig. 3 family).
 */
class SimulatedAnnealing : public Optimizer
{
  public:
    SimulatedAnnealing(std::size_t steps = 4000,
                       double initialTemperature = 1.0,
                       double cooling = 0.999)
        : steps_(steps), initialTemperature_(initialTemperature),
          cooling_(cooling)
    {
    }

    std::string name() const override { return "annealing"; }

    OptimizerResult
    optimize(const SeparableObjective& objective,
             const Assignment& start, Rng& rng) override;

  private:
    std::size_t steps_;
    double initialTemperature_;
    double cooling_;
};

/** Uniform random search (sanity baseline). */
class RandomSearch : public Optimizer
{
  public:
    explicit RandomSearch(std::size_t samples = 2000)
        : samples_(samples)
    {
    }

    std::string name() const override { return "random-search"; }

    OptimizerResult
    optimize(const SeparableObjective& objective,
             const Assignment& start, Rng& rng) override;

  private:
    std::size_t samples_;
};

/**
 * Exhaustive search; only feasible for a handful of functions
 * (32^N assignments). Panics above `maxFunctions`.
 */
class BruteForce : public Optimizer
{
  public:
    explicit BruteForce(std::size_t maxFunctions = 6)
        : maxFunctions_(maxFunctions)
    {
    }

    std::string name() const override { return "brute-force"; }

    OptimizerResult
    optimize(const SeparableObjective& objective,
             const Assignment& start, Rng& rng) override;

  private:
    std::size_t maxFunctions_;
};

/**
 * Exact-up-to-duality-gap solver exploiting the problem's structure:
 * with a separable objective and a single budget constraint, the
 * optimum is a multiple-choice knapsack, solved here by Lagrangian
 * bisection on the budget multiplier. Serves as the paper's "Oracle"
 * optimizer at scales where brute force is impossible.
 */
class LagrangianOracle : public Optimizer
{
  public:
    explicit LagrangianOracle(int bisections = 48)
        : bisections_(bisections)
    {
    }

    std::string name() const override { return "oracle"; }

    OptimizerResult
    optimize(const SeparableObjective& objective,
             const Assignment& start, Rng& rng) override;

  private:
    int bisections_;
};

/** SRE tuning knobs. */
struct SreConfig {
    /** Functions per sub-problem (D_SRE / 3). */
    std::size_t functionsPerSubproblem = 8;
    /**
     * Fraction of functions (re)optimized per round; determines
     * N_SRE = ceil(coverage * N / functionsPerSubproblem).
     */
    double coveragePerRound = 0.2;
    /** Number of rounds (P_num). */
    std::size_t rounds = 2;
    /** Inner coordinate-descent round cap per sub-problem. */
    std::size_t innerRounds = 64;
};

/**
 * Sequential Random Embedding (paper Sec. 3.1): per round, sample a
 * low-dimensional subset of functions (probabilistically favoring the
 * rarely-optimized ones), optimize each sub-problem with the inner
 * optimizer while everything else stays fixed, recombine, and repeat
 * for a few rounds.
 *
 * The paper optimizes sub-problems in parallel. Here they run in
 * order on the calling thread: they are disjoint and each works
 * against a frozen snapshot of the round's starting assignment, so
 * the order cannot change the result, and a round's sub-problems are
 * too small to repay handing them to other threads (DESIGN.md §8).
 * The simulator's parallelism is a plan's jobs (runner/engine.hpp).
 */
class SreOptimizer : public Optimizer
{
  public:
    using Config = SreConfig;

    explicit SreOptimizer(SreConfig config = SreConfig())
        : config_(config)
    {
    }

    std::string name() const override { return "sre"; }

    OptimizerResult
    optimize(const SeparableObjective& objective,
             const Assignment& start, Rng& rng) override;

    /**
     * Like optimize(), but with persistent per-function selection
     * counts: functions optimized less often in the past are sampled
     * with higher probability (the paper's fairness rule). `counts`
     * must have objective.size() entries and is updated in place.
     */
    OptimizerResult
    optimizeWithCounts(const SeparableObjective& objective,
                       const Assignment& start, Rng& rng,
                       std::vector<std::uint32_t>& counts);

    const Config& config() const { return config_; }

  private:
    Config config_;
};

/** Random feasible-ish starting assignment (used by benchmarks). */
Assignment randomAssignment(std::size_t size, Rng& rng);

} // namespace codecrunch::opt
