#include "opt/optimizers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/logging.hpp"
#include "obs/profiler.hpp"

namespace codecrunch::opt {

namespace {

/** All 2 x 2 x 2 x levels choices, enumerated once. */
std::vector<Choice>
allChoices()
{
    std::vector<Choice> choices;
    for (int snapshot = 0; snapshot < 2; ++snapshot) {
        for (int compress = 0; compress < 2; ++compress) {
            for (int arch = 0; arch < 2; ++arch) {
                for (std::size_t k = 0; k < keepAliveLevels().size();
                     ++k) {
                    choices.push_back(Choice{
                        compress == 1,
                        arch == 0 ? NodeType::X86 : NodeType::ARM,
                        static_cast<int>(k), snapshot == 1});
                }
            }
        }
    }
    return choices;
}

/** Position of `choice` in choiceSet(); inverts allChoices(). */
std::size_t
choiceIndex(const Choice& choice)
{
    const std::size_t block =
        (choice.snapshot ? 4u : 0u) + (choice.compress ? 2u : 0u) +
        (choice.arch == NodeType::ARM ? 1u : 0u);
    return block * kKeepAliveLevels +
           static_cast<std::size_t>(choice.keepAliveLevel);
}

using Term = std::pair<double, double>;

/**
 * The terms of every function a probe has touched: one row of
 * choicesPerFunction() entries per function, in choiceSet() order,
 * filled by a single termRow() call on the function's first probe.
 * One table serves one optimize() call, so a function probed in
 * several sub-problems, rounds or repair passes is evaluated once.
 */
class TermTable
{
  public:
    explicit TermTable(const SeparableObjective& objective)
        : objective_(objective), rowOf_(objective.size(), kNoRow)
    {
    }

    const SeparableObjective& objective() const { return objective_; }

    /** Function i's term under choiceSet()[c]. */
    Term
    at(std::size_t i, std::size_t c)
    {
        if (rowOf_[i] == kNoRow) {
            rowOf_[i] = static_cast<std::uint32_t>(rows_.size() /
                                                   kRow);
            rows_.resize(rows_.size() + kRow);
            objective_.termRow(i, &rows_[rows_.size() - kRow]);
        }
        return rows_[std::size_t{rowOf_[i]} * kRow + c];
    }

  private:
    static constexpr std::size_t kRow = choicesPerFunction();
    static constexpr std::uint32_t kNoRow = UINT32_MAX;

    const SeparableObjective& objective_;
    /** Row number of each function, or kNoRow before its first probe. */
    std::vector<std::uint32_t> rowOf_;
    std::vector<Term> rows_;
};

/**
 * Incremental evaluation state: per-function terms plus running sums.
 * The starting terms come from term(); probes read the table.
 */
class State
{
  public:
    State(TermTable& table, const Assignment& assignment)
        : table_(table), assignment_(assignment)
    {
        const SeparableObjective& objective = table.objective();
        terms_.resize(assignment.size());
        for (std::size_t i = 0; i < assignment.size(); ++i) {
            terms_[i] = objective.term(i, assignment[i]);
            serviceSum_ += terms_[i].first;
            costSum_ += terms_[i].second;
        }
        evaluations_ += assignment.size();
    }

    double
    score() const
    {
        return scoreOf(serviceSum_, costSum_);
    }

    /** Score if function `i` switched to choiceSet()[c]. */
    double
    scoreIf(std::size_t i, std::size_t c)
    {
        const Term t = table_.at(i, c);
        ++evaluations_;
        lastTerm_ = t;
        return scoreOf(serviceSum_ - terms_[i].first + t.first,
                       costSum_ - terms_[i].second + t.second);
    }

    /** Commit the most recent scoreIf() probe, which was of `c`. */
    void
    apply(std::size_t i, std::size_t c)
    {
        serviceSum_ += lastTerm_.first - terms_[i].first;
        costSum_ += lastTerm_.second - terms_[i].second;
        terms_[i] = lastTerm_;
        assignment_[i] = choiceSet()[c];
    }

    /** Probe and commit (when lastTerm_ may be stale). */
    void
    set(std::size_t i, std::size_t c)
    {
        scoreIf(i, c);
        apply(i, c);
    }

    const Assignment& assignment() const { return assignment_; }
    std::size_t evaluations() const { return evaluations_; }
    double serviceSum() const { return serviceSum_; }
    double costSum() const { return costSum_; }
    void addEvaluations(std::size_t n) { evaluations_ += n; }

  private:
    double
    scoreOf(double serviceSum, double costSum) const
    {
        const std::size_t n = assignment_.size();
        const double service =
            n ? serviceSum / static_cast<double>(n) : 0.0;
        const double budget = table_.objective().budget();
        const double over = costSum - budget;
        double penalty = 0.0;
        if (over > 0.0)
            penalty = 1e6 + 1e6 * over / std::max(budget, 1e-9);
        return service + penalty + 1e-7 * costSum;
    }

    TermTable& table_;
    Assignment assignment_;
    std::vector<Term> terms_;
    double serviceSum_ = 0.0;
    double costSum_ = 0.0;
    std::size_t evaluations_ = 0;
    Term lastTerm_{0.0, 0.0};
};

/**
 * Steepest-descent over a subset of coordinates; shared by
 * CoordinateDescent (all coordinates) and SRE (repair pass).
 */
std::size_t
descend(State& state, const std::vector<std::size_t>& indices,
        std::size_t maxRounds)
{
    std::size_t rounds = 0;
    while (rounds < maxRounds) {
        ++rounds;
        double bestScore = state.score();
        std::size_t bestIndex = SIZE_MAX;
        std::size_t bestChoice = 0;
        for (std::size_t i : indices) {
            const std::size_t current =
                choiceIndex(state.assignment()[i]);
            for (std::size_t c = 0; c < choicesPerFunction(); ++c) {
                if (c == current)
                    continue;
                const double s = state.scoreIf(i, c);
                if (s < bestScore - 1e-12) {
                    bestScore = s;
                    bestIndex = i;
                    bestChoice = c;
                }
            }
        }
        if (bestIndex == SIZE_MAX)
            break; // local minimum
        state.set(bestIndex, bestChoice);
    }
    return rounds;
}

std::vector<std::size_t>
allIndices(std::size_t n)
{
    std::vector<std::size_t> indices(n);
    for (std::size_t i = 0; i < n; ++i)
        indices[i] = i;
    return indices;
}

/** One sub-problem's proposed coordinate changes. */
struct SubproblemResult {
    /** (function, index into choiceSet()) pairs. */
    std::vector<std::pair<std::size_t, std::size_t>> changes;
    std::size_t evaluations = 0;
};

/**
 * Steepest descent over a sub-problem against a frozen snapshot of
 * everything else: only the sub-problem's own terms move; the rest of
 * the assignment contributes fixed base sums.
 */
SubproblemResult
descendSubproblem(TermTable& table, const Assignment& snapshot,
                  const std::vector<std::size_t>& indices,
                  double baseService, double baseCost,
                  double budgetShare, std::size_t maxRounds)
{
    CC_PHASE("sre.subproblem");
    SubproblemResult result;
    const std::size_t n = snapshot.size();

    // Local copies of the sub-problem's choices and terms.
    std::vector<std::size_t> local;
    std::vector<Term> terms;
    double service = baseService;
    double cost = baseCost;
    for (std::size_t i : indices) {
        local.push_back(choiceIndex(snapshot[i]));
        terms.push_back(table.at(i, local.back()));
        ++result.evaluations;
    }

    auto scoreOf = [&](double serviceSum, double costSum) {
        const double mean =
            n ? serviceSum / static_cast<double>(n) : 0.0;
        // Each sub-problem may only consume its share of the global
        // budget slack: the round's sub-problems are merged against
        // one frozen snapshot, so sub-problems that each spent all of
        // the slack would together over-commit it.
        const double over = costSum - budgetShare;
        double penalty = 0.0;
        if (over > 0.0) {
            penalty = 1e6 + 1e6 * over /
                      std::max(budgetShare, 1e-9);
        }
        return mean + penalty + 1e-7 * costSum;
    };

    for (std::size_t round = 0; round < maxRounds; ++round) {
        double bestScore = scoreOf(service, cost);
        std::size_t bestSlot = SIZE_MAX;
        std::size_t bestChoice = 0;
        Term bestTerm;
        for (std::size_t slot = 0; slot < indices.size(); ++slot) {
            for (std::size_t c = 0; c < choicesPerFunction(); ++c) {
                if (c == local[slot])
                    continue;
                const Term t = table.at(indices[slot], c);
                ++result.evaluations;
                const double s =
                    scoreOf(service - terms[slot].first + t.first,
                            cost - terms[slot].second + t.second);
                if (s < bestScore - 1e-12) {
                    bestScore = s;
                    bestSlot = slot;
                    bestChoice = c;
                    bestTerm = t;
                }
            }
        }
        if (bestSlot == SIZE_MAX)
            break;
        service += bestTerm.first - terms[bestSlot].first;
        cost += bestTerm.second - terms[bestSlot].second;
        terms[bestSlot] = bestTerm;
        local[bestSlot] = bestChoice;
    }

    for (std::size_t slot = 0; slot < indices.size(); ++slot) {
        if (local[slot] != choiceIndex(snapshot[indices[slot]]))
            result.changes.emplace_back(indices[slot], local[slot]);
    }
    return result;
}

Choice
randomChoice(Rng& rng)
{
    const auto& set = choiceSet();
    return set[rng.next() % set.size()];
}

} // namespace

const std::vector<Choice>&
choiceSet()
{
    static const std::vector<Choice> set = allChoices();
    return set;
}

Assignment
randomAssignment(std::size_t size, Rng& rng)
{
    Assignment assignment(size);
    for (auto& choice : assignment)
        choice = randomChoice(rng);
    return assignment;
}

OptimizerResult
CoordinateDescent::optimize(const SeparableObjective& objective,
                            const Assignment& start, Rng&)
{
    TermTable table(objective);
    State state(table, start);
    descend(state, allIndices(objective.size()), maxRounds_);
    return {state.assignment(), state.score(), state.evaluations()};
}

OptimizerResult
NewtonLike::optimize(const SeparableObjective& objective,
                     const Assignment& start, Rng&)
{
    TermTable table(objective);
    State state(table, start);
    const std::size_t n = objective.size();
    const int levels = static_cast<int>(keepAliveLevels().size());
    for (std::size_t sweep = 0; sweep < sweeps_; ++sweep) {
        const double before = state.score();
        for (std::size_t i = 0; i < n; ++i) {
            Choice current = state.assignment()[i];
            // Quadratic fit along the keep-alive axis through
            // (k-1, k, k+1); jump to the fitted minimum.
            const int k = current.keepAliveLevel;
            const int lo = std::max(0, k - 1);
            const int hi = std::min(levels - 1, k + 1);
            if (lo < k && k < hi) {
                Choice a = current, b = current, c = current;
                a.keepAliveLevel = lo;
                c.keepAliveLevel = hi;
                const double fa = state.scoreIf(i, choiceIndex(a));
                const double fb = state.scoreIf(i, choiceIndex(b));
                const double fc = state.scoreIf(i, choiceIndex(c));
                // Vertex of the parabola through three equispaced
                // points; denominator ~ second derivative.
                const double denom = fa - 2.0 * fb + fc;
                if (std::abs(denom) > 1e-12) {
                    const double shift = 0.5 * (fa - fc) / denom;
                    int target = k + static_cast<int>(
                        std::lround(shift));
                    target = std::clamp(target, 0, levels - 1);
                    Choice jump = current;
                    jump.keepAliveLevel = target;
                    if (state.scoreIf(i, choiceIndex(jump)) <
                        state.score()) {
                        state.set(i, choiceIndex(jump));
                        current = jump;
                    }
                }
            }
            // Binary axes: accept improving flips.
            for (int axis = 0; axis < 3; ++axis) {
                Choice flip = current;
                if (axis == 0) {
                    flip.compress = !flip.compress;
                } else if (axis == 1) {
                    flip.arch = flip.arch == NodeType::X86
                        ? NodeType::ARM
                        : NodeType::X86;
                } else {
                    flip.snapshot = !flip.snapshot;
                }
                if (state.scoreIf(i, choiceIndex(flip)) <
                    state.score()) {
                    state.set(i, choiceIndex(flip));
                    current = flip;
                }
            }
        }
        if (state.score() >= before - 1e-12)
            break;
    }
    return {state.assignment(), state.score(), state.evaluations()};
}

OptimizerResult
Genetic::optimize(const SeparableObjective& objective,
                  const Assignment& start, Rng& rng)
{
    const std::size_t n = objective.size();
    std::size_t evaluations = 0;
    auto scoreOf = [&](const Assignment& a) {
        evaluations += n;
        const double service = objective.evaluate(a);
        const double spend = objective.cost(a);
        const double over = spend - objective.budget();
        double penalty = 0.0;
        if (over > 0.0)
            penalty = 1e6 + 1e6 * over /
                      std::max(objective.budget(), 1e-9);
        return service + penalty + 1e-7 * spend;
    };

    std::vector<Assignment> population;
    std::vector<double> scores;
    population.push_back(start);
    while (population.size() < population_)
        population.push_back(randomAssignment(n, rng));
    for (const auto& a : population)
        scores.push_back(scoreOf(a));

    auto tournament = [&]() -> std::size_t {
        std::size_t best = rng.next() % population.size();
        for (int t = 0; t < 2; ++t) {
            const std::size_t candidate =
                rng.next() % population.size();
            if (scores[candidate] < scores[best])
                best = candidate;
        }
        return best;
    };

    for (std::size_t gen = 0; gen < generations_; ++gen) {
        std::vector<Assignment> next;
        std::vector<double> nextScores;
        // Elitism: carry over the best individual.
        const std::size_t eliteIdx = static_cast<std::size_t>(
            std::min_element(scores.begin(), scores.end()) -
            scores.begin());
        next.push_back(population[eliteIdx]);
        nextScores.push_back(scores[eliteIdx]);
        while (next.size() < population_) {
            const Assignment& a = population[tournament()];
            const Assignment& b = population[tournament()];
            Assignment child(n);
            for (std::size_t i = 0; i < n; ++i) {
                child[i] = rng.bernoulli(0.5) ? a[i] : b[i];
                if (rng.uniform() < mutationRate_)
                    child[i] = randomChoice(rng);
            }
            nextScores.push_back(scoreOf(child));
            next.push_back(std::move(child));
        }
        population = std::move(next);
        scores = std::move(nextScores);
    }

    const std::size_t bestIdx = static_cast<std::size_t>(
        std::min_element(scores.begin(), scores.end()) -
        scores.begin());
    return {population[bestIdx], scores[bestIdx], evaluations};
}

OptimizerResult
SimulatedAnnealing::optimize(const SeparableObjective& objective,
                             const Assignment& start, Rng& rng)
{
    TermTable table(objective);
    State state(table, start);
    if (objective.size() == 0)
        return {state.assignment(), state.score(),
                state.evaluations()};

    Assignment best = state.assignment();
    double bestScore = state.score();
    double temperature = initialTemperature_;
    const auto& set = choiceSet();

    for (std::size_t step = 0; step < steps_; ++step) {
        const std::size_t i = rng.next() % objective.size();
        const std::size_t proposal = rng.next() % set.size();
        if (set[proposal] == state.assignment()[i])
            continue;
        const double current = state.score();
        const double candidate = state.scoreIf(i, proposal);
        const double delta = candidate - current;
        if (delta <= 0.0 ||
            rng.uniform() < std::exp(-delta / std::max(temperature,
                                                       1e-12))) {
            state.apply(i, proposal);
            if (state.score() < bestScore) {
                bestScore = state.score();
                best = state.assignment();
            }
        }
        temperature *= cooling_;
    }
    return {best, bestScore, state.evaluations()};
}

OptimizerResult
RandomSearch::optimize(const SeparableObjective& objective,
                       const Assignment& start, Rng& rng)
{
    TermTable table(objective);
    State best(table, start);
    double bestScore = best.score();
    Assignment bestAssignment = best.assignment();
    std::size_t evaluations = best.evaluations();
    for (std::size_t s = 0; s < samples_; ++s) {
        const Assignment candidate =
            randomAssignment(objective.size(), rng);
        State state(table, candidate);
        evaluations += state.evaluations();
        if (state.score() < bestScore) {
            bestScore = state.score();
            bestAssignment = state.assignment();
        }
    }
    return {bestAssignment, bestScore, evaluations};
}

OptimizerResult
BruteForce::optimize(const SeparableObjective& objective,
                     const Assignment& start, Rng&)
{
    const std::size_t n = objective.size();
    if (n > maxFunctions_)
        panic("BruteForce: ", n, " functions exceeds the cap of ",
              maxFunctions_);
    const auto& set = choiceSet();
    Assignment current(n, set[0]);
    Assignment best = start;
    TermTable table(objective);
    State startState(table, start);
    double bestScore = startState.score();
    std::size_t evaluations = startState.evaluations();

    // Odometer enumeration over set.size()^n assignments.
    std::vector<std::size_t> odometer(n, 0);
    while (true) {
        for (std::size_t i = 0; i < n; ++i)
            current[i] = set[odometer[i]];
        State state(table, current);
        evaluations += state.evaluations();
        if (state.score() < bestScore) {
            bestScore = state.score();
            best = current;
        }
        std::size_t pos = 0;
        while (pos < n && ++odometer[pos] == set.size()) {
            odometer[pos] = 0;
            ++pos;
        }
        if (pos == n)
            break;
    }
    return {best, bestScore, evaluations};
}

OptimizerResult
LagrangianOracle::optimize(const SeparableObjective& objective,
                           const Assignment& start, Rng&)
{
    const std::size_t n = objective.size();
    const auto& set = choiceSet();
    std::size_t evaluations = 0;

    // Cache all terms once.
    std::vector<std::vector<Term>> terms(n);
    for (std::size_t i = 0; i < n; ++i) {
        terms[i].resize(set.size());
        objective.termRow(i, terms[i].data());
        evaluations += set.size();
    }

    auto solveFor = [&](double lambda, Assignment& out) {
        double cost = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t bestIdx = 0;
            double bestVal = std::numeric_limits<double>::infinity();
            for (std::size_t c = 0; c < set.size(); ++c) {
                const double val =
                    terms[i][c].first + lambda * terms[i][c].second;
                if (val < bestVal) {
                    bestVal = val;
                    bestIdx = c;
                }
            }
            out[i] = set[bestIdx];
            cost += terms[i][bestIdx].second;
        }
        return cost;
    };

    Assignment assignment(n);
    double cost = solveFor(0.0, assignment);
    if (cost > objective.budget()) {
        // Bisect lambda until the solution is (just) feasible.
        double lo = 0.0, hi = 1.0;
        Assignment probe(n);
        while (solveFor(hi, probe) > objective.budget() && hi < 1e12)
            hi *= 4.0;
        for (int it = 0; it < bisections_; ++it) {
            const double mid = 0.5 * (lo + hi);
            if (solveFor(mid, probe) > objective.budget())
                lo = mid;
            else
                hi = mid;
        }
        solveFor(hi, assignment);
    }

    TermTable table(objective);
    State state(table, assignment);
    State startState(table, start);
    if (startState.score() < state.score()) {
        return {startState.assignment(), startState.score(),
                evaluations + startState.evaluations()};
    }
    return {state.assignment(), state.score(),
            evaluations + state.evaluations()};
}

OptimizerResult
SreOptimizer::optimize(const SeparableObjective& objective,
                       const Assignment& start, Rng& rng)
{
    std::vector<std::uint32_t> counts(objective.size(), 0);
    return optimizeWithCounts(objective, start, rng, counts);
}

OptimizerResult
SreOptimizer::optimizeWithCounts(const SeparableObjective& objective,
                                 const Assignment& start, Rng& rng,
                                 std::vector<std::uint32_t>& counts)
{
    const std::size_t n = objective.size();
    if (counts.size() != n)
        panic("SreOptimizer: counts size ", counts.size(),
              " != objective size ", n);
    // One table for the whole call: a function sampled in both rounds
    // has its row filled once.
    TermTable table(objective);
    State state(table, start);
    if (n == 0)
        return {state.assignment(), state.score(), 0};

    Assignment bestAssignment = state.assignment();
    double bestScore = state.score();

    const std::size_t perSub =
        std::min<std::size_t>(std::max<std::size_t>(
            1, config_.functionsPerSubproblem), n);
    const std::size_t toCover = std::max<std::size_t>(
        perSub,
        static_cast<std::size_t>(config_.coveragePerRound *
                                 static_cast<double>(n)));
    const std::size_t numSub =
        std::max<std::size_t>(1, toCover / perSub);

    for (std::size_t round = 0; round < config_.rounds; ++round) {
        // Weighted sampling without replacement: probability inversely
        // proportional to how often a function was optimized before
        // (the paper's fairness rule).
        std::vector<std::size_t> pool(n);
        std::vector<double> weights(n);
        std::vector<std::size_t> sampled;
        {
            CC_PHASE("sre.sample");
            for (std::size_t i = 0; i < n; ++i) {
                pool[i] = i;
                weights[i] =
                    1.0 / (1.0 + static_cast<double>(counts[i]));
            }
            const std::size_t want = std::min(n, numSub * perSub);
            for (std::size_t k = 0; k < want; ++k) {
                const std::size_t pick = rng.weightedChoice(weights);
                sampled.push_back(pool[pick]);
                // Remove the picked element (swap with last).
                weights[pick] = weights.back();
                pool[pick] = pool.back();
                weights.pop_back();
                pool.pop_back();
            }
            for (std::size_t i : sampled)
                ++counts[i];
        }

        // Disjoint sub-problems, each optimized against a frozen
        // snapshot of this round's starting assignment, so their
        // order cannot matter. The per-sub-problem changes are then
        // merged (the paper's recombination into the original space).
        std::vector<std::vector<std::size_t>> subproblems;
        for (std::size_t s = 0; s < numSub; ++s) {
            const std::size_t beginIdx = s * perSub;
            if (beginIdx >= sampled.size())
                break;
            const std::size_t endIdx =
                std::min(sampled.size(), beginIdx + perSub);
            subproblems.emplace_back(sampled.begin() + beginIdx,
                                     sampled.begin() + endIdx);
        }

        const Assignment snapshot = state.assignment();
        const double baseService = state.serviceSum();
        const double baseCost = state.costSum();
        // Split the remaining budget slack across the round's
        // sub-problems so their merged commitments stay feasible.
        const double slack =
            std::max(0.0, objective.budget() - baseCost);
        const double budgetShare =
            std::min(objective.budget(),
                     baseCost + slack / static_cast<double>(
                                    std::max<std::size_t>(
                                        1, subproblems.size())));
        std::vector<SubproblemResult> results(subproblems.size());
        {
            CC_PHASE("sre.subproblems");
            for (std::size_t s = 0; s < subproblems.size(); ++s) {
                results[s] = descendSubproblem(
                    table, snapshot, subproblems[s], baseService,
                    baseCost, budgetShare, config_.innerRounds);
            }
        }

        for (const auto& result : results) {
            state.addEvaluations(result.evaluations);
            for (const auto& [index, choice] : result.changes)
                state.set(index, choice);
        }
        // Short sequential repair against the true global sums: fixes
        // residual over-commit and picks up cross-sub-problem moves.
        {
            CC_PHASE("sre.repair");
            descend(state, sampled, 8);
        }
        if (state.score() < bestScore) {
            bestScore = state.score();
            bestAssignment = state.assignment();
        }
    }
    return {bestAssignment, bestScore, state.evaluations()};
}

} // namespace codecrunch::opt
