/**
 * @file
 * Test-only copy of the table-less optimizer core that the term table
 * in src/opt/optimizers.cpp replaced.
 *
 * There, every probe of one optimize() call reads a row that
 * SeparableObjective::termRow() filled once per function. Here, every
 * probe calls term() again, as the goldens were generated. The
 * SreDifferential tests (core_test.cpp) run both side by side over
 * seeded IntervalObjective problems and require the same assignment,
 * the same score bits, the same evaluation count and the same SRE
 * selection counts. State, descend(), descendSubproblem(), SRE's
 * optimizeWithCounts and CoordinateDescent's optimize are kept
 * verbatim; the two methods became free functions whose parameters
 * keep the member names (config_, maxRounds_). It lives under tests/
 * and is not linked into the simulator.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hpp"
#include "obs/profiler.hpp"
#include "opt/optimizers.hpp"

namespace codecrunch::opt::legacy {

/** All 2 x 2 x 2 x levels choices, enumerated once. */
inline std::vector<Choice>
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

inline const std::vector<Choice>&
choiceSet()
{
    static const std::vector<Choice> set = allChoices();
    return set;
}

/**
 * Incremental evaluation state: per-function terms plus running sums.
 */
class State
{
  public:
    State(const SeparableObjective& objective,
          const Assignment& assignment)
        : objective_(objective), assignment_(assignment)
    {
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

    /** Score if function `i` switched to `choice`. */
    double
    scoreIf(std::size_t i, const Choice& choice)
    {
        const auto t = objective_.term(i, choice);
        ++evaluations_;
        lastTerm_ = t;
        return scoreOf(serviceSum_ - terms_[i].first + t.first,
                       costSum_ - terms_[i].second + t.second);
    }

    /** Commit the most recent scoreIf() probe. */
    void
    apply(std::size_t i, const Choice& choice)
    {
        serviceSum_ += lastTerm_.first - terms_[i].first;
        costSum_ += lastTerm_.second - terms_[i].second;
        terms_[i] = lastTerm_;
        assignment_[i] = choice;
    }

    /** Recompute and commit (when lastTerm_ may be stale). */
    void
    set(std::size_t i, const Choice& choice)
    {
        scoreIf(i, choice);
        apply(i, choice);
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
        const double over = costSum - objective_.budget();
        double penalty = 0.0;
        if (over > 0.0) {
            penalty = 1e6 + 1e6 * over /
                      std::max(objective_.budget(), 1e-9);
        }
        return service + penalty + 1e-7 * costSum;
    }

    const SeparableObjective& objective_;
    Assignment assignment_;
    std::vector<std::pair<double, double>> terms_;
    double serviceSum_ = 0.0;
    double costSum_ = 0.0;
    std::size_t evaluations_ = 0;
    std::pair<double, double> lastTerm_{0.0, 0.0};
};

/**
 * Steepest-descent over a subset of coordinates; shared by
 * CoordinateDescent (all coordinates) and SRE (sub-problem).
 */
inline std::size_t
descend(State& state, const std::vector<std::size_t>& indices,
        std::size_t maxRounds)
{
    std::size_t rounds = 0;
    while (rounds < maxRounds) {
        ++rounds;
        double bestScore = state.score();
        std::size_t bestIndex = SIZE_MAX;
        Choice bestChoice;
        for (std::size_t i : indices) {
            for (const Choice& choice : choiceSet()) {
                if (choice == state.assignment()[i])
                    continue;
                const double s = state.scoreIf(i, choice);
                if (s < bestScore - 1e-12) {
                    bestScore = s;
                    bestIndex = i;
                    bestChoice = choice;
                }
            }
        }
        if (bestIndex == SIZE_MAX)
            break; // local minimum
        state.set(bestIndex, bestChoice);
    }
    return rounds;
}

inline std::vector<std::size_t>
allIndices(std::size_t n)
{
    std::vector<std::size_t> indices(n);
    for (std::size_t i = 0; i < n; ++i)
        indices[i] = i;
    return indices;
}

/** One sub-problem's proposed coordinate changes. */
struct SubproblemResult {
    std::vector<std::pair<std::size_t, Choice>> changes;
    std::size_t evaluations = 0;
};

/**
 * Steepest descent over a sub-problem against a frozen snapshot of
 * everything else: only the sub-problem's own terms move; the rest of
 * the assignment contributes fixed base sums. Thread-safe: touches
 * only its own indices and the const objective.
 */
inline SubproblemResult
descendSubproblem(const SeparableObjective& objective,
                  const Assignment& snapshot,
                  const std::vector<std::size_t>& indices,
                  double baseService, double baseCost,
                  double budgetShare, std::size_t maxRounds)
{
    CC_PHASE("sre.subproblem");
    SubproblemResult result;
    const std::size_t n = snapshot.size();

    // Local copies of the sub-problem's choices and terms.
    std::vector<Choice> local;
    std::vector<std::pair<double, double>> terms;
    double service = baseService;
    double cost = baseCost;
    for (std::size_t i : indices) {
        local.push_back(snapshot[i]);
        terms.push_back(objective.term(i, snapshot[i]));
        ++result.evaluations;
    }

    auto scoreOf = [&](double serviceSum, double costSum) {
        const double mean =
            n ? serviceSum / static_cast<double>(n) : 0.0;
        // Each sub-problem may only consume its share of the global
        // budget slack: concurrent sub-problems working against the
        // same snapshot would otherwise collectively over-commit.
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
        Choice bestChoice;
        std::pair<double, double> bestTerm;
        for (std::size_t slot = 0; slot < indices.size(); ++slot) {
            for (const Choice& choice : choiceSet()) {
                if (choice == local[slot])
                    continue;
                const auto t =
                    objective.term(indices[slot], choice);
                ++result.evaluations;
                const double s =
                    scoreOf(service - terms[slot].first + t.first,
                            cost - terms[slot].second + t.second);
                if (s < bestScore - 1e-12) {
                    bestScore = s;
                    bestSlot = slot;
                    bestChoice = choice;
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
        if (!(local[slot] == snapshot[indices[slot]]))
            result.changes.emplace_back(indices[slot], local[slot]);
    }
    return result;
}

/** CoordinateDescent::optimize. */
inline OptimizerResult
coordinateDescent(const SeparableObjective& objective,
                  const Assignment& start, std::size_t maxRounds_)
{
    State state(objective, start);
    descend(state, allIndices(objective.size()), maxRounds_);
    return {state.assignment(), state.score(), state.evaluations()};
}

/** SreOptimizer::optimizeWithCounts. */
inline OptimizerResult
sreOptimizeWithCounts(const SreConfig& config_,
                      const SeparableObjective& objective,
                      const Assignment& start, Rng& rng,
                      std::vector<std::uint32_t>& counts)
{
    const std::size_t n = objective.size();
    if (counts.size() != n)
        panic("SreOptimizer: counts size ", counts.size(),
              " != objective size ", n);
    State state(objective, start);
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
                    objective, snapshot, subproblems[s], baseService,
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

} // namespace codecrunch::opt::legacy
