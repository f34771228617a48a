/**
 * @file
 * Oracle policy: the paper's practically-infeasible upper bound.
 *
 * The Oracle reads the future invocation stream. After each execution
 * it knows exactly when the function fires next: it keeps the container
 * alive precisely until then (when the platform cap and the keep-alive
 * budget allow), executes every function on its faster architecture,
 * and falls back to compressed keep-alive when the budget is tight and
 * the function is compression-favorable.
 */
#pragma once

#include <unordered_map>
#include <vector>

#include "policy/policy.hpp"

namespace codecrunch::policy {

/**
 * Future-knowledge upper bound.
 */
class Oracle : public Policy
{
  public:
    struct Config {
        /** Platform keep-alive cap. */
        Seconds maxKeepAlive = 3600.0;
        /**
         * Keep-alive budget spend rate in dollars/second; <= 0 means
         * unconstrained. Set to SitW's observed rate for the paper's
         * equal-budget comparison.
         */
        double budgetRatePerSecond = -1.0;
    };

    Oracle() : Oracle(Config()) {}

    explicit Oracle(Config config) : config_(config) {}

    std::string name() const override { return "Oracle"; }

    void bind(PolicyContext& context) override;

    void onArrival(FunctionId function, Seconds now) override;

    NodeType coldPlacement(FunctionId function) override;

    KeepAliveDecision
    onFinish(const metrics::InvocationRecord& record) override;

    /** Per-minute spend-rate tracking for the budget price. */
    void onTick(Seconds now) override;

    /**
     * Belady's rule with real future knowledge: evict the warm
     * container whose function is re-invoked farthest in the future.
     */
    std::optional<cluster::ContainerId>
    pickVictim(NodeId node, MegaBytes neededMb) override;

  private:
    /** Next arrival of `function` strictly after `now`, or -1. */
    Seconds nextArrival(FunctionId function, Seconds now) const;

    Config config_;
    /** Per-function sorted arrival times (from the workload). */
    std::vector<std::vector<Seconds>> arrivals_;
    /** Per-function cursor into arrivals_. */
    mutable std::vector<std::size_t> cursor_;
    /** Adaptive cost-effectiveness threshold (knapsack dual, s/$). */
    double lambda_ = 1e4;
    /** Function whose keep decision is currently being applied. */
    FunctionId lastFinished_ = kInvalidFunction;
};

} // namespace codecrunch::policy
