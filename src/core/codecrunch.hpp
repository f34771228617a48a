/**
 * @file
 * The CodeCrunch scheduling policy — the paper's primary contribution.
 *
 * Every optimization interval (one minute), CodeCrunch:
 *  1. collects the functions invoked within the interval;
 *  2. builds the choice space (compression x architecture x keep-alive)
 *     under the interval's keep-alive budget — the pro-rata allocation
 *     plus credit banked by earlier intervals (BudgetCreditor);
 *  3. optimizes the estimated mean service time with Sequential Random
 *     Embedding, starting from the previous solution (functions not
 *     sampled this round keep their prior choices);
 *  4. applies the solution: future cold placements and keep-alive
 *     decisions follow the per-function choice, and live warm
 *     containers have their expiry/compression updated immediately.
 *
 * Configuration flags expose every ablation of Fig. 12 (no SRE,
 * x86-only, ARM-only, no compression, fixed keep-alive) and the SLA
 * mode of Fig. 9.
 */
#pragma once

#include <memory>
#include <vector>

#include "core/budget.hpp"
#include "core/observed_stats.hpp"
#include "core/pest.hpp"
#include "opt/optimizers.hpp"
#include "policy/history.hpp"
#include "policy/policy.hpp"

namespace codecrunch::core {

/** Architecture ablation modes. */
enum class ArchMode { Both, X86Only, ArmOnly };

/**
 * Controller watchdog: guards each optimization tick against invalid
 * inputs and optimizer overruns. A tripped tick discards the new
 * assignment and keeps serving the last-good per-function solutions,
 * so one bad interval degrades quality for a minute instead of
 * poisoning the controller state.
 */
struct WatchdogConfig {
    /**
     * Objective-evaluation budget per tick; a result that spent more
     * is discarded. 0 = unlimited. This trigger is deterministic
     * (evaluation counts are part of the simulation contract).
     */
    std::size_t maxEvaluationsPerTick = 0;
};

/**
 * CodeCrunch configuration.
 */
struct CodeCrunchConfig {
    /**
     * Average keep-alive budget rate ($/s). Non-positive: derived at
     * bind time as `defaultBudgetFraction` of the cost of keeping the
     * whole cluster memory warm.
     */
    double budgetRatePerSecond = -1.0;
    double defaultBudgetFraction = 0.10;

    /** Use SRE (false: time-capped whole-space descent, Fig. 12). */
    bool useSre = true;
    /** Allow function compression. */
    bool useCompression = true;
    /**
     * Allow snapshot residency in the decision space (false gives the
     * "-noSnapshot" ablation, which reproduces the paper's original
     * {keep warm, compress, evict} behavior exactly).
     */
    bool useSnapshot = true;
    /** Architecture choice mode. */
    ArchMode archMode = ArchMode::Both;
    /** Bypass the optimizer's keep-alive with a fixed window. */
    bool fixedKeepAlive = false;
    Seconds fixedKeepAliveSeconds = 600.0;

    /** SLA slack (Fig. 9); negative disables SLA mode. */
    double slaSlack = -1.0;

    /** SRE shape parameters. */
    opt::SreConfig sre;

    /** Keep-alive used before a function is first optimized. */
    Seconds bootstrapKeepAlive = 600.0;

    /**
     * Fault-reactive recovery: when a crashed node comes back up,
     * re-prewarm the most imminently needed functions the crash
     * evicted, financed by the creditor's banked credit. Disabling
     * it gives the non-reactive ablation ("-noReact").
     */
    bool reactiveRecovery = true;
    /** Cap on re-prewarms issued per node recovery. */
    std::size_t maxRePrewarmsPerRecovery = 8;

    /** Seed of the policy's private randomness (SRE sampling). */
    std::uint64_t seed = 0xc0dec;

    /** Tick watchdog (see WatchdogConfig). */
    WatchdogConfig watchdog;
};

/**
 * The CodeCrunch policy.
 */
class CodeCrunch : public policy::Policy
{
  public:
    CodeCrunch() : CodeCrunch(CodeCrunchConfig()) {}

    explicit CodeCrunch(CodeCrunchConfig config);

    std::string name() const override;

    void bind(policy::PolicyContext& context) override;

    void onArrival(FunctionId function, Seconds now) override;

    NodeType coldPlacement(FunctionId function) override;

    policy::KeepAliveDecision
    onFinish(const metrics::InvocationRecord& record) override;

    void onTick(Seconds now) override;

    void onNodeCrash(NodeId node,
                     const std::vector<FunctionId>& lostFunctions,
                     Seconds now) override;

    void onNodeRecover(NodeId node, Seconds now) override;

    /**
     * Under memory pressure, evict the warm container whose function's
     * estimated next invocation (last arrival + P_est) is farthest
     * away — the P_est analogue of Belady's rule.
     */
    std::optional<cluster::ContainerId>
    pickVictim(NodeId node, MegaBytes neededMb) override;

    /** Per-tick optimizer telemetry (for inspection/tests). */
    struct TickDebug {
        /** True when the watchdog discarded this tick's result. */
        bool degraded = false;
    };

    const TickDebug& lastTick() const { return lastTick_; }

    /** Ticks the watchdog rejected since bind(). */
    std::size_t watchdogTrips() const { return watchdogTrips_; }

    /** The budget creditor (null before bind; for inspection/tests). */
    const BudgetCreditor* creditor() const { return creditor_.get(); }

  private:
    /** Restrict a choice to the configured arch/compression modes. */
    opt::Choice sanitize(opt::Choice choice) const;

    NodeType defaultArch(FunctionId function) const;

    CodeCrunchConfig config_;
    Rng rng_;

    std::vector<policy::FunctionHistory> histories_;
    std::vector<std::size_t> invocationCount_;
    std::unique_ptr<ObservedStats> observed_;
    std::unique_ptr<BudgetCreditor> creditor_;

    /** Current per-function choices (dense by FunctionId). */
    std::vector<opt::Choice> solutions_;
    std::vector<bool> optimizedOnce_;
    /** SRE fairness counters (dense by FunctionId). */
    std::vector<std::uint32_t> sreCounts_;

    /** Function whose onFinish decision is currently being applied. */
    FunctionId lastFinished_ = kInvalidFunction;

    /** Lagrangian keep-alive cost price (seconds per dollar). */
    double lambda_ = 1e4;
    /** Last cumulative spend seen at a tick. */
    Dollars lastSpendSeen_ = 0.0;
    /** Smoothed actual spend rate ($/s). */
    double spendRateEwma_ = 0.0;
    /** Smoothed invocation demand per interval. */
    double demandEwma_ = 0.0;
    TickDebug lastTick_;
    std::size_t watchdogTrips_ = 0;

    /** Functions invoked since the last tick (deduplicated). */
    std::vector<FunctionId> invokedThisInterval_;
    /** Per-function invocation count within the current interval. */
    std::vector<std::uint32_t> invokedCount_;
    /** Warm containers lost to crashes, per function (dense). */
    std::vector<std::uint32_t> crashLost_;
};

} // namespace codecrunch::core
