/**
 * @file
 * The per-interval optimization problem (paper Sec. 3.1): for every
 * function invoked in the interval, estimate the service time each
 * (compression, architecture, keep-alive) choice would produce, and
 * constrain the committed keep-alive cost to the interval budget.
 *
 *  - If the function's estimated re-invocation period P_est fits inside
 *    the chosen keep-alive window, the next start is warm: service =
 *    exec(arch) (+ decompression when compressed).
 *  - Otherwise the next start is cold: service = exec(arch) +
 *    coldStart(arch).
 *  - Committed cost = keepAlive x heldMemory x costRate(arch), the
 *    paper's budget inequality term.
 *
 * Estimates come from observed history with profile fallback; see
 * ObservedStats.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "opt/optimizers.hpp"

namespace codecrunch::core {

/**
 * Everything the objective needs to know about one function.
 */
struct FunctionEstimate {
    /** Estimated re-invocation period; negative = unknown. */
    Seconds pest = -1.0;
    /**
     * Dispersion of the inter-arrival times around pest; drives the
     * probabilistic warm-start model P(warm | K) = Phi((K - pest)/sigma).
     */
    Seconds sigma = 60.0;
    Seconds exec[kNumNodeTypes] = {1.0, 1.0};
    Seconds coldStart[kNumNodeTypes] = {1.0, 1.0};
    Seconds decompress[kNumNodeTypes] = {0.1, 0.1};
    /** Snapshot restore latency (load + working-set prefetch). */
    Seconds restore[kNumNodeTypes] = {1.0, 1.0};
    MegaBytes memoryMb = 128.0;
    MegaBytes compressedMb = 128.0;
    /** On-disk snapshot image size; 0 = snapshots unavailable. */
    MegaBytes snapshotMb = 0.0;
    /** Uncompressed-warm x86 service baseline (for SLA mode). */
    Seconds warmBaseline = 1.0;
    /**
     * Invocations of this function within the interval. The service
     * term is weighted by it: a warm container serves every one of
     * those invocations, while the keep-alive cost is paid per
     * container lifecycle (E[min(IAT, K)] x count approximates the
     * per-interval spend of a continuously re-consumed container).
     */
    double weight = 1.0;
};

/**
 * Hard restrictions applied to the choice space (ablations and the
 * SLA-constrained mode).
 */
struct ChoiceRestrictions {
    bool allowCompression = true;
    bool allowX86 = true;
    bool allowArm = true;
    /** Allow snapshot residency (the "-noSnapshot" ablation gate). */
    bool allowSnapshot = true;
    /**
     * SLA slack: choices whose estimated service exceeds
     * (1 + slack) x warmBaseline are penalized proportionally;
     * negative disables the SLA term.
     */
    double slaSlack = -1.0;
    /** Weight of the SLA violation penalty. */
    double slaWeight = 25.0;
    /**
     * Lagrangian cost price (seconds per dollar) folded into the
     * service term. With a positive price the budget can be passed as
     * unbounded and feasibility is steered by the price instead of a
     * hard penalty — this keeps SRE sub-problems from slashing their
     * own members to repair global over-commitment.
     */
    double costWeight = 0.0;
};

/**
 * SeparableObjective over the functions invoked in one interval.
 */
class IntervalObjective : public opt::SeparableObjective
{
  public:
    /**
     * @param estimates one entry per optimized function.
     * @param costRate $/(MB*s) per architecture.
     * @param budget interval keep-alive budget in dollars.
     */
    IntervalObjective(std::vector<FunctionEstimate> estimates,
                      const double (&costRate)[kNumNodeTypes],
                      Dollars budget,
                      ChoiceRestrictions restrictions = {})
        : estimates_(std::move(estimates)), budget_(budget),
          restrictions_(restrictions)
    {
        costRate_[0] = costRate[0];
        costRate_[1] = costRate[1];
        snapshotRate_[0] = 0.0;
        snapshotRate_[1] = 0.0;
    }

    /**
     * @param snapshotRate $/MB of snapshot storage over the decision
     *        horizon (one interval) per architecture. The zero default
     *        of the other constructor makes snapshot residency free —
     *        fine for tests that never enable the snapshot axis.
     */
    IntervalObjective(std::vector<FunctionEstimate> estimates,
                      const double (&costRate)[kNumNodeTypes],
                      Dollars budget, ChoiceRestrictions restrictions,
                      const double (&snapshotRate)[kNumNodeTypes])
        : estimates_(std::move(estimates)), budget_(budget),
          restrictions_(restrictions)
    {
        costRate_[0] = costRate[0];
        costRate_[1] = costRate[1];
        snapshotRate_[0] = snapshotRate[0];
        snapshotRate_[1] = snapshotRate[1];
    }

    std::size_t size() const override { return estimates_.size(); }

    double budget() const override { return budget_; }

    std::pair<double, double>
    term(std::size_t index, const opt::Choice& choice) const override
    {
        const FunctionEstimate& e = estimates_[index];
        const Seconds keepAlive = opt::keepAliveLevels()[
            static_cast<std::size_t>(choice.keepAliveLevel)];
        return combine(e, choice, levelTerms(e, keepAlive));
    }

    /**
     * The row evaluates P(warm | K) and E[min(IAT, K)] once per
     * keep-alive level rather than once per choice: they depend on
     * nothing else, and they hold every transcendental call.
     */
    void
    termRow(std::size_t index,
            std::pair<double, double>* out) const override
    {
        const FunctionEstimate& e = estimates_[index];
        std::array<LevelTerms, opt::kKeepAliveLevels> levels;
        for (std::size_t k = 0; k < levels.size(); ++k)
            levels[k] = levelTerms(e, opt::keepAliveLevels()[k]);
        for (const opt::Choice& choice : opt::choiceSet()) {
            *out++ = combine(e, choice,
                             levels[static_cast<std::size_t>(
                                 choice.keepAliveLevel)]);
        }
    }

  private:
    /** The parts of a term that depend only on the keep-alive K. */
    struct LevelTerms {
        Seconds keepAlive = 0.0;
        /** P(warm | K). */
        double pWarm = 0.0;
        /** E[min(IAT, K)]: the keep-alive time actually paid. */
        Seconds expectedHold = 0.0;
    };

    static LevelTerms
    levelTerms(const FunctionEstimate& e, Seconds keepAlive)
    {
        LevelTerms level;
        level.keepAlive = keepAlive;
        // Probabilistic warm model: the next inter-arrival time is
        // centred on pest with dispersion sigma, so a keep-alive of K
        // yields a warm start with probability Phi((K - pest)/sigma).
        if (e.pest >= 0.0 && keepAlive > 0.0) {
            const double sigma = std::max(e.sigma, 1.0);
            const double z = (keepAlive - e.pest) / sigma;
            level.pWarm = 0.5 * (1.0 + std::erf(z / std::sqrt(2.0)));
        } else if (keepAlive > 0.0) {
            // Unknown period (fewer than two observations): a mild
            // prior keeps first-timers in play — the paper stresses
            // that CodeCrunch does not depend on exact P_est.
            level.pWarm = 0.3 * (1.0 - std::exp(-keepAlive / 900.0));
        }

        // Expected keep-alive duration: the container is consumed at
        // the next arrival, so only min(IAT, K) is actually paid.
        // With IAT ~ N(pest, sigma):
        //   E[min(IAT, K)] = pest - [(pest-K) Phi((pest-K)/sigma)
        //                            + sigma phi((pest-K)/sigma)]
        level.expectedHold = keepAlive;
        if (e.pest >= 0.0 && keepAlive > 0.0) {
            const double sigma = std::max(e.sigma, 1.0);
            const double d = (e.pest - keepAlive) / sigma;
            const double phi =
                std::exp(-0.5 * d * d) / std::sqrt(2.0 * M_PI);
            const double Phi =
                0.5 * (1.0 + std::erf(d / std::sqrt(2.0)));
            level.expectedHold = e.pest -
                ((e.pest - keepAlive) * Phi + sigma * phi);
            level.expectedHold =
                std::clamp(level.expectedHold, 0.0, keepAlive);
        }
        return level;
    }

    /** One choice's (service, cost) term from its level's parts. */
    std::pair<double, double>
    combine(const FunctionEstimate& e, const opt::Choice& choice,
            const LevelTerms& level) const
    {
        const int arch = static_cast<int>(choice.arch);

        // Restricted axes: effectively infeasible.
        if ((choice.arch == NodeType::X86 && !restrictions_.allowX86) ||
            (choice.arch == NodeType::ARM && !restrictions_.allowArm) ||
            (choice.compress && !restrictions_.allowCompression)) {
            return {1e9, 0.0};
        }
        // A restricted (or impossible) snapshot bit is *ignored*, not
        // penalized: the choice scores exactly like its non-snapshot
        // twin. With the snapshot axis outermost in the enumerated
        // choice set, this makes the -noSnapshot search trajectory —
        // and therefore its decisions — identical to the original
        // 32-point space (the sanitized twin is what gets adopted).
        const bool snapshotOn = choice.snapshot &&
            restrictions_.allowSnapshot && e.snapshotMb > 0.0;

        const double pWarm = level.pWarm;
        // A miss (no warm container at the next arrival) pays a cold
        // start — unless a resident snapshot restores faster; the
        // driver only uses a snapshot when it actually beats cold.
        double missStart = e.coldStart[arch];
        if (snapshotOn)
            missStart = std::min(missStart, e.restore[arch]);
        double service = e.exec[arch] + (1.0 - pWarm) * missStart;
        if (choice.compress)
            service += pWarm * e.decompress[arch];

        if (restrictions_.slaSlack >= 0.0) {
            const double limit =
                e.warmBaseline * (1.0 + restrictions_.slaSlack);
            if (service > limit) {
                service += restrictions_.slaWeight *
                           (service - limit);
            }
        }

        const MegaBytes held = choice.compress
            ? std::min(e.compressedMb, e.memoryMb)
            : e.memoryMb;
        // Weighting: the hotter the function, the more invocations one
        // warm container serves per interval — and the more spend its
        // repeated consumption/re-keep cycle accrues.
        double cost =
            std::min(level.expectedHold * e.weight,
                     2.0 * level.keepAlive) *
            held * costRate_[arch];
        // Snapshot storage is pay-as-you-go on cheap disk: one
        // interval's worth of image residency, independent of the
        // keep-alive window and of how many invocations it serves.
        if (snapshotOn)
            cost += e.snapshotMb * snapshotRate_[arch];
        return {service * e.weight + restrictions_.costWeight * cost,
                cost};
    }

    std::vector<FunctionEstimate> estimates_;
    double costRate_[kNumNodeTypes];
    double snapshotRate_[kNumNodeTypes];
    Dollars budget_;
    ChoiceRestrictions restrictions_;
};

} // namespace codecrunch::core
