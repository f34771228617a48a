#include "core/codecrunch.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "core/interval_objective.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace codecrunch::core {

using opt::Choice;
using opt::keepAliveLevels;

namespace {

/**
 * Controller-track watchdog instant. Payload is sim-deterministic
 * (trip ordinal only) so traces stay byte-identical across --threads.
 */
void
emitWatchdogTrip(obs::TraceBuffer* trace, Seconds now,
                 std::size_t trips)
{
    if (!trace)
        return;
    obs::TraceEvent event;
    event.kind = obs::TraceEvent::Kind::WatchdogTrip;
    event.tid = obs::kControllerTrack;
    event.a = static_cast<std::uint32_t>(trips);
    event.ts = now;
    trace->emit(event);
}

/** Index of the keep-alive level closest to `seconds`. */
int
nearestLevel(Seconds seconds)
{
    const auto& levels = keepAliveLevels();
    int best = 0;
    double bestDist = 1e300;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const double d = std::abs(levels[i] - seconds);
        if (d < bestDist) {
            bestDist = d;
            best = static_cast<int>(i);
        }
    }
    return best;
}

/** All watchdog-guarded estimate fields are finite and sensible. */
bool
estimateValid(const FunctionEstimate& e)
{
    const auto ok = [](double v) { return std::isfinite(v); };
    return ok(e.pest) && ok(e.sigma) && ok(e.weight) &&
           ok(e.memoryMb) && ok(e.compressedMb) &&
           ok(e.snapshotMb) && ok(e.warmBaseline) && ok(e.exec[0]) &&
           ok(e.exec[1]) && ok(e.coldStart[0]) && ok(e.coldStart[1]) &&
           ok(e.decompress[0]) && ok(e.decompress[1]) &&
           ok(e.restore[0]) && ok(e.restore[1]) &&
           e.weight > 0.0 && e.memoryMb > 0.0;
}

} // namespace

CodeCrunch::CodeCrunch(CodeCrunchConfig config)
    : config_(config), rng_(config.seed)
{
}

std::string
CodeCrunch::name() const
{
    std::string suffix;
    if (!config_.useSre)
        suffix += "-noSRE";
    if (!config_.useCompression)
        suffix += "-noComp";
    if (!config_.useSnapshot)
        suffix += "-noSnapshot";
    if (config_.archMode == ArchMode::X86Only)
        suffix += "-x86";
    else if (config_.archMode == ArchMode::ArmOnly)
        suffix += "-ARM";
    if (config_.fixedKeepAlive)
        suffix += "-fixedKA";
    if (config_.slaSlack >= 0.0)
        suffix += "-SLA";
    if (!config_.reactiveRecovery)
        suffix += "-noReact";
    return "CodeCrunch" + suffix;
}

void
CodeCrunch::bind(policy::PolicyContext& context)
{
    Policy::bind(context);
    const std::size_t n = context.workload().functions.size();
    histories_.assign(n, policy::FunctionHistory());
    invocationCount_.assign(n, 0);
    observed_ = std::make_unique<ObservedStats>(n);
    // Solutions start at keep-alive zero: the optimizer *adds* keeps
    // in value-per-dollar order from a feasible start, rather than
    // starting over budget and slashing whichever functions the SRE
    // sub-problem happens to sample. (Unoptimized functions still get
    // the production bootstrap window at onFinish.)
    solutions_.assign(n, Choice{false, NodeType::X86, 0});
    optimizedOnce_.assign(n, false);
    sreCounts_.assign(n, 0);
    invokedCount_.assign(n, 0);
    crashLost_.assign(n, 0);
    invokedThisInterval_.clear();
    watchdogTrips_ = 0;

    double rate = config_.budgetRatePerSecond;
    if (rate <= 0.0) {
        // Default: a fraction of the cost of keeping every byte of the
        // cluster warm (provider-settable knob, paper Sec. 3.1).
        const auto& cluster = context.clusterState();
        const double fullRate =
            cluster.costRate(NodeType::X86) *
                cluster.config().numX86 *
                cluster.config().memoryPerNodeMb +
            cluster.costRate(NodeType::ARM) *
                cluster.config().numArm *
                cluster.config().memoryPerNodeMb;
        rate = config_.defaultBudgetFraction * fullRate;
    }
    creditor_ = std::make_unique<BudgetCreditor>(rate,
                                                 kSecondsPerMinute);
}

NodeType
CodeCrunch::defaultArch(FunctionId function) const
{
    switch (config_.archMode) {
      case ArchMode::X86Only:
        return NodeType::X86;
      case ArchMode::ArmOnly:
        return NodeType::ARM;
      case ArchMode::Both:
        break;
    }
    return optimizedOnce_[function] ? solutions_[function].arch
                                    : NodeType::X86;
}

Choice
CodeCrunch::sanitize(Choice choice) const
{
    if (!config_.useCompression)
        choice.compress = false;
    if (!config_.useSnapshot)
        choice.snapshot = false;
    if (config_.archMode == ArchMode::X86Only)
        choice.arch = NodeType::X86;
    else if (config_.archMode == ArchMode::ArmOnly)
        choice.arch = NodeType::ARM;
    if (config_.fixedKeepAlive) {
        choice.keepAliveLevel =
            nearestLevel(config_.fixedKeepAliveSeconds);
    }
    return choice;
}

void
CodeCrunch::onArrival(FunctionId function, Seconds now)
{
    auto& history = histories_[function];
    history.record(now);
    if (++invocationCount_[function] % kGlobalResetEvery == 0)
        history.resetGlobal();
    if (invokedCount_[function]++ == 0)
        invokedThisInterval_.push_back(function);
}

NodeType
CodeCrunch::coldPlacement(FunctionId function)
{
    return defaultArch(function);
}

policy::KeepAliveDecision
CodeCrunch::onFinish(const metrics::InvocationRecord& record)
{
    observed_->update(record);
    lastFinished_ = record.function;

    policy::KeepAliveDecision decision;
    const Choice choice = sanitize(solutions_[record.function]);
    decision.keepAliveSeconds = keepAliveLevels()[
        static_cast<std::size_t>(choice.keepAliveLevel)];
    decision.compress = choice.compress;
    decision.snapshot = choice.snapshot;
    // Keep the container where the function just executed: cold
    // placements already steer execution to the optimizer's chosen
    // architecture, so the warm pool migrates with the decisions
    // without paying (and possibly losing) cross-architecture
    // prewarm cold starts.
    decision.warmupLocation = record.nodeType;
    if (!optimizedOnce_[record.function] && !config_.fixedKeepAlive) {
        // Bootstrap: production-style default until first optimized.
        decision.keepAliveSeconds = config_.bootstrapKeepAlive;
        decision.compress = false;
    }
    return decision;
}

std::optional<cluster::ContainerId>
CodeCrunch::pickVictim(NodeId node, MegaBytes)
{
    const Seconds now = context_->now();
    // Time until the newcomer (the function whose container we are
    // trying to keep) is expected to be re-invoked.
    double newcomerNext = 1e18;
    if (lastFinished_ != kInvalidFunction) {
        const auto& h = histories_[lastFinished_];
        const Seconds period = pest(h);
        if (period >= 0.0)
            newcomerNext =
                std::max(0.0, h.lastArrival() + period - now);
    }

    std::optional<cluster::ContainerId> victim;
    FunctionId victimFunction = kInvalidFunction;
    double farthest = -1e300;
    for (const auto& [id, container] :
         context_->clusterState().warmPool()) {
        if (container.node != node)
            continue;
        const auto& history = histories_[container.function];
        const Seconds period = pest(history);
        // Unknown period: assume the container is the least valuable.
        const double expectedNext = period < 0.0
            ? 1e18
            : history.lastArrival() + period - now;
        if (expectedNext > farthest) {
            farthest = expectedNext;
            victim = id;
            victimFunction = container.function;
        }
    }
    const auto emitEvict = [&](std::uint8_t rule) {
        auto* trace = context_->traceSink();
        if (!trace || !victim)
            return;
        obs::TraceEvent event;
        event.kind = obs::TraceEvent::Kind::Evict;
        event.u8 = rule; // 1=imminence pick, 2=incumbent-wins decline
        event.tid = obs::kControllerTrack;
        event.a = victimFunction;
        event.b = node;
        event.x = farthest; // victim's expected-next seconds
        event.ts = now;
        trace->emit(event);
    };
    // Incumbent-wins rule: evicting a paid-for container only pays off
    // when the newcomer is clearly more imminent; otherwise churn
    // wastes the victim's sunk keep-alive spend.
    if (victim && farthest <= newcomerNext * 1.25) {
        emitEvict(2);
        return std::nullopt;
    }
    emitEvict(1);
    return victim;
}

void
CodeCrunch::onNodeCrash(NodeId, const std::vector<FunctionId>& lost,
                        Seconds)
{
    if (!config_.reactiveRecovery)
        return;
    for (FunctionId f : lost)
        ++crashLost_[f];
}

void
CodeCrunch::onNodeRecover(NodeId, Seconds now)
{
    if (!config_.reactiveRecovery)
        return;
    const auto& cluster = context_->clusterState();

    // Candidates: functions a crash evicted that are still cold
    // everywhere, ranked by how soon their next invocation is
    // expected (last arrival + P_est — the inverse of the pickVictim
    // rule). Functions that regained a container in the meantime are
    // settled and drop out of the debt list.
    struct Candidate {
        double expectedNext = 0.0;
        FunctionId function = kInvalidFunction;
    };
    std::vector<Candidate> candidates;
    for (FunctionId f = 0;
         f < static_cast<FunctionId>(crashLost_.size()); ++f) {
        if (crashLost_[f] == 0)
            continue;
        if (cluster.warmCount(f) > 0) {
            crashLost_[f] = 0;
            continue;
        }
        const auto& history = histories_[f];
        const Seconds period = pest(history);
        const double expectedNext = period < 0.0
            ? 1e18
            : history.lastArrival() + period - now;
        candidates.push_back({expectedNext, f});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                  if (a.expectedNext != b.expectedNext)
                      return a.expectedNext < b.expectedNext;
                  return a.function < b.function;
              });

    // Budget gate: recovery prewarms are financed by the credit the
    // creditor has banked; a run that is already at (or over) its
    // allowance re-prewarms nothing.
    Dollars credit = std::max(
        0.0, creditor_->allocatedTotal() - cluster.keepAliveSpend());
    std::size_t issued = 0;
    for (const Candidate& candidate : candidates) {
        if (issued >= config_.maxRePrewarmsPerRecovery)
            break;
        const FunctionId f = candidate.function;
        const Choice choice = sanitize(solutions_[f]);
        Seconds keepAlive = keepAliveLevels()[
            static_cast<std::size_t>(choice.keepAliveLevel)];
        if (!optimizedOnce_[f] && !config_.fixedKeepAlive)
            keepAlive = config_.bootstrapKeepAlive;
        if (keepAlive <= 0.0)
            continue; // the optimizer keeps this function cold
        const NodeType arch = defaultArch(f);
        const auto& profile = context_->workload().profile(f);
        const Dollars cost =
            cluster.costRate(arch) * profile.memoryMb * keepAlive;
        if (cost > credit)
            continue; // a cheaper, later candidate may still fit
        if (context_->requestPrewarm(f, arch, keepAlive)) {
            credit -= cost;
            ++issued;
            crashLost_[f] = 0;
            if (auto* trace = context_->traceSink()) {
                obs::TraceEvent event;
                event.kind = obs::TraceEvent::Kind::RePrewarm;
                event.u8 = arch == NodeType::ARM ? 1 : 0;
                event.tid = obs::kControllerTrack;
                event.a = f;
                event.x = credit; // remaining after this issue
                event.dur = keepAlive;
                event.ts = now;
                trace->emit(event);
            }
        }
    }
}

void
CodeCrunch::onTick(Seconds)
{
    // Collect this interval's invoked set and reset the accumulator.
    std::vector<FunctionId> invoked;
    invoked.swap(invokedThisInterval_);
    std::vector<double> weights;
    weights.reserve(invoked.size());
    for (FunctionId f : invoked) {
        weights.push_back(static_cast<double>(invokedCount_[f]));
        invokedCount_[f] = 0;
    }

    const auto& workload = context_->workload();
    const auto& cluster = context_->clusterState();
    // Snapshot storage spend shares the keep-alive allowance: both are
    // residency dollars the provider pays to avoid cold starts. (Zero
    // whenever the snapshot axis is off, so the -noSnapshot ablation
    // sees exactly the original spend signal.)
    const Dollars spentNow =
        cluster.keepAliveSpend() + cluster.snapshotSpend();
    creditor_->allocate(spentNow);

    // --- Lagrangian price control ------------------------------------
    // Implements the Sec. 3.1 / Fig. 10 creditor through the price:
    // off-peak the spend target sits slightly below the provider's
    // budget rate, so quiet intervals under-spend and bank credit;
    // when demand runs above its trend AND credit is banked, the
    // target rises (up to ~3x) and the bank finances the peak. A
    // cumulative term brakes genuine overdraft. Gentle exponential
    // gains keep the loop free of limit cycles.
    const double spendRate =
        (spentNow - lastSpendSeen_) / creditor_->interval();
    lastSpendSeen_ = spentNow;
    spendRateEwma_ = 0.8 * spendRateEwma_ + 0.2 * spendRate;

    double demandNow = 0.0;
    for (double w : weights)
        demandNow += w;
    demandEwma_ = demandEwma_ <= 0.0
        ? demandNow
        : 0.98 * demandEwma_ + 0.02 * demandNow;
    const double demandRatio =
        demandNow / std::max(demandEwma_, 1e-9);
    const double peakiness =
        std::clamp(demandRatio - 1.0, 0.0, 2.0);

    const double budgetRate = creditor_->ratePerSecond();
    const Dollars credit =
        std::max(0.0, creditor_->allocatedTotal() - spentNow);
    const double scale = std::max(budgetRate * 1800.0, 1e-12);
    const double boost =
        std::min(3.0, credit / scale) * peakiness;
    const double target = budgetRate * (0.85 + boost);

    const double rateError = std::clamp(
        spendRateEwma_ / std::max(target, 1e-12) - 1.0, -1.0, 1.0);
    const double overdraft = std::clamp(
        (spentNow - creditor_->allocatedTotal()) / scale, 0.0, 1.0);
    lambda_ = std::clamp(
        lambda_ * std::exp(0.2 * rateError + 0.1 * overdraft), 1e2,
        1e8);

    if (invoked.empty())
        return;

    // Build the interval problem.
    std::vector<FunctionEstimate> estimates;
    estimates.reserve(invoked.size());
    {
        CC_PHASE("crunch.estimates");
        for (FunctionId f : invoked) {
            const auto& history = histories_[f];
            const Seconds period = pest(history);
            // IAT dispersion: blend local/global like P_est itself,
            // with a floor so near-perfectly periodic functions still
            // get a band.
            const Seconds sigma = std::max(
                {history.globalStddev(), history.localStddev(),
                 0.15 * std::max(period, 0.0)});
            auto estimate = observed_->estimate(
                workload.profile(f), period, sigma);
            estimate.weight = weights[estimates.size()];
            estimates.push_back(estimate);
        }
    }

    // --- watchdog: invalid inputs ------------------------------------
    // A poisoned estimate (NaN/inf from degenerate history, e.g. after
    // fault churn) would propagate through every objective term; skip
    // the whole tick and keep serving the last-good solutions.
    for (const FunctionEstimate& e : estimates) {
        if (estimateValid(e))
            continue;
        ++watchdogTrips_;
        if (watchdogTrips_ == 1)
            warn("CodeCrunch: watchdog tripped on invalid "
                 "estimates; keeping last-good solutions");
        emitWatchdogTrip(context_->traceSink(), context_->now(),
                         watchdogTrips_);
        lastTick_ = TickDebug{true};
        return;
    }

    const double costRate[kNumNodeTypes] = {
        cluster.costRate(NodeType::X86),
        cluster.costRate(NodeType::ARM)};
    ChoiceRestrictions restrictions;
    restrictions.allowCompression = config_.useCompression;
    restrictions.allowSnapshot = config_.useSnapshot;
    restrictions.allowX86 = config_.archMode != ArchMode::ArmOnly;
    restrictions.allowArm = config_.archMode != ArchMode::X86Only;
    restrictions.slaSlack = config_.slaSlack;
    restrictions.costWeight = lambda_;
    // Snapshot storage priced per interval: $/MB for one interval of
    // image residency on each architecture's local disk.
    const double snapshotRate[kNumNodeTypes] = {
        cluster.snapshotStorageRate(NodeType::X86) * kSecondsPerMinute,
        cluster.snapshotStorageRate(NodeType::ARM) * kSecondsPerMinute};
    // The Lagrangian price replaces the hard per-interval budget: SRE
    // sub-problems then trade service against priced cost locally,
    // and the price itself is steered below so that committed cost
    // tracks the creditor's allowance.
    IntervalObjective objective(std::move(estimates), costRate,
                                1e18, restrictions, snapshotRate);

    // Start from the previous solutions (unsampled functions keep
    // their choices — the SRE recombination rule).
    opt::Assignment start(invoked.size());
    for (std::size_t i = 0; i < invoked.size(); ++i)
        start[i] = sanitize(solutions_[invoked[i]]);

    opt::OptimizerResult result;
    std::vector<std::uint32_t> counts;
    {
        CC_PHASE("crunch.optimize");
        if (config_.useSre) {
            opt::SreOptimizer sre(config_.sre);
            counts.resize(invoked.size());
            for (std::size_t i = 0; i < invoked.size(); ++i)
                counts[i] = sreCounts_[invoked[i]];
            result = sre.optimizeWithCounts(objective, start, rng_,
                                            counts);
        } else {
            // Whole-space steepest descent within SRE's optimization
            // time (paper Sec. 5, Fig. 12 "without SRE"): one descent
            // round scans every (function, choice) pair — roughly the
            // number of term evaluations SRE's sub-problems spend in
            // total — so the fair time-capped variant gets only a
            // couple of rounds.
            opt::CoordinateDescent descent(2);
            result = descent.optimize(objective, start, rng_);
        }
    }

    // --- watchdog: overrun / invalid result --------------------------
    const std::size_t evaluationBudget =
        config_.watchdog.maxEvaluationsPerTick;
    if (!std::isfinite(result.score) ||
        result.assignment.size() != invoked.size() ||
        (evaluationBudget > 0 && result.evaluations > evaluationBudget)) {
        ++watchdogTrips_;
        if (watchdogTrips_ == 1)
            warn("CodeCrunch: watchdog rejected a tick result (",
                 result.evaluations,
                 " evaluations); keeping last-good solutions");
        emitWatchdogTrip(context_->traceSink(), context_->now(),
                         watchdogTrips_);
        lastTick_ = TickDebug{true};
        return;
    }
    // SRE fairness counters advance only for adopted results.
    if (config_.useSre) {
        for (std::size_t i = 0; i < invoked.size(); ++i)
            sreCounts_[invoked[i]] = counts[i];
    }

    lastTick_ = TickDebug{};

    // Adopt and apply the solution.
    {
        CC_PHASE("crunch.apply");
        for (std::size_t i = 0; i < invoked.size(); ++i) {
            const FunctionId f = invoked[i];
            const Choice choice = sanitize(result.assignment[i]);
            solutions_[f] = choice;
            optimizedOnce_[f] = true;
            if (auto* trace = context_->traceSink()) {
                obs::TraceEvent event;
                event.kind = obs::TraceEvent::Kind::Placement;
                event.u8 = static_cast<std::uint8_t>(
                    (choice.compress ? 1 : 0) |
                    (choice.arch == NodeType::ARM ? 2 : 0) |
                    (choice.snapshot ? 4 : 0));
                event.tid = obs::kControllerTrack;
                event.a = f;
                event.b = static_cast<std::uint32_t>(
                    choice.keepAliveLevel);
                event.x = keepAliveLevels()[static_cast<std::size_t>(
                    choice.keepAliveLevel)];
                event.ts = context_->now();
                trace->emit(event);
            }
            // Reconcile snapshot residency with the new decision right
            // away: creation is a background write (no critical-path
            // cost), and dropping an image stops its storage accrual.
            if (choice.snapshot && cluster.snapshotCount(f) == 0)
                context_->requestSnapshot(f, choice.arch);
            else if (!choice.snapshot && cluster.snapshotCount(f) > 0)
                context_->requestDropSnapshots(f);
            if (cluster.warmCount(f) == 0)
                continue;
            // Update live warm containers to the new decision. A zero
            // keep-alive only stops future keeps; already-warm
            // containers run out their previously granted window
            // (evicting them would waste their sunk cost and
            // destabilize the warm pool).
            const Seconds keepAlive = keepAliveLevels()[
                static_cast<std::size_t>(choice.keepAliveLevel)];
            if (keepAlive > 0.0) {
                context_->requestSetKeepAlive(f, keepAlive);
                if (choice.compress)
                    context_->requestCompress(f);
            }
        }
    }

    if (obs::TraceBuffer* trace = context_->traceSink()) {
        // Sim-deterministic payload only: score and evaluation count,
        // never wallSeconds (which differs run to run).
        obs::TraceEvent event;
        event.kind = obs::TraceEvent::Kind::Optimize;
        event.tid = obs::kControllerTrack;
        event.a = static_cast<std::uint32_t>(invoked.size());
        event.b = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            result.evaluations, 0xffffffffull));
        event.x = result.score;
        event.ts = context_->now();
        trace->emit(event);
    }
}

} // namespace codecrunch::core
