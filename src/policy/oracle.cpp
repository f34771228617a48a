#include "policy/oracle.hpp"

#include <algorithm>
#include <cmath>

namespace codecrunch::policy {

std::optional<cluster::ContainerId>
Oracle::pickVictim(NodeId node, MegaBytes)
{
    const Seconds now = context_->now();
    std::optional<cluster::ContainerId> victim;
    Seconds farthest = -1.0;
    for (const auto& [id, container] :
         context_->clusterState().warmPool()) {
        if (container.node != node)
            continue;
        Seconds next = nextArrival(container.function, now);
        if (next < 0.0)
            next = 1e18; // never again: perfect victim
        if (next > farthest) {
            farthest = next;
            victim = id;
        }
    }
    // Belady with an incumbent-wins guard: evicting a paid-for
    // container only helps if the newcomer's next use is sooner than
    // the victim's.
    if (victim && lastFinished_ != kInvalidFunction) {
        const Seconds newcomerNext =
            nextArrival(lastFinished_, now);
        if (newcomerNext >= 0.0 && farthest <= newcomerNext)
            return std::nullopt;
    }
    return victim;
}

void
Oracle::bind(PolicyContext& context)
{
    Policy::bind(context);
    const auto& workload = context.workload();
    arrivals_.assign(workload.functions.size(), {});
    cursor_.assign(workload.functions.size(), 0);
    for (const auto& inv : workload.invocations)
        arrivals_[inv.function].push_back(inv.arrival);
}

void
Oracle::onArrival(FunctionId function, Seconds now)
{
    // Advance the cursor past everything at or before `now`.
    auto& c = cursor_[function];
    const auto& a = arrivals_[function];
    while (c < a.size() && a[c] <= now + 1e-9)
        ++c;
}

Seconds
Oracle::nextArrival(FunctionId function, Seconds now) const
{
    const auto& a = arrivals_[function];
    std::size_t c = cursor_[function];
    while (c < a.size() && a[c] <= now + 1e-9)
        ++c;
    return c < a.size() ? a[c] : -1.0;
}

NodeType
Oracle::coldPlacement(FunctionId function)
{
    return context_->workload().profile(function).fasterArch();
}

KeepAliveDecision
Oracle::onFinish(const metrics::InvocationRecord& record)
{
    KeepAliveDecision decision;
    lastFinished_ = record.function;
    const Seconds now = context_->now();
    const Seconds next = nextArrival(record.function, now);
    if (next < 0.0)
        return decision; // never invoked again
    const Seconds idle = next - now;
    if (idle > config_.maxKeepAlive)
        return decision; // beyond the platform cap: let it go cold

    const auto& profile = context_->workload().profile(record.function);
    // Stay where the function just executed: placement already chose
    // the faster architecture whenever it had capacity, and keeping
    // the existing container costs nothing extra, whereas a
    // cross-architecture prewarm would burn a cold start and can fail
    // under load.
    const NodeType arch = record.nodeType;
    decision.keepAliveSeconds = idle + 1.0;

    if (config_.budgetRatePerSecond > 0.0) {
        const auto& cluster = context_->clusterState();
        // Budget gate: keeps are ranked by cost-effectiveness
        // (cold-start seconds avoided per keep-alive dollar) against
        // the adaptive price lambda — the dual multiplier of the
        // budget-constrained knapsack, steered in onTick so actual
        // spend tracks the budget rate.
        const Dollars plainCost = cluster.keepAliveCost(
            arch, profile.memoryMb, decision.keepAliveSeconds);
        const Dollars packedCost = cluster.keepAliveCost(
            arch, std::min(profile.compressedMb, profile.memoryMb),
            decision.keepAliveSeconds);
        const int archIdx = static_cast<int>(arch);
        const double plainValue = profile.coldStart[archIdx];
        const double packedValue =
            profile.coldStart[archIdx] - profile.decompress[archIdx];
        if (plainValue / std::max(plainCost, 1e-12) >= lambda_) {
            // uncompressed keep clears the value frontier
        } else if (packedValue > 0.0 && packedCost < plainCost &&
                   packedValue / std::max(packedCost, 1e-12) >=
                       lambda_) {
            decision.compress = true;
        } else {
            return KeepAliveDecision{}; // below the value frontier
        }
    }
    return decision;
}

void
Oracle::onTick(Seconds now)
{
    if (config_.budgetRatePerSecond <= 0.0)
        return;
    // Cumulative-balance control (mirrors the CodeCrunch creditor):
    // the price relaxes while spend trails the cumulative allocation
    // and tightens once it is overdrawn, so peaks draw on banked
    // budget instead of being throttled.
    const Dollars spentNow =
        context_->clusterState().keepAliveSpend();
    const Dollars allocated = config_.budgetRatePerSecond * now;
    const double surplus = spentNow - allocated;
    const double scale =
        std::max(config_.budgetRatePerSecond * 1800.0, 1e-12);
    const double error = std::clamp(surplus / scale, -1.0, 1.0);
    // Asymmetric gains: tighten quickly when overdrawn, relax slowly
    // while credit is banked — the price stays near the peak-clearing
    // level off-peak, so quiet periods under-spend (banking) and
    // peaks draw the bank down.
    const double gain = error > 0.0 ? 0.35 : 0.06;
    lambda_ = std::clamp(lambda_ * std::exp(gain * error), 1e2, 1e8);
}

} // namespace codecrunch::policy
