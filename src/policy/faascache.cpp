#include "policy/faascache.hpp"

#include <limits>

#include "obs/trace.hpp"

namespace codecrunch::policy {

void
FaasCache::onArrival(FunctionId function, Seconds)
{
    if (function >= frequency_.size())
        frequency_.resize(function + 1, 0);
    ++frequency_[function];
}

KeepAliveDecision
FaasCache::onFinish(const metrics::InvocationRecord& record)
{
    (void)record;
    KeepAliveDecision decision;
    decision.keepAliveSeconds = config_.maxKeepAlive;
    return decision;
}

double
FaasCache::priority(FunctionId function) const
{
    const auto& profile = context_->workload().profile(function);
    // Never-seen functions score as frequency 1.
    double freq = 1.0;
    if (function < frequency_.size() && frequency_[function] > 0)
        freq = static_cast<double>(frequency_[function]);
    // Cost of a miss is the cold start; size is the warm footprint.
    const double cost =
        profile.coldStart[static_cast<int>(NodeType::X86)];
    return clock_ + freq * cost / profile.memoryMb;
}

std::optional<cluster::ContainerId>
FaasCache::pickVictim(NodeId node, MegaBytes)
{
    const auto& pool = context_->clusterState().warmPool();
    std::optional<cluster::ContainerId> victim;
    FunctionId victimFunction = kInvalidFunction;
    double lowest = std::numeric_limits<double>::infinity();
    for (const auto& [id, container] : pool) {
        if (container.node != node)
            continue;
        const double p = priority(container.function);
        if (p < lowest) {
            lowest = p;
            victim = id;
            victimFunction = container.function;
        }
    }
    if (victim) {
        clock_ = lowest; // greedy-dual aging
        if (auto* trace = context_->traceSink()) {
            obs::TraceEvent event;
            event.kind = obs::TraceEvent::Kind::Evict;
            event.u8 = 0; // greedy-dual
            event.tid = obs::kControllerTrack;
            event.a = victimFunction;
            event.b = node;
            event.x = lowest;
            event.ts = context_->now();
            trace->emit(event);
        }
    }
    return victim;
}

} // namespace codecrunch::policy
