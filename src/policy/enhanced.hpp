/**
 * @file
 * Enhanced-baseline wrapper (Fig. 8): augments any existing policy with
 * the two portable CodeCrunch ideas — in-memory compression of
 * kept-alive functions and per-function x86/ARM selection — while
 * leaving the wrapped policy's own keep-alive/pre-warm intelligence
 * untouched (SitW keeps its histogram, FaasCache its greedy-dual cache,
 * IceBreaker its FFT).
 */
#pragma once

#include <memory>

#include "policy/policy.hpp"

namespace codecrunch::policy {

/**
 * Adds compression + architecture selection to a wrapped policy.
 */
class Enhanced : public Policy
{
  public:
    struct Config {
        /**
         * Warm-memory utilization (fraction of cluster memory) above
         * which favorable functions are compressed — compression only
         * pays off under memory pressure (paper Sec. 3.4).
         */
        double compressionPressure = 0.35;
        /** Enable per-function faster-architecture execution. */
        bool archSelection = true;
        /** Enable compression of favorable functions under pressure. */
        bool compression = true;
    };

    explicit Enhanced(std::unique_ptr<Policy> inner)
        : Enhanced(std::move(inner), Config())
    {
    }

    Enhanced(std::unique_ptr<Policy> inner, Config config)
        : inner_(std::move(inner)), config_(config)
    {
    }

    std::string
    name() const override
    {
        return "Enhanced-" + inner_->name();
    }

    void
    bind(PolicyContext& context) override
    {
        Policy::bind(context);
        inner_->bind(context);
    }

    void
    onArrival(FunctionId function, Seconds now) override
    {
        inner_->onArrival(function, now);
    }

    NodeType
    coldPlacement(FunctionId function) override
    {
        if (!config_.archSelection)
            return inner_->coldPlacement(function);
        return context_->workload().profile(function).fasterArch();
    }

    KeepAliveDecision
    onFinish(const metrics::InvocationRecord& record) override
    {
        KeepAliveDecision decision = inner_->onFinish(record);
        if (decision.keepAliveSeconds <= 0.0)
            return decision;
        const auto& profile =
            context_->workload().profile(record.function);
        if (config_.archSelection && !decision.warmupLocation)
            decision.warmupLocation = profile.fasterArch();
        if (config_.compression) {
            const NodeType arch =
                decision.warmupLocation.value_or(record.nodeType);
            const auto& cluster = context_->clusterState();
            // Pressure relative to the keep-alive reservation (the
            // memory warm containers are actually allowed to use).
            const double warmCapacity =
                cluster.totalMemoryMb() *
                cluster.config().keepAliveMemoryFraction;
            const double pressure =
                cluster.totalWarmMemoryMb() /
                std::max(warmCapacity, 1.0);
            if (pressure >= config_.compressionPressure &&
                profile.compressionFavorable(arch) &&
                profile.compressedMb < profile.memoryMb) {
                decision.compress = true;
            }
        }
        return decision;
    }

    void
    onTick(Seconds now) override
    {
        inner_->onTick(now);
    }

    void
    onNodeCrash(NodeId node, const std::vector<FunctionId>& lostFunctions,
                Seconds now) override
    {
        inner_->onNodeCrash(node, lostFunctions, now);
    }

    void
    onNodeRecover(NodeId node, Seconds now) override
    {
        inner_->onNodeRecover(node, now);
    }

    std::optional<cluster::ContainerId>
    pickVictim(NodeId node, MegaBytes neededMb) override
    {
        return inner_->pickVictim(node, neededMb);
    }

    Policy& inner() { return *inner_; }

  private:
    std::unique_ptr<Policy> inner_;
    Config config_;
};

} // namespace codecrunch::policy
