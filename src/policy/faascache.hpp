/**
 * @file
 * FaasCache (Fuerst & Sharma, ASPLOS'21): keep-alive as a caching
 * problem, using Greedy-Dual-Size-Frequency eviction.
 *
 * Containers are kept warm indefinitely (up to the platform cap) and
 * evicted only under memory pressure, in order of the greedy-dual
 * priority
 *     priority(f) = clock + freq(f) * coldStartCost(f) / memory(f),
 * where `clock` inflates to the priority of the last evicted victim so
 * that recency and frequency both matter.
 */
#pragma once

#include <vector>

#include "policy/policy.hpp"

namespace codecrunch::policy {

/**
 * Greedy-dual keep-alive caching baseline.
 */
class FaasCache : public Policy
{
  public:
    struct Config {
        /** Keep-alive cap (the cache holds containers until evicted). */
        Seconds maxKeepAlive = 3600.0;
    };

    FaasCache() : FaasCache(Config()) {}

    explicit FaasCache(Config config) : config_(config) {}

    std::string name() const override { return "FaasCache"; }

    void onArrival(FunctionId function, Seconds now) override;

    KeepAliveDecision
    onFinish(const metrics::InvocationRecord& record) override;

    std::optional<cluster::ContainerId>
    pickVictim(NodeId node, MegaBytes neededMb) override;

  private:
    double priority(FunctionId function) const;

    Config config_;
    /** Arrival counts (dense, indexed by FunctionId). */
    std::vector<std::uint64_t> frequency_;
    double clock_ = 0.0;
};

} // namespace codecrunch::policy
