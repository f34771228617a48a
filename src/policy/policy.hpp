/**
 * @file
 * Scheduling-policy interface.
 *
 * A Policy makes the three decisions the paper studies: where to execute
 * a function (x86 vs ARM), whether/how long to keep its container alive
 * after execution, and whether to compress the kept-alive container. The
 * simulation driver owns all mechanics (queueing, capacity, cost
 * accrual) and consults the policy at well-defined points. Policies may
 * additionally act at the one-minute optimization tick through the
 * PolicyContext action interface (pre-warming, eviction, compression,
 * keep-alive extension) — that is how prediction-based baselines
 * (SitW/IceBreaker) and the CodeCrunch controller operate.
 *
 * Information rules: policies may inspect function *profiles* and their
 * own observation history, but must not read future invocations from
 * the workload. The Oracle policy is the single sanctioned exception.
 */
#pragma once

#include <optional>
#include <string>

#include "cluster/cluster.hpp"
#include "common/types.hpp"
#include "metrics/collector.hpp"
#include "trace/workload.hpp"

namespace codecrunch::obs {
class TraceBuffer;
}

namespace codecrunch::policy {

/**
 * Keep-alive decision returned after an execution finishes.
 */
struct KeepAliveDecision {
    /** How long to keep the container warm; <= 0 destroys it. */
    Seconds keepAliveSeconds = 0.0;
    /** Compress the container (in the background) once it is idle. */
    bool compress = false;
    /**
     * Architecture on which the function should be kept warm. If it
     * differs from where the function just executed, the driver
     * prewarms a container on the target architecture (off the
     * critical path) and releases the local one. nullopt = stay put.
     */
    std::optional<NodeType> warmupLocation;
    /**
     * Ensure a resident snapshot on the warmup architecture (created
     * in the background when none exists). Orthogonal to the warm
     * keep: `snapshot && keepAliveSeconds <= 0` is the cheap
     * snapshot-only residency mode, `snapshot && keepAliveSeconds > 0`
     * keeps warm *and* backs it with a snapshot.
     */
    bool snapshot = false;
};

/**
 * Environment view + actions available to a policy.
 */
class PolicyContext
{
  public:
    virtual ~PolicyContext() = default;

    virtual const trace::Workload& workload() const = 0;
    virtual const cluster::Cluster& clusterState() const = 0;
    virtual Seconds now() const = 0;

    /**
     * Observability: the run's trace-event buffer, or null when
     * tracing is off. Policies may emit controller-track events
     * (optimizer commits, watchdog trips); they must record
     * sim-deterministic payloads only (never wall-clock values), or
     * traces stop being byte-identical across --threads settings.
     */
    virtual obs::TraceBuffer* traceSink() const { return nullptr; }

    /**
     * Create a warm container for `function` on `type` without an
     * invocation (pre-warming): a cold start runs off the critical
     * path, then the container idles for `keepAliveSeconds`.
     * @return false if no capacity was available.
     */
    virtual bool requestPrewarm(FunctionId function, NodeType type,
                                Seconds keepAliveSeconds) = 0;

    /** Evict every warm container of `function`. */
    virtual void requestEvict(FunctionId function) = 0;

    /**
     * Start background compression of `function`'s uncompressed warm
     * containers (takes the profile's compressTime; memory shrinks when
     * it completes).
     */
    virtual void requestCompress(FunctionId function) = 0;

    /**
     * Reset the expiry of all warm containers of `function` to
     * now + keepAliveSeconds.
     */
    virtual void requestSetKeepAlive(FunctionId function,
                                     Seconds keepAliveSeconds) = 0;

    /**
     * Ensure `function` has a resident snapshot on a node of `type`:
     * a background creation (the profile's snapshotCreate seconds)
     * writes the snapshot to the chosen node's local storage. No-op
     * when one is already resident or being created.
     * @return false if no up node of `type` exists. Contexts without
     *         snapshot support (minimal test contexts) decline.
     */
    virtual bool
    requestSnapshot(FunctionId function, NodeType type)
    {
        (void)function;
        (void)type;
        return false;
    }

    /** Drop every resident snapshot of `function`. */
    virtual void
    requestDropSnapshots(FunctionId function)
    {
        (void)function;
    }
};

/**
 * Base class of all scheduling policies.
 */
class Policy
{
  public:
    virtual ~Policy() = default;

    /** Display name, e.g. "SitW" or "CodeCrunch". */
    virtual std::string name() const = 0;

    /** Called once before the simulation starts. */
    virtual void
    bind(PolicyContext& context)
    {
        context_ = &context;
    }

    /** An invocation arrived (before any placement decision). */
    virtual void
    onArrival(FunctionId function, Seconds now)
    {
        (void)function;
        (void)now;
    }

    /**
     * Architecture preference for a cold placement of `function`.
     * The driver falls back to the other architecture if the preferred
     * one has no capacity.
     */
    virtual NodeType
    coldPlacement(FunctionId function)
    {
        (void)function;
        return NodeType::X86;
    }

    /**
     * An execution finished; decide the container's afterlife.
     * @param record the completed invocation's full outcome.
     */
    virtual KeepAliveDecision
    onFinish(const metrics::InvocationRecord& record) = 0;

    /** One-minute optimization tick (paper Sec. 3.1 interval). */
    virtual void
    onTick(Seconds now)
    {
        (void)now;
    }

    /**
     * A node crashed (fault injection). `lostFunctions` lists the
     * function of every warm container the crash evicted, one entry
     * per container. Called after the node is marked down.
     */
    virtual void
    onNodeCrash(NodeId node,
                const std::vector<FunctionId>& lostFunctions,
                Seconds now)
    {
        (void)node;
        (void)lostFunctions;
        (void)now;
    }

    /**
     * A crashed node came back up (empty and cold). Fault-reactive
     * policies may re-prewarm lost functions from here via
     * PolicyContext::requestPrewarm.
     */
    virtual void
    onNodeRecover(NodeId node, Seconds now)
    {
        (void)node;
        (void)now;
    }

    /**
     * The driver could not fit a warm container on `node` and asks for
     * a victim to evict. Return nullopt to decline (the new container
     * is then dropped instead).
     */
    virtual std::optional<cluster::ContainerId>
    pickVictim(NodeId node, MegaBytes neededMb)
    {
        (void)node;
        (void)neededMb;
        return std::nullopt;
    }

  protected:
    PolicyContext* context_ = nullptr;
};

} // namespace codecrunch::policy
