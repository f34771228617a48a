/**
 * @file
 * The simulation driver: replays a workload against a cluster under a
 * scheduling policy and produces metrics.
 *
 * The driver owns all mechanics — arrival queueing, warm-container
 * lifecycle (creation, background compression, expiry, consumption),
 * capacity checks, cost accrual, and the one-minute optimization tick —
 * and consults the Policy only at the decision points defined in
 * policy/policy.hpp. Wall-clock time spent inside policy callbacks is
 * accumulated separately, which is how the decision-overhead experiment
 * (paper Sec. 5, "Overhead of CodeCrunch") is measured.
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "metrics/collector.hpp"
#include "obs/trace.hpp"
#include "policy/policy.hpp"
#include "sim/event_queue.hpp"
#include "trace/workload.hpp"

namespace codecrunch::experiments {

/**
 * Driver tunables.
 */
struct DriverConfig {
    /** Seed for execution-time noise. */
    std::uint64_t seed = 7;
    /** Lognormal sigma of per-invocation execution-time noise. */
    double execNoiseSigma = 0.08;
    /** Optimization tick interval (the paper uses one minute). */
    Seconds tickInterval = kSecondsPerMinute;
    /**
     * Hard stop this long after the last trace arrival (drains warm
     * containers; keep-alive times are capped at 60 min anyway).
     */
    Seconds drainGrace = 2.0 * kSecondsPerHour;
    /**
     * Optional observer of the simulated clock, invoked once per
     * optimization tick with now(). Pure observability (the runner's
     * progress heartbeat); must not touch simulation state.
     */
    std::function<void(Seconds)> tickObserver;

    /** Fault injection; all-zero (the default) disables it. */
    faults::FaultConfig faults;
    /** Retries after the first failed attempt before giving up. */
    int maxRetries = 3;
    /** First retry delay; doubles per attempt up to the cap. */
    Seconds retryBackoffBase = 0.5;
    Seconds retryBackoffCap = 30.0;
    /**
     * How long a transiently failing attempt occupies its node before
     * the failure is detected and the resources are released.
     */
    Seconds failureDetectSeconds = 0.1;

    /**
     * Observability: the run's trace-event buffer (not owned; null
     * disables tracing). Pure observation — emission never perturbs
     * simulation state, so results are bit-identical with or without
     * it. The runner wires this to the per-job buffer (JobContext).
     */
    obs::TraceBuffer* trace = nullptr;
    /**
     * Keep 1-in-N invocation event groups in the trace (<= 1 keeps
     * all). The sample is a pure function of (seed, function id) —
     * obs::traceSampleKeeps — so sampled traces stay byte-identical
     * across --threads. Controller, fault, and policy events are
     * always kept.
     */
    std::uint32_t traceSampleEvery = 1;
    /**
     * Record per-interval delta snapshots of the run's flow counters
     * (cold starts, evictions, spend, ...) into RunResult::intervals
     * every this many sim seconds (<= 0 disables). Snapshots are
     * taken on tick boundaries, so the effective interval is rounded
     * up to a multiple of tickInterval.
     */
    Seconds statsIntervalSeconds = 0.0;
};

/**
 * One per-interval delta snapshot of a run's flow counters
 * (DriverConfig::statsIntervalSeconds). Everything here is a
 * sim-deterministic delta over [endSeconds - interval, endSeconds), so
 * the series is safe for diffable artifacts and byte-identical across
 * --threads.
 */
struct IntervalSample {
    /** Sim time at the end of the interval (tick-aligned). */
    Seconds endSeconds = 0.0;
    std::uint64_t invocations = 0;
    std::uint64_t coldStarts = 0;
    std::uint64_t warmStarts = 0;
    std::uint64_t snapshotStarts = 0;
    /** Warm containers evicted (exec/keep/policy/fault — not expiry
     *  or consumption) this interval. */
    std::uint64_t evictions = 0;
    std::uint64_t prewarms = 0;
    std::uint64_t failedAttempts = 0;
    /** Keep-alive dollars accrued this interval. */
    Dollars spendDelta = 0.0;
    /** Wait-queue depth at the snapshot tick (a gauge, not a delta). */
    std::uint64_t waitQueueDepth = 0;

    /** Exact binary round trip (runner/serial.hpp). */
    template <typename V>
    void
    visitFields(V&& v)
    {
        v(endSeconds);
        v(invocations);
        v(coldStarts);
        v(warmStarts);
        v(snapshotStarts);
        v(evictions);
        v(prewarms);
        v(failedAttempts);
        v(spendDelta);
        v(waitQueueDepth);
    }
};

/**
 * Result of one simulation run.
 */
struct RunResult {
    metrics::Collector metrics;
    /** Wall-clock seconds spent inside policy decision callbacks. */
    double decisionWallSeconds = 0.0;
    /** Total simulated keep-alive spend in dollars. */
    Dollars keepAliveSpend = 0.0;
    /** Invocations never served (cluster permanently saturated). */
    std::size_t unserved = 0;

    /** Diagnostics: why cold starts happened. */
    std::size_t coldNoContainer = 0;
    std::size_t coldContainerCoreBusy = 0;
    std::size_t coldContainerNoMemory = 0;

    /** Diagnostics: how warm containers ended. */
    std::size_t endExpired = 0;
    std::size_t endConsumed = 0;
    std::size_t endEvictedForExec = 0;
    std::size_t endEvictedForKeep = 0;
    std::size_t endEvictedByPolicy = 0;
    std::size_t keepDropped = 0;

    /** Fault injection: node lifecycle and fault-driven evictions. */
    std::size_t nodeCrashes = 0;
    std::size_t nodeRecoveries = 0;
    std::size_t endEvictedByFault = 0;

    /** Finished prewarms dropped for lack of warm headroom. */
    std::size_t prewarmsDropped = 0;
    /** Prewarms issued from a policy's onNodeRecover hook. */
    std::size_t rePrewarmsIssued = 0;

    /** Reclaim attempts that found no evictable victims on a node. */
    std::size_t reclaimFailed = 0;

    /** Snapshot residency: creations, drops, and storage spend. */
    std::size_t snapshotsCreated = 0;
    /** Creations whose target node crashed before the write finished. */
    std::size_t snapshotCreatesDropped = 0;
    /** Snapshots evicted by per-node storage-budget pressure. */
    std::size_t snapshotsEvictedForStorage = 0;
    /** Snapshots lost to node crashes. */
    std::size_t snapshotsLostToCrash = 0;
    /** Total snapshot storage spend in dollars (separate from the
     *  keep-alive commitment ledger: storage is pay-as-you-go). */
    Dollars snapshotStorageSpend = 0.0;

    /**
     * Keep-alive commitment ledger (see cluster::Cluster): total
     * committed, the part refunded at early removal (and its
     * crash/shock-attributed share), what committed containers
     * actually accrued, and what was still outstanding at the end.
     * committedDollars == commitmentConsumedDollars + refundedDollars
     * + outstandingCommitmentDollars up to float epsilon.
     */
    Dollars committedDollars = 0.0;
    Dollars refundedDollars = 0.0;
    Dollars faultRefundedDollars = 0.0;
    Dollars commitmentConsumedDollars = 0.0;
    Dollars outstandingCommitmentDollars = 0.0;

    /**
     * Per-interval flow series (empty unless
     * DriverConfig::statsIntervalSeconds > 0).
     */
    std::vector<IntervalSample> intervals;
    /** Trace events this run recorded (0 when tracing is off). */
    std::uint64_t traceEventsEmitted = 0;

    /**
     * Exact binary round trip of a finished run (runner/serial.hpp):
     * the basis of distributed execution's byte-identical-artifact
     * guarantee. New result fields must be added here too (dist_test's
     * round trip guards the report fields).
     */
    template <typename V>
    void
    visitFields(V&& v)
    {
        v(metrics);
        v(decisionWallSeconds);
        v(keepAliveSpend);
        v(unserved);
        v(coldNoContainer);
        v(coldContainerCoreBusy);
        v(coldContainerNoMemory);
        v(endExpired);
        v(endConsumed);
        v(endEvictedForExec);
        v(endEvictedForKeep);
        v(endEvictedByPolicy);
        v(keepDropped);
        v(nodeCrashes);
        v(nodeRecoveries);
        v(endEvictedByFault);
        v(prewarmsDropped);
        v(rePrewarmsIssued);
        v(reclaimFailed);
        v(snapshotsCreated);
        v(snapshotCreatesDropped);
        v(snapshotsEvictedForStorage);
        v(snapshotsLostToCrash);
        v(snapshotStorageSpend);
        v(committedDollars);
        v(refundedDollars);
        v(faultRefundedDollars);
        v(commitmentConsumedDollars);
        v(outstandingCommitmentDollars);
        v(intervals);
        v(traceEventsEmitted);
    }
};

/**
 * Replays one workload under one policy.
 */
class Driver : public policy::PolicyContext
{
  public:
    Driver(const trace::Workload& workload,
           const cluster::ClusterConfig& clusterConfig,
           policy::Policy& policy, DriverConfig config = {});

    /** Run the simulation to completion. */
    RunResult run();

    // --- PolicyContext -------------------------------------------------

    const trace::Workload& workload() const override
    {
        return workload_;
    }

    const cluster::Cluster& clusterState() const override
    {
        return cluster_;
    }

    Seconds now() const override { return queue_.now(); }

    obs::TraceBuffer* traceSink() const override { return trace_; }

    bool requestPrewarm(FunctionId function, NodeType type,
                        Seconds keepAliveSeconds) override;
    void requestEvict(FunctionId function) override;
    void requestCompress(FunctionId function) override;
    void requestSetKeepAlive(FunctionId function,
                             Seconds keepAliveSeconds) override;
    bool requestSnapshot(FunctionId function, NodeType type) override;
    void requestDropSnapshots(FunctionId function) override;

  private:
    /** Per-warm-container scheduled events. */
    struct WarmEvents {
        sim::EventHandle expiry;
        sim::EventHandle compressFinish;
    };

    /** An invocation waiting for cluster capacity. */
    struct Waiter {
        Invocation invocation;
        /** 1 on the first attempt; grows with each retry. */
        int attempt = 1;
    };

    /**
     * One core's in-flight work: an execution (normal or transiently
     * failing) or a prewarm cold start. Every unit of in-flight work
     * holds exactly one core of one node, so (node, core) names it and
     * the record lives at inFlight_[node * coresPerNode + core].
     */
    struct InFlight {
        /** A prewarm carries only invocation.function. */
        Invocation invocation;
        /** Attempt number of an execution; 0 marks a prewarm. */
        int attempt = 0;
        /** Monotone creation id; 0 marks a free entry. Crash handling
         *  walks victims in `seq` order. */
        std::uint64_t seq = 0;
        /** Sim time the work took the core (start of its trace slice). */
        Seconds start = 0.0;
        sim::EventHandle finish;
    };

    void scheduleArrival(std::size_t index);
    void handleArrival(const Invocation& invocation);

    /**
     * Try to start `invocation` now (attempt >= 2 for retries).
     * @return true if an execution (or warm consumption) began.
     */
    bool tryStart(const Invocation& invocation, int attempt);

    /**
     * Start executing on `node` with the given start category: claim
     * a core (claimCore) and schedule the finish or the transient
     * failure.
     */
    void startExecution(const Invocation& invocation, NodeId node,
                        StartType start, Seconds startupLatency,
                        int attempt);

    // --- in-flight table ----------------------------------------------

    /**
     * Reserve one core and the function's memory on `node`, and record
     * the work in the node's lowest free core entry; that core names
     * its trace track. Returns the entry's index. Panics when the node
     * has no free core.
     */
    std::size_t claimCore(NodeId node, const Invocation& invocation,
                          int attempt);

    /**
     * Free in-flight entry `index`: hand back its record and release
     * its core and memory on the node. Panics on a free entry.
     */
    InFlight releaseCore(std::size_t index);

    /** The node whose core in-flight entry `index` is. */
    NodeId
    nodeOf(std::size_t index) const
    {
        return static_cast<NodeId>(index / coresPerNode());
    }

    std::size_t
    coresPerNode() const
    {
        return static_cast<std::size_t>(cluster_.config().coresPerNode);
    }

    // --- fault injection ----------------------------------------------

    void handleFault(const faults::FaultEvent& event);

    /**
     * Node crash: the warm pool on the node is lost, in-flight
     * executions fail (regular invocations retry with backoff,
     * prewarms are dropped), then the node is marked down.
     */
    void crashNode(NodeId node);

    /** Node comes back empty and cold; queued work may now start. */
    void recoverNode(NodeId node);

    /**
     * Memory-pressure shock: evict the oldest warm containers on the
     * node until only (1 - shockFraction) of its warm memory remains.
     */
    void memoryShock(NodeId node);

    /**
     * Account one failed attempt and either schedule a retry with
     * capped exponential backoff or, past maxRetries, record a
     * permanent failure.
     */
    void failAttempt(const Invocation& invocation, int attempt);

    /**
     * Nodes of `type` with a free core whose free + reclaimable warm
     * memory fits the profile, in descending reclaimable order (ties
     * by ascending node id). The reclaim path walks them all: the
     * best node's victims may be policy-vetoed while another node of
     * the same type reclaims fine.
     */
    std::vector<NodeId>
    pickNodesWithReclaim(NodeType type,
                         const trace::FunctionProfile& profile) const;

    /**
     * Evict warm containers on `node` until `neededMb` is free
     * (policy victims first, then longest-idle).
     */
    bool reclaimFor(NodeId node, MegaBytes neededMb);

    void handleFinish(NodeId node,
                      const metrics::InvocationRecord& record);

    /** Apply a keep-alive decision for a container just vacated. */
    void applyDecision(FunctionId function, NodeId node,
                       NodeType execType,
                       const policy::KeepAliveDecision& decision);

    /** Make a container warm on `node` and arm its events. */
    void
    addWarmContainer(FunctionId function, NodeId node,
                     Seconds keepAliveSeconds, bool compress);

    /**
     * Evict one container (cancels its events).
     * @return the refunded (unspent) keep-alive commitment dollars;
     *         `byFault` attributes the refund to a crash/shock.
     */
    Dollars evictContainer(cluster::ContainerId id,
                           bool byFault = false);

    /** Consume a warm container for a warm start (cancels events). */
    cluster::WarmContainer consumeWarm(cluster::ContainerId id);

    void scheduleCompression(cluster::ContainerId id);

    void handleTick();

    /** Serve as many queued invocations as capacity now allows. */
    void drainWaitQueue();

    // --- observability -------------------------------------------------
    //
    // In-flight work is drawn on the track of the core it holds, so
    // concurrent executions land on separate, properly nesting
    // Perfetto tracks; queueing delays get retroactively allocated
    // wait lanes. All of it is pure observation gated on trace_ being
    // non-null.

    /**
     * Track of in-flight entry `index`'s core. Each node's core tracks
     * are followed by its background track (see obs/trace.hpp model).
     */
    std::uint32_t coreTid(std::size_t index) const;

    /** The node's background track (compressions, fault instants). */
    std::uint32_t bgTid(NodeId node) const;

    /**
     * Emit in-flight entry `index`'s slice, from the work's start to
     * now, on its core track (AttemptFailed and Prewarm slices).
     */
    void emitCoreSlice(std::size_t index, const InFlight& work,
                       obs::TraceEvent::Kind kind, std::uint8_t cause);

    /**
     * Lane whose previous wait ended by `begin`; marks it busy until
     * `end`. Lanes are created on demand and reused greedily, which is
     * deterministic because waits resolve in sim-event order.
     */
    std::uint32_t allocWaitLane(Seconds begin, Seconds end);

    /** Emit the Invocation slice (plus Startup/Exec children). */
    void emitInvocationTrace(std::size_t index, const InFlight& exec,
                             const metrics::InvocationRecord& record);

    /** Emit the Wait slice for a resolved queueing delay. */
    void emitWaitTrace(const Invocation& invocation, int attempt,
                       Seconds begin, Seconds end);

    /**
     * Sampling gate for a function's invocation event group (see
     * DriverConfig::traceSampleEvery). Pure function of (seed,
     * function), so sampled traces keep the byte-identity contract.
     */
    bool
    traceKeep(FunctionId function) const
    {
        return obs::traceSampleKeeps(config_.seed, function,
                                     config_.traceSampleEvery);
    }

    /** Append one interval delta ending at `end` (see IntervalSample). */
    void snapshotInterval(Seconds end);

    /** True when nothing can ever happen again. */
    bool drained() const;

    template <typename Fn>
    auto
    timedDecision(Fn&& fn)
    {
        const auto start = std::chrono::steady_clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            result_.decisionWallSeconds += std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start).count();
        } else {
            auto result = fn();
            result_.decisionWallSeconds += std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start).count();
            return result;
        }
    }

    const trace::Workload& workload_;
    cluster::Cluster cluster_;
    policy::Policy& policy_;
    DriverConfig config_;

    sim::EventQueue queue_;
    /**
     * The result run() returns. The driver counts, records metrics and
     * appends interval samples straight into it; run() fills the
     * fields other modules own (cluster ledger, wait queue) at the end.
     */
    RunResult result_;
    Rng rng_;
    faults::FaultPlan faultPlan_;

    std::deque<Waiter> waitQueue_;
    std::unordered_map<cluster::ContainerId, WarmEvents> warmEvents_;
    /** One InFlight entry per core of the cluster, node-major. */
    std::vector<InFlight> inFlight_;
    /** Occupied inFlight_ entries. */
    std::size_t running_ = 0;
    std::uint64_t nextExecId_ = 1;
    /** Monotone attempt counter feeding FaultPlan::invocationFails. */
    std::uint64_t attemptSeq_ = 0;
    std::size_t pendingRetries_ = 0;
    /** True while policy::onNodeRecover runs: prewarms issued from
     *  there count as fault-reactive re-prewarms. */
    bool inRecoveryHook_ = false;
    /** Warm-pool recovery tracking (armed by the first crash). */
    bool warmRecoveryPending_ = false;
    Seconds warmRecoveryStart_ = 0.0;
    MegaBytes warmRecoveryTargetMb_ = 0.0;
    std::size_t arrivalsProcessed_ = 0;
    /** Functions with an in-flight background snapshot creation. */
    std::unordered_set<FunctionId> pendingSnapshotCreates_;
    Seconds lastArrivalTime_ = 0.0;

    /** Observability (see the helper block above). */
    obs::TraceBuffer* trace_ = nullptr;
    std::vector<Seconds> waitLaneEnd_;
    /** Registry instruments (process-global, shared across runs). */
    // Run-local stat accumulation; run() flushes everything into the
    // global registry in one batch when the simulation completes.
    std::size_t prewarmsIssued_ = 0;
    std::size_t ticksProcessed_ = 0;
    std::size_t memoryShocks_ = 0;
    std::size_t waitQueuePeak_ = 0;

    /**
     * Interval flows (DriverConfig::statsIntervalSeconds): the
     * cumulative flows at the last snapshot (spendDelta holds the
     * cumulative spend), so each sample is a pure delta.
     */
    IntervalSample intervalBase_;
    Seconds nextIntervalEnd_ = 0.0;
};

} // namespace codecrunch::experiments
