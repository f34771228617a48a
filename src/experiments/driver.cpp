#include "experiments/driver.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.hpp"
#include "faults/backoff.hpp"
#include "obs/profiler.hpp"
#include "obs/stats.hpp"

namespace codecrunch::experiments {

using cluster::ContainerId;
using metrics::InvocationRecord;
using policy::KeepAliveDecision;

Driver::Driver(const trace::Workload& workload,
               const cluster::ClusterConfig& clusterConfig,
               policy::Policy& policy, DriverConfig config)
    : workload_(workload), cluster_(clusterConfig), policy_(policy),
      config_(config), rng_(config.seed)
{
    if (config_.maxRetries < 0)
        fatal("Driver: maxRetries must be >= 0, got ",
              config_.maxRetries);
    if (config_.faults.enabled() &&
        (config_.retryBackoffBase <= 0.0 ||
         config_.retryBackoffCap < config_.retryBackoffBase ||
         config_.failureDetectSeconds <= 0.0))
        fatal("Driver: invalid retry/backoff configuration (base ",
              config_.retryBackoffBase, ", cap ",
              config_.retryBackoffCap, ", detect ",
              config_.failureDetectSeconds, ")");
    // Workload::profile() indexes the catalog unchecked, so every
    // invocation must name a dense id inside it.
    for (const Invocation& invocation : workload.invocations)
        if (invocation.function >= workload.functions.size())
            fatal("Driver: invocation of function ", invocation.function,
                  " outside the catalog of ", workload.functions.size(),
                  " functions");
    lastArrivalTime_ = workload.invocations.empty()
        ? 0.0
        : workload.invocations.back().arrival;
    result_.metrics = metrics::Collector(workload.duration);
    faultPlan_ = faults::FaultPlan(
        config_.faults, cluster_.nodes().size(),
        lastArrivalTime_ + config_.drainGrace,
        clusterConfig.numFaultDomains);
    inFlight_.resize(cluster_.nodes().size() * coresPerNode());

    trace_ = config_.trace;
    if (trace_)
        trace_->nameTrack(obs::kControllerTrack, "controller");
}

// --- in-flight table -----------------------------------------------------

std::size_t
Driver::claimCore(NodeId nodeId, const Invocation& invocation,
                  int attempt)
{
    cluster_.reserveExec(nodeId,
                         workload_.profile(invocation.function).memoryMb);
    const std::size_t first = nodeId * coresPerNode();
    for (std::size_t core = 0; core < coresPerNode(); ++core) {
        InFlight& entry = inFlight_[first + core];
        if (entry.seq != 0)
            continue;
        entry.invocation = invocation;
        entry.attempt = attempt;
        entry.seq = nextExecId_++;
        entry.start = queue_.now();
        ++running_;
        if (trace_)
            trace_->nameTrack(
                coreTid(first + core),
                "node" + std::to_string(nodeId) +
                    (cluster_.node(nodeId).type == NodeType::X86
                         ? "/x86 c"
                         : "/arm c") +
                    std::to_string(core));
        return first + core;
    }
    panic("Driver: node ", nodeId, " has no free core entry");
}

Driver::InFlight
Driver::releaseCore(std::size_t index)
{
    InFlight& entry = inFlight_[index];
    if (entry.seq == 0)
        panic("Driver: release of free core entry ", index);
    InFlight work = std::move(entry);
    entry = InFlight{};
    --running_;
    cluster_.releaseExec(
        nodeOf(index), workload_.profile(work.invocation.function).memoryMb);
    return work;
}

// --- observability helpers ---------------------------------------------

std::uint32_t
Driver::coreTid(std::size_t index) const
{
    return static_cast<std::uint32_t>(1 + index + nodeOf(index));
}

std::uint32_t
Driver::bgTid(NodeId node) const
{
    return static_cast<std::uint32_t>(1 + node * (coresPerNode() + 1) +
                                      coresPerNode());
}

void
Driver::emitCoreSlice(std::size_t index, const InFlight& work,
                      obs::TraceEvent::Kind kind, std::uint8_t cause)
{
    obs::TraceEvent event;
    event.kind = kind;
    event.u8 = cause;
    event.tid = coreTid(index);
    event.a = work.invocation.function;
    event.b = static_cast<std::uint32_t>(work.attempt);
    event.ts = work.start;
    event.dur = queue_.now() - work.start;
    trace_->emit(event);
}

std::uint32_t
Driver::allocWaitLane(Seconds begin, Seconds end)
{
    for (std::size_t lane = 0; lane < waitLaneEnd_.size(); ++lane) {
        if (waitLaneEnd_[lane] <= begin + 1e-9) {
            waitLaneEnd_[lane] = end;
            return obs::kWaitLaneBase +
                   static_cast<std::uint32_t>(lane);
        }
    }
    waitLaneEnd_.push_back(end);
    const auto lane =
        static_cast<std::uint32_t>(waitLaneEnd_.size() - 1);
    trace_->nameTrack(obs::kWaitLaneBase + lane,
                      "wait lane " + std::to_string(lane));
    return obs::kWaitLaneBase + lane;
}

void
Driver::emitWaitTrace(const Invocation& invocation, int attempt,
                      Seconds begin, Seconds end)
{
    if (end - begin <= 1e-12)
        return;
    obs::TraceEvent event;
    event.kind = obs::TraceEvent::Kind::Wait;
    event.tid = allocWaitLane(begin, end);
    event.a = invocation.function;
    event.b = static_cast<std::uint32_t>(attempt);
    event.ts = begin;
    event.dur = end - begin;
    trace_->emit(event);
}

void
Driver::emitInvocationTrace(std::size_t index, const InFlight& exec,
                            const metrics::InvocationRecord& record)
{
    if (!traceKeep(record.function))
        return;
    const std::uint32_t tid = coreTid(index);
    obs::TraceEvent event;
    event.kind = obs::TraceEvent::Kind::Invocation;
    event.u8 = static_cast<std::uint8_t>(record.start);
    event.tid = tid;
    event.a = record.function;
    event.b = static_cast<std::uint32_t>(exec.attempt);
    event.ts = exec.start;
    event.dur = record.startup + record.exec;
    trace_->emit(event);
    if (record.startup > 0.0) {
        obs::TraceEvent startup;
        startup.kind = obs::TraceEvent::Kind::Startup;
        startup.u8 = event.u8;
        startup.tid = tid;
        startup.a = record.function;
        startup.ts = exec.start;
        startup.dur = record.startup;
        trace_->emit(startup);
        obs::TraceEvent run;
        run.kind = obs::TraceEvent::Kind::Exec;
        run.tid = tid;
        run.a = record.function;
        run.ts = exec.start + record.startup;
        run.dur = record.exec;
        trace_->emit(run);
    }
    emitWaitTrace(exec.invocation, exec.attempt, record.arrival,
                  exec.start);
}

void
Driver::snapshotInterval(Seconds end)
{
    const metrics::Collector& metrics = result_.metrics;
    IntervalSample total;
    total.invocations = metrics.invocations();
    total.coldStarts = metrics.coldStarts();
    total.warmStarts = metrics.warmStarts();
    total.snapshotStarts = metrics.snapshotStarts();
    total.evictions = result_.endEvictedForExec +
        result_.endEvictedForKeep + result_.endEvictedByPolicy +
        result_.endEvictedByFault;
    total.prewarms = prewarmsIssued_;
    total.failedAttempts = metrics.failedAttempts();
    total.spendDelta = cluster_.keepAliveSpend();

    IntervalSample sample;
    sample.endSeconds = end;
    sample.invocations = total.invocations - intervalBase_.invocations;
    sample.coldStarts = total.coldStarts - intervalBase_.coldStarts;
    sample.warmStarts = total.warmStarts - intervalBase_.warmStarts;
    sample.snapshotStarts =
        total.snapshotStarts - intervalBase_.snapshotStarts;
    sample.evictions = total.evictions - intervalBase_.evictions;
    sample.prewarms = total.prewarms - intervalBase_.prewarms;
    sample.failedAttempts =
        total.failedAttempts - intervalBase_.failedAttempts;
    sample.spendDelta = total.spendDelta - intervalBase_.spendDelta;
    sample.waitQueueDepth = waitQueue_.size();
    result_.intervals.push_back(sample);
    intervalBase_ = total;
}

RunResult
Driver::run()
{
    policy_.bind(*this);
    // Fault events go in first so that, at equal timestamps, a crash
    // precedes an arrival — the arrival then sees the degraded
    // cluster, matching how a real platform would observe it.
    for (const faults::FaultEvent& event : faultPlan_.events())
        queue_.schedule(event.time,
                        [this, event] { handleFault(event); });
    if (!workload_.invocations.empty())
        scheduleArrival(0);
    if (config_.tickInterval > 0.0)
        queue_.schedule(config_.tickInterval, [this] { handleTick(); });
    queue_.run();
    cluster_.accrueAll(queue_.now());
    // Close the interval series with the final (usually partial)
    // interval so end-of-run flows are never silently dropped.
    if (config_.statsIntervalSeconds > 0.0 &&
        (result_.intervals.empty() ||
         result_.intervals.back().endSeconds < queue_.now()))
        snapshotInterval(queue_.now());
    result_.metrics.finalizeAvailability(
        queue_.now(), cluster_.nodes().size(),
        cluster_.numDomains() > 1 ? cluster_.nodesPerDomain()
                                  : std::vector<std::size_t>{});

    // One batched stats-registry flush per run: per-event updates stay
    // in run-local counters so the sim hot path never contends on
    // registry cache lines shared across worker threads.
    result_.metrics.flushStats();
    auto& registry = obs::Registry::global();
    registry.counter("sim.driver.arrivals").add(arrivalsProcessed_);
    registry.counter("sim.driver.prewarms").add(prewarmsIssued_);
    registry.counter("sim.driver.ticks").add(ticksProcessed_);
    registry.counter("sim.faults.node_crashes").add(result_.nodeCrashes);
    registry.counter("sim.faults.node_recoveries")
        .add(result_.nodeRecoveries);
    registry.counter("sim.faults.memory_shocks").add(memoryShocks_);
    registry.counter("sim.driver.re_prewarms")
        .add(result_.rePrewarmsIssued);
    registry.counter("sim.driver.reclaim_failed")
        .add(result_.reclaimFailed);
    registry.counter("sim.driver.snapshots_created")
        .add(result_.snapshotsCreated);
    registry.gauge("sim.driver.wait_queue_peak")
        .observe(static_cast<double>(waitQueuePeak_));

    // The driver counted into result_ as it ran; what is left are the
    // totals other modules own.
    result_.keepAliveSpend = cluster_.keepAliveSpend();
    result_.unserved = waitQueue_.size();
    result_.prewarmsDropped = result_.metrics.prewarmsDropped();
    result_.snapshotsEvictedForStorage =
        cluster_.snapshotsEvictedForStorage();
    result_.snapshotStorageSpend = cluster_.snapshotSpend();
    result_.committedDollars = cluster_.committedDollarsTotal();
    result_.refundedDollars = cluster_.refundedDollarsTotal();
    result_.faultRefundedDollars = result_.metrics.faultRefundedDollars();
    result_.commitmentConsumedDollars =
        cluster_.commitmentConsumedDollars();
    result_.outstandingCommitmentDollars =
        cluster_.outstandingCommitmentDollars();
    result_.traceEventsEmitted =
        trace_ ? static_cast<std::uint64_t>(trace_->events().size())
               : 0;
    if (!waitQueue_.empty())
        warn("Driver: ", waitQueue_.size(),
             " invocations were never served");
    return std::move(result_);
}

void
Driver::scheduleArrival(std::size_t index)
{
    const Invocation& invocation = workload_.invocations[index];
    queue_.schedule(invocation.arrival, [this, index] {
        const Invocation inv = workload_.invocations[index];
        if (index + 1 < workload_.invocations.size())
            scheduleArrival(index + 1);
        handleArrival(inv);
    });
}

void
Driver::handleArrival(const Invocation& invocation)
{
    ++arrivalsProcessed_;
    timedDecision([&] {
        CC_PHASE("policy.onArrival");
        policy_.onArrival(invocation.function, queue_.now());
    });
    if (!tryStart(invocation, 1)) {
        waitQueue_.push_back({invocation, 1});
        waitQueuePeak_ = std::max(waitQueuePeak_, waitQueue_.size());
    }
}

bool
Driver::tryStart(const Invocation& invocation, int attempt)
{
    const auto& profile = workload_.profile(invocation.function);

    // 1. Warm path: startability-aware scan over all of the function's
    //    warm containers, preferring an uncompressed startable one
    //    (zero startup) over a compressed startable one. The old code
    //    trusted findWarm's single pick and went cold whenever that
    //    container's node had a busy core or no memory, even with
    //    another immediately usable warm container on a sibling node.
    const auto& warmIds = cluster_.warmFor(invocation.function);
    const bool hadContainer = !warmIds.empty();
    cluster::ContainerId startable = cluster::kInvalidContainer;
    bool startableCompressed = false;
    // Blocked-container diagnostics: core-busy is only claimed when
    // every blocked container was blocked by its core; one memory-
    // blocked container makes the whole miss a no-memory miss (memory
    // is the scarcer, policy-actionable resource).
    bool allBlockedByCore = true;
    for (const ContainerId warmId : warmIds) {
        const cluster::WarmContainer& container =
            cluster_.warm(warmId);
        const cluster::Node& node = cluster_.node(container.node);
        const bool coreFree = node.freeCores() >= 1;
        // Consuming the container releases its held memory; the
        // execution then needs the full footprint.
        const bool memoryFits =
            node.freeMemoryMb() + container.memoryMb + 1e-6 >=
            profile.memoryMb;
        if (coreFree && memoryFits) {
            if (!container.compressed) {
                startable = warmId;
                startableCompressed = false;
                break; // best case: zero-startup warm start
            }
            if (startable == cluster::kInvalidContainer) {
                startable = warmId;
                startableCompressed = true;
            }
        } else if (!coreFree && memoryFits) {
            // core-blocked; keeps allBlockedByCore true
        } else {
            allBlockedByCore = false;
        }
    }
    if (startable != cluster::kInvalidContainer) {
        const cluster::WarmContainer& container =
            cluster_.warm(startable);
        const NodeId nodeId = container.node;
        const NodeType type = cluster_.node(nodeId).type;
        consumeWarm(startable);
        const Seconds startup = startableCompressed
            ? profile.decompress[static_cast<int>(type)]
            : 0.0;
        startExecution(invocation, nodeId,
                       startableCompressed ? StartType::WarmCompressed
                                           : StartType::Warm,
                       startup, attempt);
        return true;
    }

    // 2. Snapshot path: a resident snapshot beats a cold start when
    //    its restore time is favorable on the hosting node's type.
    //    Restoring does NOT consume the snapshot — it stays resident —
    //    but the execution needs a free core and the full footprint on
    //    the snapshot's node.
    for (const cluster::SnapshotId snapId :
         cluster_.snapshotsFor(invocation.function)) {
        const cluster::SnapshotRecord& snap = cluster_.snapshot(snapId);
        const cluster::Node& node = cluster_.node(snap.node);
        if (node.down || node.freeCores() < 1 ||
            node.freeMemoryMb() + 1e-6 < profile.memoryMb)
            continue;
        if (!profile.snapshotFavorable(node.type))
            continue;
        cluster_.noteSnapshotUsed(snapId, queue_.now());
        startExecution(
            invocation, snap.node, StartType::Snapshot,
            profile.restore[static_cast<int>(node.type)], attempt);
        return true;
    }

    // 3. Cold path: policy picks the architecture; fall back to the
    //    other one when the preferred side is full.
    const NodeType preferred = timedDecision(
        [&] { return policy_.coldPlacement(invocation.function); });
    const NodeType other = preferred == NodeType::X86 ? NodeType::ARM
                                                      : NodeType::X86;
    if (!hadContainer)
        ++result_.coldNoContainer;
    else if (allBlockedByCore)
        ++result_.coldContainerCoreBusy;
    else
        ++result_.coldContainerNoMemory;
    for (NodeType type : {preferred, other}) {
        if (const auto nodeId = cluster_.pickNodeForExec(
                type, profile.memoryMb, queue_.now())) {
            startExecution(
                invocation, *nodeId, StartType::Cold,
                profile.coldStart[static_cast<int>(type)], attempt);
            return true;
        }
    }

    // 4. Reclaim path: no node fits, but idle warm containers are
    //    expendable — executions always outrank keep-alive. Walk the
    //    candidate nodes in descending reclaimable order (the old code
    //    gave up after the single best node even when the policy
    //    vetoed its victims and a sibling node could be reclaimed).
    for (NodeType type : {preferred, other}) {
        for (const NodeId nodeId :
             pickNodesWithReclaim(type, profile)) {
            if (reclaimFor(nodeId, profile.memoryMb)) {
                const NodeType actual = cluster_.node(nodeId).type;
                startExecution(
                    invocation, nodeId, StartType::Cold,
                    profile.coldStart[static_cast<int>(actual)],
                    attempt);
                return true;
            }
            ++result_.reclaimFailed;
        }
    }
    return false;
}

std::vector<NodeId>
Driver::pickNodesWithReclaim(
    NodeType type, const trace::FunctionProfile& profile) const
{
    // Same two-pass domain deprioritization as the cluster's pick
    // functions: prefer nodes outside recently-faulted domains, fall
    // back to any up node so capacity is never left on the table.
    // All qualifying nodes are returned, best reclaimable first, so
    // the caller can keep trying when the policy vetoes victims on
    // the top candidate.
    const bool applyCooldown =
        cluster_.numDomains() > 1 &&
        cluster_.config().domainCooldownSeconds > 0.0;
    for (int pass = applyCooldown ? 0 : 1; pass < 2; ++pass) {
        std::vector<std::pair<MegaBytes, NodeId>> candidates;
        for (const auto& node : cluster_.nodes()) {
            if (node.down || node.type != type ||
                node.freeCores() < 1)
                continue;
            if (pass == 0 &&
                cluster_.domainCoolingDown(node.domain,
                                           queue_.now()))
                continue;
            const MegaBytes reclaimable =
                node.freeMemoryMb() + node.warmMemoryMb;
            if (reclaimable + 1e-6 >= profile.memoryMb)
                candidates.emplace_back(reclaimable, node.id);
        }
        if (!candidates.empty()) {
            std::sort(candidates.begin(), candidates.end(),
                      [](const auto& a, const auto& b) {
                          if (a.first != b.first)
                              return a.first > b.first;
                          return a.second < b.second;
                      });
            std::vector<NodeId> ordered;
            ordered.reserve(candidates.size());
            for (const auto& [reclaimable, id] : candidates)
                ordered.push_back(id);
            return ordered;
        }
    }
    return {};
}

bool
Driver::reclaimFor(NodeId nodeId, MegaBytes neededMb)
{
    while (cluster_.node(nodeId).freeMemoryMb() + 1e-6 < neededMb) {
        const MegaBytes missing =
            neededMb - cluster_.node(nodeId).freeMemoryMb();
        // Policy gets first refusal on victim choice.
        cluster::ContainerId victim = cluster::kInvalidContainer;
        const auto choice = timedDecision(
            [&] { return policy_.pickVictim(nodeId, missing); });
        if (choice && cluster_.warm(*choice).node == nodeId)
            victim = *choice;
        if (victim == cluster::kInvalidContainer) {
            // Fall back: the longest-idle warm container on the node.
            Seconds oldest = 1e300;
            for (const auto& [id, container] : cluster_.warmPool()) {
                if (container.node == nodeId &&
                    container.since < oldest) {
                    oldest = container.since;
                    victim = id;
                }
            }
        }
        if (victim == cluster::kInvalidContainer)
            return false; // nothing left to reclaim
        ++result_.endEvictedForExec;
        evictContainer(victim);
    }
    return true;
}

void
Driver::startExecution(const Invocation& invocation, NodeId nodeId,
                       StartType start, Seconds startupLatency,
                       int attempt)
{
    const auto& profile = workload_.profile(invocation.function);
    const NodeType type = cluster_.node(nodeId).type;
    const std::size_t entry = claimCore(nodeId, invocation, attempt);

    // Transient failure? A pure hash decision (no RNG draw), so a
    // zero failure rate leaves the noise stream — and therefore the
    // whole schedule — untouched.
    if (faultPlan_.invocationFails(attemptSeq_++)) {
        // The doomed attempt holds its core and memory only until the
        // platform notices, then retries with backoff. No record is
        // emitted; the eventual success accounts the full wait.
        inFlight_[entry].finish = queue_.scheduleAfter(
            config_.failureDetectSeconds, [this, entry] {
                const InFlight failed = releaseCore(entry);
                if (trace_ && traceKeep(failed.invocation.function))
                    emitCoreSlice(entry, failed,
                                  obs::TraceEvent::Kind::AttemptFailed,
                                  0); // transient failure
                failAttempt(failed.invocation, failed.attempt);
                drainWaitQueue();
            });
        return;
    }

    const double noise = config_.execNoiseSigma > 0.0
        ? std::exp(rng_.normal(0.0, config_.execNoiseSigma))
        : 1.0;
    const Seconds execTime =
        profile.execTime(type, invocation.inputScale) * noise;

    InvocationRecord record;
    record.function = invocation.function;
    record.arrival = invocation.arrival;
    // Includes any retry backoff: wait is measured from the original
    // arrival, not from the retry that finally succeeded.
    record.wait = queue_.now() - invocation.arrival;
    record.startup = startupLatency;
    record.exec = execTime;
    record.start = start;
    record.nodeType = type;

    inFlight_[entry].finish = queue_.scheduleAfter(
        startupLatency + execTime, [this, entry, record] {
            const InFlight done = releaseCore(entry);
            // Emission waits for completion so a crash-killed
            // execution can be drawn with its true length.
            if (trace_)
                emitInvocationTrace(entry, done, record);
            handleFinish(nodeOf(entry), record);
        });
}

void
Driver::handleFinish(NodeId nodeId, const InvocationRecord& record)
{
    result_.metrics.record(record);

    const KeepAliveDecision decision =
        timedDecision([&] { return policy_.onFinish(record); });
    // Waiting executions get the freed capacity before the keep-alive
    // does: executions always outrank keep-alive (the same priority
    // the reclaim path enforces).
    drainWaitQueue();
    applyDecision(record.function, nodeId, record.nodeType, decision);
}

void
Driver::applyDecision(FunctionId function, NodeId nodeId,
                      NodeType execType,
                      const KeepAliveDecision& decision)
{
    const NodeType target = decision.warmupLocation.value_or(execType);
    // Snapshot residency is orthogonal to the warm keep: it is ensured
    // even when the container itself is dropped (snapshot-only mode).
    if (decision.snapshot)
        requestSnapshot(function, target);
    if (decision.keepAliveSeconds <= 0.0)
        return;
    if (target != execType) {
        // Cross-architecture warmup: cold-start a container on the
        // target side off the critical path.
        requestPrewarm(function, target, decision.keepAliveSeconds);
        return;
    }

    const auto& profile = workload_.profile(function);
    if (cluster_.warmHeadroomMb(nodeId) + 1e-6 < profile.memoryMb) {
        // Ask the policy for victims until the container fits in the
        // node's keep-alive reservation.
        while (cluster_.warmHeadroomMb(nodeId) + 1e-6 <
               profile.memoryMb) {
            const MegaBytes missing =
                profile.memoryMb - cluster_.warmHeadroomMb(nodeId);
            const auto victim = timedDecision([&] {
                return policy_.pickVictim(nodeId, missing);
            });
            if (!victim) {
                ++result_.keepDropped;
                return; // policy declined; drop the container
            }
            const auto& v = cluster_.warm(*victim);
            if (v.node != nodeId) {
                ++result_.keepDropped;
                return; // invalid victim; drop
            }
            ++result_.endEvictedForKeep;
            evictContainer(*victim);
        }
    }
    addWarmContainer(function, nodeId, decision.keepAliveSeconds,
                     decision.compress);
}

void
Driver::addWarmContainer(FunctionId function, NodeId nodeId,
                         Seconds keepAliveSeconds, bool compress)
{
    const auto& profile = workload_.profile(function);
    // The keep-alive window is a commitment: its full cost is charged
    // to the ledger up front and the unspent remainder refunded if the
    // container is consumed, evicted, or shrunk before expiry.
    const ContainerId id = cluster_.addWarm(
        nodeId, function, profile.memoryMb, false, queue_.now(),
        queue_.now() + keepAliveSeconds);
    WarmEvents events;
    events.expiry = queue_.scheduleAfter(
        keepAliveSeconds, [this, id] {
            ++result_.endExpired;
            evictContainer(id);
            drainWaitQueue();
        });
    warmEvents_.emplace(id, std::move(events));
    if (compress)
        scheduleCompression(id);
}

void
Driver::scheduleCompression(ContainerId id)
{
    const cluster::WarmContainer& container = cluster_.warm(id);
    const auto& profile = workload_.profile(container.function);
    if (container.compressed)
        return;
    auto& events = warmEvents_.at(id);
    if (events.compressFinish.pending())
        return;
    const NodeType type = cluster_.node(container.node).type;
    const Seconds compressTime =
        profile.compressTime[static_cast<int>(type)];
    events.compressFinish = queue_.scheduleAfter(
        compressTime, [this, id, compressTime] {
            const auto& c = cluster_.warm(id);
            const auto& p = workload_.profile(c.function);
            // Only shrink if compression actually helps the footprint.
            const MegaBytes newMb = std::min(p.compressedMb, c.memoryMb);
            if (trace_) {
                obs::TraceEvent event;
                event.kind = obs::TraceEvent::Kind::Compress;
                event.tid = bgTid(c.node);
                event.a = c.function;
                event.x = compressTime;
                event.ts = queue_.now();
                trace_->emit(event);
            }
            cluster_.resizeWarm(id, newMb, true, queue_.now());
            result_.metrics.recordCompression(queue_.now());
            drainWaitQueue();
        });
}

Dollars
Driver::evictContainer(ContainerId id, bool byFault)
{
    auto it = warmEvents_.find(id);
    if (it == warmEvents_.end())
        return 0.0; // already gone
    it->second.expiry.cancel();
    it->second.compressFinish.cancel();
    warmEvents_.erase(it);
    const cluster::WarmContainer removed =
        cluster_.removeWarm(id, queue_.now());
    const Dollars refund = removed.unspentCommitmentDollars();
    result_.metrics.recordRefund(queue_.now(), refund, byFault);
    return refund;
}

cluster::WarmContainer
Driver::consumeWarm(ContainerId id)
{
    auto it = warmEvents_.find(id);
    if (it == warmEvents_.end())
        panic("Driver: consuming container without events");
    it->second.expiry.cancel();
    it->second.compressFinish.cancel();
    warmEvents_.erase(it);
    ++result_.endConsumed;
    cluster::WarmContainer removed =
        cluster_.removeWarm(id, queue_.now());
    result_.metrics.recordRefund(queue_.now(),
                                 removed.unspentCommitmentDollars(),
                                 false);
    return removed;
}

bool
Driver::requestPrewarm(FunctionId function, NodeType type,
                       Seconds keepAliveSeconds)
{
    const auto& profile = workload_.profile(function);
    const auto nodeId = cluster_.pickNodeForExec(
        type, profile.memoryMb, queue_.now());
    if (!nodeId)
        return false;
    // The cold start runs on the target node (core + memory busy),
    // then the container becomes warm. Registered so a crash of the
    // node mid-start can cancel it and reclaim the resources.
    const std::size_t entry =
        claimCore(*nodeId, Invocation{function}, 0);
    ++prewarmsIssued_;
    if (inRecoveryHook_)
        ++result_.rePrewarmsIssued;
    const Seconds coldStart =
        profile.coldStart[static_cast<int>(type)];
    inFlight_[entry].finish = queue_.scheduleAfter(
        coldStart, [this, entry, keepAliveSeconds] {
            const InFlight done = releaseCore(entry);
            const NodeId node = nodeOf(entry);
            const FunctionId fn = done.invocation.function;
            const bool fits = cluster_.warmHeadroomMb(node) + 1e-6 >=
                workload_.profile(fn).memoryMb;
            if (trace_)
                emitCoreSlice(entry, done,
                              obs::TraceEvent::Kind::Prewarm,
                              fits ? 0 : 2); // 2 = dropped, no headroom
            if (fits) {
                addWarmContainer(fn, node, keepAliveSeconds, false);
            } else {
                // The warm reservation shrank during the cold start;
                // the finished container has nowhere to live. Count
                // it — silently vanishing prewarms made the prewarm
                // budget look better than it was.
                result_.metrics.recordPrewarmDropped();
            }
            drainWaitQueue();
        });
    return true;
}

// --- fault injection ---------------------------------------------------

void
Driver::handleFault(const faults::FaultEvent& event)
{
    // Domain and per-node schedules are generated independently, so
    // their outages may overlap: a crash of an already-down node and
    // a recovery of an already-up node are defined no-ops.
    switch (event.kind) {
      case faults::FaultKind::NodeCrash:
        if (!cluster_.node(event.node).down)
            crashNode(event.node);
        break;
      case faults::FaultKind::NodeRecover:
        if (cluster_.node(event.node).down)
            recoverNode(event.node);
        break;
      case faults::FaultKind::MemoryShock:
        memoryShock(event.node);
        break;
    }
}

void
Driver::crashNode(NodeId nodeId)
{
    const Seconds now = queue_.now();
    // Fleet-wide warm level just before the crash: handleTick measures
    // how long the pool takes to climb back to (95% of) this level.
    const MegaBytes preCrashWarm = cluster_.totalWarmMemoryMb();

    // The warm pool on the node is lost with it. Remember what was
    // lost (one entry per container, in container-id order) so the
    // policy can re-prewarm the valuable ones on recovery; the unspent
    // keep-alive commitments come back as fault refunds.
    auto warmIds = cluster_.warmOnNode(nodeId);
    std::sort(warmIds.begin(), warmIds.end());
    std::vector<FunctionId> lostFunctions;
    lostFunctions.reserve(warmIds.size());
    for (const ContainerId id : warmIds) {
        lostFunctions.push_back(cluster_.warm(id).function);
        ++result_.endEvictedByFault;
        evictContainer(id, /*byFault=*/true);
    }

    // In-flight work on the node fails: executions retry with
    // backoff, prewarm cold starts are simply dropped. Executions go
    // first, then prewarms, each in creation (`seq`) order.
    std::vector<std::tuple<bool, std::uint64_t, std::size_t>> victims;
    const std::size_t first = nodeId * coresPerNode();
    for (std::size_t index = first; index < first + coresPerNode();
         ++index) {
        const InFlight& work = inFlight_[index];
        if (work.seq != 0)
            victims.emplace_back(work.attempt == 0, work.seq, index);
    }
    std::sort(victims.begin(), victims.end());
    for (const auto& [prewarm, seq, index] : victims) {
        InFlight failed = releaseCore(index);
        failed.finish.cancel();
        if (prewarm) {
            if (trace_)
                emitCoreSlice(index, failed,
                              obs::TraceEvent::Kind::Prewarm,
                              1); // killed by node crash
            continue;
        }
        if (trace_ && traceKeep(failed.invocation.function))
            emitCoreSlice(index, failed,
                          obs::TraceEvent::Kind::AttemptFailed,
                          1); // killed by node crash
        failAttempt(failed.invocation, failed.attempt);
    }

    // Resident snapshots live on the node's local storage and die
    // with it; unlike warm containers they carry no commitment to
    // refund, only their accrued storage cost.
    auto snapIds = cluster_.snapshotsOnNode(nodeId);
    std::sort(snapIds.begin(), snapIds.end());
    for (const cluster::SnapshotId id : snapIds) {
        cluster_.removeSnapshot(id, now);
        ++result_.snapshotsLostToCrash;
    }

    // Fully drained; the capacity invariants must hold through this.
    cluster_.markDown(nodeId);
    cluster_.noteDomainFault(cluster_.domainOf(nodeId), now);
    result_.metrics.noteNodeDown(
        now,
        cluster_.numDomains() > 1 ? cluster_.domainOf(nodeId) : -1);
    ++result_.nodeCrashes;
    if (trace_) {
        obs::TraceEvent event;
        event.kind = obs::TraceEvent::Kind::NodeCrash;
        event.tid = bgTid(nodeId);
        event.ts = now;
        trace_->emit(event);
    }

    if (preCrashWarm > 0.0) {
        if (!warmRecoveryPending_) {
            warmRecoveryPending_ = true;
            warmRecoveryStart_ = now;
            warmRecoveryTargetMb_ = preCrashWarm;
        } else {
            // Overlapping crashes: keep the highest target.
            warmRecoveryTargetMb_ =
                std::max(warmRecoveryTargetMb_, preCrashWarm);
        }
    }

    timedDecision([&] {
        CC_PHASE("policy.onNodeCrash");
        policy_.onNodeCrash(nodeId, lostFunctions, now);
    });
}

void
Driver::recoverNode(NodeId nodeId)
{
    cluster_.recover(nodeId);
    result_.metrics.noteNodeUp(
        queue_.now(),
        cluster_.numDomains() > 1 ? cluster_.domainOf(nodeId) : -1);
    ++result_.nodeRecoveries;
    if (trace_) {
        obs::TraceEvent event;
        event.kind = obs::TraceEvent::Kind::NodeRecover;
        event.tid = bgTid(nodeId);
        event.ts = queue_.now();
        trace_->emit(event);
    }
    // Fault-reactive warmup: the policy may re-prewarm the functions
    // the crash evicted, now that capacity is back. Prewarms issued
    // from inside this hook are counted as re-prewarms.
    inRecoveryHook_ = true;
    timedDecision([&] {
        CC_PHASE("policy.onNodeRecover");
        policy_.onNodeRecover(nodeId, queue_.now());
    });
    inRecoveryHook_ = false;
    drainWaitQueue();
}

void
Driver::memoryShock(NodeId nodeId)
{
    const cluster::Node& node = cluster_.node(nodeId);
    if (node.down || node.warmMemoryMb <= 0.0)
        return;
    const MegaBytes keepMb = node.warmMemoryMb *
        (1.0 - faultPlan_.config().memoryShockFraction);
    auto ids = cluster_.warmOnNode(nodeId);
    // Oldest first: external memory pressure reclaims the pages least
    // recently touched.
    std::sort(ids.begin(), ids.end(),
              [this](ContainerId a, ContainerId b) {
                  const Seconds sa = cluster_.warm(a).since;
                  const Seconds sb = cluster_.warm(b).since;
                  if (sa != sb)
                      return sa < sb;
                  return a < b;
              });
    std::uint32_t evicted = 0;
    for (const ContainerId id : ids) {
        if (cluster_.node(nodeId).warmMemoryMb <= keepMb + 1e-6)
            break;
        ++result_.endEvictedByFault;
        ++evicted;
        evictContainer(id, /*byFault=*/true);
    }
    cluster_.noteDomainFault(cluster_.domainOf(nodeId),
                             queue_.now());
    ++memoryShocks_;
    if (trace_) {
        obs::TraceEvent event;
        event.kind = obs::TraceEvent::Kind::MemoryShock;
        event.tid = bgTid(nodeId);
        event.a = evicted;
        event.ts = queue_.now();
        trace_->emit(event);
    }
}

void
Driver::failAttempt(const Invocation& invocation, int attempt)
{
    result_.metrics.recordFailedAttempt(queue_.now());
    if (attempt > config_.maxRetries) {
        result_.metrics.recordPermanentFailure();
        // Give the abandoned invocation a visible wait slice: the
        // trace should show where time went even for work that never
        // completed.
        if (trace_ && traceKeep(invocation.function))
            emitWaitTrace(invocation, attempt, invocation.arrival,
                          queue_.now());
        return;
    }
    result_.metrics.recordRetry();
    ++pendingRetries_;
    const Seconds delay = faults::retryBackoff(
        attempt, config_.retryBackoffBase, config_.retryBackoffCap);
    queue_.scheduleAfter(delay, [this, invocation, attempt] {
        --pendingRetries_;
        // Retries re-enter admission directly: the policy already saw
        // this invocation arrive once, and re-announcing it would skew
        // the per-function arrival statistics.
        if (!tryStart(invocation, attempt + 1))
            waitQueue_.push_back({invocation, attempt + 1});
    });
}

void
Driver::requestEvict(FunctionId function)
{
    while (const auto id = cluster_.findWarm(function)) {
        ++result_.endEvictedByPolicy;
        evictContainer(*id);
    }
}

void
Driver::requestCompress(FunctionId function)
{
    // Collect ids first: scheduleCompression does not mutate the pool,
    // but be defensive about iteration order.
    std::vector<ContainerId> ids;
    for (const auto& [id, container] : cluster_.warmPool()) {
        if (container.function == function && !container.compressed)
            ids.push_back(id);
    }
    for (ContainerId id : ids)
        scheduleCompression(id);
}

void
Driver::requestSetKeepAlive(FunctionId function,
                            Seconds keepAliveSeconds)
{
    std::vector<ContainerId> ids;
    for (const auto& [id, container] : cluster_.warmPool()) {
        if (container.function == function)
            ids.push_back(id);
    }
    for (ContainerId id : ids) {
        auto& events = warmEvents_.at(id);
        events.expiry.cancel();
        if (keepAliveSeconds <= 0.0) {
            ++result_.endEvictedByPolicy;
            evictContainer(id);
        } else {
            events.expiry = queue_.scheduleAfter(
                keepAliveSeconds, [this, id] {
                    evictContainer(id);
                    drainWaitQueue();
                });
            // Keep the commitment ledger in step with the new expiry.
            cluster_.recommitWarm(
                id, queue_.now() + keepAliveSeconds, queue_.now());
        }
    }
}

bool
Driver::requestSnapshot(FunctionId function, NodeType type)
{
    const auto& profile = workload_.profile(function);
    if (profile.snapshotMb <= 0.0)
        return false;
    // One resident snapshot per function is enough: restores do not
    // consume it, so a single image serves every future invocation on
    // its node. Also dedupe against an in-flight creation.
    if (cluster_.snapshotCount(function) > 0 ||
        pendingSnapshotCreates_.count(function) > 0)
        return true;

    // Host choice: the up node of the requested type with the most
    // free snapshot storage (ties to the lowest id), so images spread
    // instead of piling eviction pressure onto one node's disk.
    const MegaBytes budget = cluster_.config().snapshotStoragePerNodeMb;
    std::optional<NodeId> best;
    MegaBytes bestFree = -1.0;
    for (const auto& node : cluster_.nodes()) {
        if (node.down || node.type != type)
            continue;
        const MegaBytes freeStorage = budget - node.snapshotStorageMb;
        if (freeStorage > bestFree + 1e-6) {
            bestFree = freeStorage;
            best = node.id;
        }
    }
    if (!best)
        return false;

    // Creation is a background disk write: it holds no core and no
    // memory (the snapshot is cut from the just-finished container's
    // pages), it just takes snapshotCreate seconds before the image
    // becomes restorable.
    pendingSnapshotCreates_.insert(function);
    const NodeId nodeId = *best;
    queue_.scheduleAfter(
        profile.snapshotCreate[static_cast<int>(type)],
        [this, function, nodeId] {
            pendingSnapshotCreates_.erase(function);
            if (cluster_.node(nodeId).down) {
                ++result_.snapshotCreatesDropped; // crashed mid-write
                return;
            }
            const auto& p = workload_.profile(function);
            if (cluster_.addSnapshot(nodeId, function, p.snapshotMb,
                                     queue_.now()))
                ++result_.snapshotsCreated;
            else
                ++result_.snapshotCreatesDropped; // image exceeds the budget
        });
    return true;
}

void
Driver::requestDropSnapshots(FunctionId function)
{
    // Copy first: removeSnapshot mutates the per-function list.
    const std::vector<cluster::SnapshotId> ids =
        cluster_.snapshotsFor(function);
    for (const cluster::SnapshotId id : ids)
        cluster_.removeSnapshot(id, queue_.now());
}

void
Driver::handleTick()
{
    CC_PHASE("driver.tick");
    const Seconds now = queue_.now();
    cluster_.accrueAll(now);
    ++ticksProcessed_;
    if (trace_) {
        obs::TraceEvent event;
        event.kind = obs::TraceEvent::Kind::Tick;
        event.tid = obs::kControllerTrack;
        event.a = static_cast<std::uint32_t>(waitQueue_.size());
        event.x = cluster_.totalWarmMemoryMb();
        event.ts = now;
        trace_->emit(event);
    }
    result_.metrics.snapshotMinute(now, cluster_.totalWarmMemoryMb(),
                                   cluster_.keepAliveSpend());
    // Interval flows: snapshot on the first tick at or past each
    // boundary, so the effective interval rounds up to a multiple of
    // tickInterval. Pure observation of sim-deterministic state.
    if (config_.statsIntervalSeconds > 0.0) {
        if (nextIntervalEnd_ <= 0.0)
            nextIntervalEnd_ = config_.statsIntervalSeconds;
        if (now + 1e-9 >= nextIntervalEnd_) {
            snapshotInterval(now);
            nextIntervalEnd_ = now + config_.statsIntervalSeconds;
        }
    }
    if (warmRecoveryPending_ &&
        cluster_.totalWarmMemoryMb() >=
            0.95 * warmRecoveryTargetMb_) {
        result_.metrics.recordWarmRecovery(now - warmRecoveryStart_);
        warmRecoveryPending_ = false;
    }
    if (config_.tickObserver)
        config_.tickObserver(now);
    timedDecision([&] {
        CC_PHASE("policy.onTick");
        policy_.onTick(now);
    });
    if (!drained() &&
        now <= lastArrivalTime_ + config_.drainGrace) {
        queue_.scheduleAfter(config_.tickInterval,
                             [this] { handleTick(); });
    }
}

void
Driver::drainWaitQueue()
{
    while (!waitQueue_.empty()) {
        const Waiter& waiter = waitQueue_.front();
        if (!tryStart(waiter.invocation, waiter.attempt))
            break;
        waitQueue_.pop_front();
    }
}

bool
Driver::drained() const
{
    return arrivalsProcessed_ >= workload_.invocations.size() &&
           waitQueue_.empty() && running_ == 0 &&
           pendingRetries_ == 0 && cluster_.warmPool().empty();
}

} // namespace codecrunch::experiments
