/**
 * @file
 * Heterogeneous worker-node cluster state machine.
 *
 * Models the paper's testbed: a fleet of x86 (AWS m5-like) and ARM (AWS
 * t4g-like) worker nodes, each with a fixed core and memory capacity.
 * Running containers occupy one core plus the function's full memory
 * footprint; warm containers occupy memory only (full footprint when
 * uncompressed, the compressed image size when compressed). Keep-alive
 * cost accrues per warm container as
 *     rate(nodeType) x memory_held x duration
 * with rate = node $/hour / node memory / 3600 — i.e. keeping a node's
 * whole memory warm for an hour costs the node's hourly price, the
 * paper's proportionality rule.
 *
 * The Cluster is a passive state machine: the simulation driver owns the
 * event queue and calls these methods with explicit timestamps. Every
 * mutation validates capacity invariants and panics on violation, so
 * scheduler bugs surface immediately.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "trace/workload.hpp"

namespace codecrunch::cluster {

/** Identifier of a (warm or running) container instance. */
using ContainerId = std::uint64_t;

/** Sentinel for "no container". */
inline constexpr ContainerId kInvalidContainer = UINT64_MAX;

/**
 * Cluster sizing and pricing configuration.
 *
 * Defaults reproduce the paper's setup (Sec. 4): 13 x86 + 18 ARM nodes,
 * 8 cores / 32 GB each, $0.384/h (m5) vs $0.2688/h (t4g).
 */
struct ClusterConfig {
    int numX86 = 13;
    int numArm = 18;
    int coresPerNode = 8;
    MegaBytes memoryPerNodeMb = 32 * 1024;
    Dollars x86CostPerHour = 0.384;
    Dollars armCostPerHour = 0.2688;
    /**
     * Fraction of each node's memory available for warm containers
     * (1.0 = all of it; Fig. 1 uses 0.1 to model a 10% keep-alive
     * reservation).
     */
    double keepAliveMemoryFraction = 1.0;

    /**
     * Failure domains (racks/zones): nodes are striped across domains
     * by id (faultDomainOf), so each domain mixes x86 and ARM
     * capacity. <= 1 means no domain structure (every node in domain
     * 0, all per-domain machinery disabled).
     */
    int numFaultDomains = 0;
    /**
     * After a fault hits a domain, placement prefers nodes outside it
     * for this many seconds (deprioritize, never exclude: a cooling
     * domain is still used when nothing else fits). 0 disables.
     */
    Seconds domainCooldownSeconds = 0.0;

    /**
     * Local snapshot storage budget per node (MB). Snapshots live on
     * node-local disk, separate from warm memory; adding one past the
     * budget evicts least-recently-used snapshots on that node.
     */
    MegaBytes snapshotStoragePerNodeMb = 64 * 1024;
    /**
     * Snapshot storage cost rate as a fraction of the node's keep-alive
     * memory rate (disk byte-seconds are far cheaper than DRAM
     * byte-seconds; 0.02 models local NVMe at ~2% of memory cost).
     */
    double snapshotStorageCostFactor = 0.02;
};

/** Live state of one worker node. */
struct Node {
    NodeId id = kInvalidNode;
    NodeType type = NodeType::X86;
    /** Failure domain (rack/zone) this node belongs to. */
    int domain = 0;
    int cores = 8;
    MegaBytes memoryMb = 32 * 1024;
    /** Keep-alive cost rate in $/ (MB * second). */
    double costRatePerMbSecond = 0.0;

    int coresUsed = 0;
    /** Memory used by running containers. */
    MegaBytes execMemoryMb = 0;
    /** Memory used by warm (idle) containers. */
    MegaBytes warmMemoryMb = 0;
    /** Node-local disk used by resident snapshots (MB). */
    MegaBytes snapshotStorageMb = 0;
    /** True while the node is crashed (fault injection). */
    bool down = false;

    bool up() const { return !down; }

    MegaBytes
    freeMemoryMb() const
    {
        return memoryMb - execMemoryMb - warmMemoryMb;
    }

    int freeCores() const { return cores - coresUsed; }
};

/** One warm (idle, kept-alive) container. */
struct WarmContainer {
    ContainerId id = kInvalidContainer;
    FunctionId function = kInvalidFunction;
    NodeId node = kInvalidNode;
    /** Memory currently held on the node. */
    MegaBytes memoryMb = 0;
    /** True once the image has been compressed in place. */
    bool compressed = false;
    /** When the container became warm. */
    Seconds since = 0.0;
    /** Last time keep-alive cost was accrued. */
    Seconds lastAccrual = 0.0;
    /**
     * Crash-consistent budget ledger: the end of this container's
     * keep-alive commitment window (< 0 when no commitment was
     * recorded), the dollars committed for it up front, and the
     * dollars actually accrued so far. removeWarm() refunds
     * max(0, committed - accrued) — eviction by a crash or shock
     * returns the unspent remainder exactly like warm-start
     * consumption does.
     */
    Seconds committedUntil = -1.0;
    Dollars committedDollars = 0.0;
    Dollars accruedDollars = 0.0;

    /** Unspent remainder of the recorded commitment. */
    Dollars
    unspentCommitmentDollars() const
    {
        return committedUntil < 0.0
            ? 0.0
            : std::max(0.0, committedDollars - accruedDollars);
    }
};

/** Identifier of a resident function snapshot. */
using SnapshotId = std::uint64_t;

/** Sentinel for "no snapshot". */
inline constexpr SnapshotId kInvalidSnapshot = UINT64_MAX;

/**
 * One resident function snapshot on node-local disk. Unlike a warm
 * container, a snapshot is not consumed by a start: restoring from it
 * leaves it resident, so one snapshot serves any number of restores
 * until storage pressure or an explicit drop evicts it.
 */
struct SnapshotRecord {
    SnapshotId id = kInvalidSnapshot;
    FunctionId function = kInvalidFunction;
    NodeId node = kInvalidNode;
    /** Snapshot file size on disk (MB). */
    MegaBytes sizeMb = 0;
    /** When the snapshot became resident. */
    Seconds since = 0.0;
    /** Last restore from this snapshot (LRU eviction key). */
    Seconds lastUsed = 0.0;
    /** Last time storage cost was accrued. */
    Seconds lastAccrual = 0.0;
};

/**
 * The heterogeneous cluster.
 */
class Cluster
{
  public:
    explicit Cluster(const ClusterConfig& config);

    const ClusterConfig& config() const { return config_; }
    const std::vector<Node>& nodes() const { return nodes_; }
    const Node& node(NodeId id) const { return nodes_.at(id); }

    // --- node lifecycle (fault injection) -----------------------------

    /**
     * Take a node down. The caller (the simulation driver) must have
     * drained it first — every warm container evicted and every
     * running execution released — so the capacity invariants survive
     * the crash; panics otherwise, and on a double crash. While down,
     * the node is invisible to pickNodeForExec, its
     * warm headroom is zero, and reserving resources on it panics.
     */
    void markDown(NodeId id);

    /** Bring a crashed node back (empty and cold); panics if up. */
    void recover(NodeId id);

    /** Number of nodes currently down. */
    int downNodes() const { return downNodes_; }

    /** Ids of all warm containers held on `node` (unordered). */
    std::vector<ContainerId> warmOnNode(NodeId node) const;

    // --- failure domains ----------------------------------------------

    /** Number of failure domains (at least 1). */
    int numDomains() const { return numDomains_; }

    /** Failure domain of a node. */
    int domainOf(NodeId id) const { return nodes_.at(id).domain; }

    /**
     * Record that a fault (crash or shock) just hit `domain`:
     * placement deprioritizes its nodes for the configured cooldown.
     */
    void noteDomainFault(int domain, Seconds now);

    /**
     * True while `domain` is inside the post-fault placement cooldown
     * (always false with cooldown disabled or no domain structure).
     */
    bool domainCoolingDown(int domain, Seconds now) const;

    /** Node count per domain (index = domain). */
    std::vector<std::size_t> nodesPerDomain() const;

    // --- execution resources -----------------------------------------

    /**
     * Pick the node of `type` best able to run `memoryMb` more (one
     * core + memory): the feasible node with the most free memory.
     * When a placement cooldown is configured, nodes outside domains
     * faulted shortly before `now` are preferred; cooling domains are
     * only used when nothing else fits.
     * @return node id, or nullopt if no node of that type fits.
     */
    std::optional<NodeId>
    pickNodeForExec(NodeType type, MegaBytes memoryMb,
                    Seconds now) const;

    /** Reserve one core + memory on a node (start of an execution). */
    void reserveExec(NodeId id, MegaBytes memoryMb);

    /** Release one core + memory on a node (end of an execution). */
    void releaseExec(NodeId id, MegaBytes memoryMb);

    // --- warm-container pool ------------------------------------------

    /**
     * Register a warm container holding `memoryMb` on `node`. When
     * `commitUntil` >= now, the full keep-alive commitment
     * rate x memoryMb x (commitUntil - now) is charged to the
     * commitment ledger up front; removeWarm() later refunds whatever
     * the container did not actually accrue. `commitUntil < 0` (the
     * default) records no commitment (legacy/test call sites).
     * @return the new container's id.
     */
    ContainerId
    addWarm(NodeId node, FunctionId function, MegaBytes memoryMb,
            bool compressed, Seconds now, Seconds commitUntil = -1.0);

    /**
     * Re-anchor a container's commitment window at `newCommitUntil`
     * (the policy extended or shortened its keep-alive): accrues to
     * `now`, then adjusts the committed dollars to
     * accrued + rate x memory x (newCommitUntil - now). The ledger
     * books the delta, which may be negative — a shortened window
     * returns commitment without counting as a refund.
     */
    void recommitWarm(ContainerId id, Seconds newCommitUntil,
                      Seconds now);

    /**
     * Remove a warm container, accruing its final keep-alive cost and
     * refunding the unspent remainder of its commitment (if one was
     * recorded) to the ledger.
     * @return the removed container (by value, with final accrual and
     *         commitment fields filled in — the caller can read the
     *         refund off unspentCommitmentDollars()).
     */
    WarmContainer removeWarm(ContainerId id, Seconds now);

    /**
     * Change a warm container's held memory (in-place compression
     * completing), accruing cost at the old size first.
     */
    void resizeWarm(ContainerId id, MegaBytes newMemoryMb,
                    bool nowCompressed, Seconds now);

    /**
     * Any warm container for `function`, preferring uncompressed ones
     * (they start faster).
     */
    std::optional<ContainerId> findWarm(FunctionId function) const;

    /**
     * All warm containers for `function`, in residency order
     * (deterministic). The driver's startability-aware warm-path scan
     * iterates this instead of trusting findWarm's single pick.
     */
    const std::vector<ContainerId>& warmFor(FunctionId function) const;

    /** Warm container by id; panics if unknown. */
    const WarmContainer& warm(ContainerId id) const;

    /**
     * How much more warm memory `node` can hold: limited by both the
     * node's free memory and the keep-alive reservation
     * (keepAliveMemoryFraction of node memory).
     */
    MegaBytes warmHeadroomMb(NodeId node) const;

    /** All warm containers (stable iteration order not guaranteed). */
    const std::unordered_map<ContainerId, WarmContainer>&
    warmPool() const
    {
        return warmPool_;
    }

    /**
     * Number of warm containers for one function. O(1): reads the
     * dense per-function residency counter, not the pool.
     */
    std::size_t warmCount(FunctionId function) const;

    // --- snapshot residency -------------------------------------------

    /**
     * Register a resident snapshot of `sizeMb` on `node`. When the
     * node's snapshot storage budget is exceeded, least-recently-used
     * snapshots on that node are evicted (ties broken by lowest id)
     * until the new one fits; their final storage cost is accrued.
     * @return the new snapshot's id, or nullopt when `sizeMb` exceeds
     *         the whole per-node budget (the snapshot can never fit).
     */
    std::optional<SnapshotId>
    addSnapshot(NodeId node, FunctionId function, MegaBytes sizeMb,
                Seconds now);

    /**
     * Drop a resident snapshot, accruing its final storage cost.
     * @return the removed record.
     */
    SnapshotRecord removeSnapshot(SnapshotId id, Seconds now);

    /**
     * Resident snapshots of one function, in residency order
     * (deterministic). Empty when none.
     */
    const std::vector<SnapshotId>&
    snapshotsFor(FunctionId function) const;

    /** Snapshot record by id; panics if unknown. */
    const SnapshotRecord& snapshot(SnapshotId id) const;

    /** Mark a snapshot as just used (LRU refresh). */
    void noteSnapshotUsed(SnapshotId id, Seconds now);

    /** Ids of all snapshots held on `node` (unordered). */
    std::vector<SnapshotId> snapshotsOnNode(NodeId node) const;

    /**
     * Number of resident snapshots for one function. O(1): reads the
     * dense per-function counter.
     */
    std::size_t snapshotCount(FunctionId function) const;

    /** Snapshots evicted by storage-budget pressure so far. */
    std::uint64_t snapshotsEvictedForStorage() const
    {
        return snapshotsEvictedForStorage_;
    }

    /** Storage cost rate ($/MB-second) for snapshots on a node type. */
    double
    snapshotStorageRate(NodeType type) const
    {
        return costRate(type) * config_.snapshotStorageCostFactor;
    }

    /** Cumulative snapshot storage cost in dollars. */
    Dollars snapshotSpend() const { return snapshotSpend_; }

    // --- accounting ----------------------------------------------------

    /**
     * Accrue keep-alive cost for all warm containers and storage cost
     * for all resident snapshots up to `now`.
     */
    void accrueAll(Seconds now);

    /** Cumulative keep-alive cost in dollars. */
    Dollars keepAliveSpend() const { return keepAliveSpend_; }

    // Commitment ledger (crash-consistent budget accounting). The
    // spend meter above stays the accrual-based truth the creditor
    // measures against; the ledger tracks what was *promised* so that
    // every ended commitment satisfies committed == accrued + refund:
    //   committedDollarsTotal() == commitmentConsumedDollars()
    //     + refundedDollarsTotal() + outstandingCommitmentDollars().

    /** Net dollars committed across all keep-alive windows so far. */
    Dollars committedDollarsTotal() const { return committedSpend_; }

    /** Dollars refunded by removeWarm (unspent commitments). */
    Dollars refundedDollarsTotal() const { return refundedSpend_; }

    /** Accrual charged against committed containers so far. */
    Dollars
    commitmentConsumedDollars() const
    {
        return committedAccrued_;
    }

    /** Unspent commitment still held by live warm containers. */
    Dollars outstandingCommitmentDollars() const;

    /** Total warm memory across the cluster (MB). */
    MegaBytes totalWarmMemoryMb() const;

    /** Total memory capacity across the cluster (MB). */
    MegaBytes totalMemoryMb() const;

    /**
     * Keep-alive cost rate ($/MB-second) of a node type — the paper's
     * X_x86 / X_ARM constants.
     */
    double costRate(NodeType type) const;

    /**
     * Projected cost of keeping `memoryMb` warm on `type` for
     * `duration` seconds.
     */
    Dollars
    keepAliveCost(NodeType type, MegaBytes memoryMb,
                  Seconds duration) const
    {
        return costRate(type) * memoryMb * duration;
    }

  private:
    void accrueOne(WarmContainer& container, Seconds now);

    void accrueSnapshot(SnapshotRecord& record, Seconds now);

    /** Warm-memory headroom of a node under the keep-alive fraction. */
    MegaBytes warmHeadroom(const Node& node) const;

    ClusterConfig config_;
    std::vector<Node> nodes_;
    int downNodes_ = 0;
    int numDomains_ = 1;
    /** Last fault time per domain (cooldown anchor); -inf when none. */
    std::vector<Seconds> lastDomainFault_;
    std::unordered_map<ContainerId, WarmContainer> warmPool_;
    std::unordered_map<FunctionId, std::vector<ContainerId>> warmByFn_;
    /**
     * Dense per-function warm residency counter (indexed by
     * FunctionId, grown on demand) so policy scans over the catalog
     * read a flat array instead of hashing into warmByFn_. Maintained
     * by addWarm/removeWarm.
     */
    std::vector<std::uint32_t> warmCountByFn_;
    ContainerId nextContainer_ = 1;
    std::unordered_map<SnapshotId, SnapshotRecord> snapshotPool_;
    std::unordered_map<FunctionId, std::vector<SnapshotId>>
        snapshotsByFn_;
    /** Dense per-function snapshot residency counter (like warm). */
    std::vector<std::uint32_t> snapshotCountByFn_;
    SnapshotId nextSnapshot_ = 1;
    std::uint64_t snapshotsEvictedForStorage_ = 0;
    Dollars snapshotSpend_ = 0.0;
    Dollars keepAliveSpend_ = 0.0;
    Dollars committedSpend_ = 0.0;
    Dollars refundedSpend_ = 0.0;
    Dollars committedAccrued_ = 0.0;
};

} // namespace codecrunch::cluster
