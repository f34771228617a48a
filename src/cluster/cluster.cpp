#include "cluster/cluster.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace codecrunch::cluster {

namespace {

/** Tolerance for floating-point memory bookkeeping. */
constexpr double kMemEps = 1e-6;

} // namespace

Cluster::Cluster(const ClusterConfig& config)
    : config_(config)
{
    if (config.numX86 < 0 || config.numArm < 0)
        fatal("Cluster: negative node count");
    if (config.numX86 + config.numArm == 0)
        fatal("Cluster: at least one node is required");
    if (config.numFaultDomains >
        config.numX86 + config.numArm)
        fatal("Cluster: more fault domains (", config.numFaultDomains,
              ") than nodes (", config.numX86 + config.numArm, ")");
    if (config.domainCooldownSeconds < 0.0)
        fatal("Cluster: domainCooldownSeconds must be >= 0, got ",
              config.domainCooldownSeconds);
    numDomains_ = std::max(1, config.numFaultDomains);
    lastDomainFault_.assign(static_cast<std::size_t>(numDomains_),
                            -1e300);
    nodes_.reserve(config.numX86 + config.numArm);
    auto addNodes = [&](int count, NodeType type, Dollars costPerHour) {
        for (int i = 0; i < count; ++i) {
            Node node;
            node.id = static_cast<NodeId>(nodes_.size());
            node.type = type;
            node.domain = faultDomainOf(node.id, numDomains_);
            node.cores = config.coresPerNode;
            node.memoryMb = config.memoryPerNodeMb;
            node.costRatePerMbSecond =
                costPerHour / config.memoryPerNodeMb / kSecondsPerHour;
            nodes_.push_back(node);
        }
    };
    addNodes(config.numX86, NodeType::X86, config.x86CostPerHour);
    addNodes(config.numArm, NodeType::ARM, config.armCostPerHour);
}

void
Cluster::noteDomainFault(int domain, Seconds now)
{
    if (domain < 0 || domain >= numDomains_)
        panic("Cluster: noteDomainFault of unknown domain ", domain);
    lastDomainFault_[static_cast<std::size_t>(domain)] = std::max(
        lastDomainFault_[static_cast<std::size_t>(domain)], now);
}

bool
Cluster::domainCoolingDown(int domain, Seconds now) const
{
    if (config_.domainCooldownSeconds <= 0.0 || numDomains_ <= 1)
        return false;
    if (domain < 0 || domain >= numDomains_)
        return false;
    const Seconds last =
        lastDomainFault_[static_cast<std::size_t>(domain)];
    return now >= last &&
           now < last + config_.domainCooldownSeconds;
}

std::vector<std::size_t>
Cluster::nodesPerDomain() const
{
    std::vector<std::size_t> counts(
        static_cast<std::size_t>(numDomains_), 0);
    for (const auto& node : nodes_)
        ++counts[static_cast<std::size_t>(node.domain)];
    return counts;
}

void
Cluster::markDown(NodeId id)
{
    Node& node = nodes_.at(id);
    if (node.down)
        panic("Cluster: markDown on already-down node ", id);
    if (node.coresUsed != 0 || node.execMemoryMb > kMemEps ||
        node.warmMemoryMb > kMemEps)
        panic("Cluster: markDown on undrained node ", id, " (",
              node.coresUsed, " cores, ", node.execMemoryMb,
              " MB exec, ", node.warmMemoryMb, " MB warm)");
    if (node.snapshotStorageMb > kMemEps)
        panic("Cluster: markDown on node ", id, " still holding ",
              node.snapshotStorageMb, " MB of snapshots");
    node.down = true;
    ++downNodes_;
}

void
Cluster::recover(NodeId id)
{
    Node& node = nodes_.at(id);
    if (!node.down)
        panic("Cluster: recover of up node ", id);
    node.down = false;
    --downNodes_;
}

std::vector<ContainerId>
Cluster::warmOnNode(NodeId node) const
{
    std::vector<ContainerId> ids;
    for (const auto& [id, container] : warmPool_) {
        if (container.node == node)
            ids.push_back(id);
    }
    return ids;
}

std::optional<NodeId>
Cluster::pickNodeForExec(NodeType type, MegaBytes memoryMb,
                         Seconds now) const
{
    // Two passes when a cooldown is configured: first prefer nodes
    // outside recently-faulted domains, then fall back to every up
    // node (deprioritize, never exclude).
    const bool applyCooldown =
        config_.domainCooldownSeconds > 0.0 && numDomains_ > 1;
    for (int pass = applyCooldown ? 0 : 1; pass < 2; ++pass) {
        std::optional<NodeId> best;
        MegaBytes bestFree = -1;
        for (const auto& node : nodes_) {
            if (node.down || node.type != type ||
                node.freeCores() < 1)
                continue;
            if (pass == 0 && domainCoolingDown(node.domain, now))
                continue;
            const MegaBytes free = node.freeMemoryMb();
            if (free + kMemEps >= memoryMb && free > bestFree) {
                bestFree = free;
                best = node.id;
            }
        }
        if (best)
            return best;
    }
    return std::nullopt;
}

MegaBytes
Cluster::warmHeadroom(const Node& node) const
{
    if (node.down)
        return 0.0;
    const MegaBytes cap =
        node.memoryMb * config_.keepAliveMemoryFraction;
    return std::min(node.freeMemoryMb(), cap - node.warmMemoryMb);
}

MegaBytes
Cluster::warmHeadroomMb(NodeId node) const
{
    return warmHeadroom(nodes_.at(node));
}

void
Cluster::reserveExec(NodeId id, MegaBytes memoryMb)
{
    Node& node = nodes_.at(id);
    if (node.down)
        panic("Cluster: reserveExec on down node ", id);
    if (node.freeCores() < 1)
        panic("Cluster: reserveExec on node ", id, " with no free core");
    if (node.freeMemoryMb() + kMemEps < memoryMb)
        panic("Cluster: reserveExec overcommits node ", id, " (",
              node.freeMemoryMb(), " MB free, ", memoryMb,
              " MB requested)");
    ++node.coresUsed;
    node.execMemoryMb += memoryMb;
}

void
Cluster::releaseExec(NodeId id, MegaBytes memoryMb)
{
    Node& node = nodes_.at(id);
    if (node.coresUsed < 1)
        panic("Cluster: releaseExec on idle node ", id);
    --node.coresUsed;
    node.execMemoryMb -= memoryMb;
    if (node.execMemoryMb < -kMemEps)
        panic("Cluster: exec memory underflow on node ", id);
    node.execMemoryMb = std::max(0.0, node.execMemoryMb);
}

ContainerId
Cluster::addWarm(NodeId nodeId, FunctionId function, MegaBytes memoryMb,
                 bool compressed, Seconds now, Seconds commitUntil)
{
    Node& node = nodes_.at(nodeId);
    if (node.down)
        panic("Cluster: addWarm on down node ", nodeId);
    if (warmHeadroom(node) + kMemEps < memoryMb)
        panic("Cluster: addWarm exceeds warm headroom of node ",
              nodeId, " (", warmHeadroom(node), " MB free, ",
              memoryMb, " MB requested)");
    node.warmMemoryMb += memoryMb;

    WarmContainer container;
    container.id = nextContainer_++;
    container.function = function;
    container.node = nodeId;
    container.memoryMb = memoryMb;
    container.compressed = compressed;
    container.since = now;
    container.lastAccrual = now;
    if (commitUntil >= now) {
        container.committedUntil = commitUntil;
        container.committedDollars = node.costRatePerMbSecond *
                                     memoryMb * (commitUntil - now);
        committedSpend_ += container.committedDollars;
    }
    warmByFn_[function].push_back(container.id);
    if (function >= warmCountByFn_.size())
        warmCountByFn_.resize(function + 1, 0);
    ++warmCountByFn_[function];
    const ContainerId id = container.id;
    warmPool_.emplace(id, container);
    return id;
}

void
Cluster::recommitWarm(ContainerId id, Seconds newCommitUntil,
                      Seconds now)
{
    const auto it = warmPool_.find(id);
    if (it == warmPool_.end())
        panic("Cluster: recommitWarm of unknown container ", id);
    WarmContainer& container = it->second;
    if (newCommitUntil < now)
        panic("Cluster: recommitWarm window ends in the past");
    accrueOne(container, now);
    const Node& node = nodes_.at(container.node);
    // Accrual before this point counts toward the old window; the new
    // commitment covers accrued-so-far plus the re-anchored remainder.
    const bool hadCommitment = container.committedUntil >= 0.0;
    const Dollars newCommitted =
        container.accruedDollars +
        node.costRatePerMbSecond * container.memoryMb *
            (newCommitUntil - now);
    committedSpend_ += newCommitted - container.committedDollars;
    container.committedDollars = newCommitted;
    container.committedUntil = newCommitUntil;
    // A container without a prior commitment starts one here: its
    // accrual so far was never booked as consumed, so book it now to
    // keep committed == consumed + refunded + outstanding exact.
    if (!hadCommitment)
        committedAccrued_ += container.accruedDollars;
}

WarmContainer
Cluster::removeWarm(ContainerId id, Seconds now)
{
    const auto it = warmPool_.find(id);
    if (it == warmPool_.end())
        panic("Cluster: removeWarm of unknown container ", id);
    accrueOne(it->second, now);
    WarmContainer container = it->second;
    refundedSpend_ += container.unspentCommitmentDollars();

    Node& node = nodes_.at(container.node);
    node.warmMemoryMb -= container.memoryMb;
    if (node.warmMemoryMb < -kMemEps)
        panic("Cluster: warm memory underflow on node ", container.node);
    node.warmMemoryMb = std::max(0.0, node.warmMemoryMb);

    auto& list = warmByFn_[container.function];
    list.erase(std::remove(list.begin(), list.end(), id), list.end());
    if (list.empty())
        warmByFn_.erase(container.function);
    if (warmCountByFn_[container.function] == 0)
        panic("Cluster: residency underflow for function ",
              container.function);
    --warmCountByFn_[container.function];
    warmPool_.erase(it);
    return container;
}

void
Cluster::resizeWarm(ContainerId id, MegaBytes newMemoryMb,
                    bool nowCompressed, Seconds now)
{
    const auto it = warmPool_.find(id);
    if (it == warmPool_.end())
        panic("Cluster: resizeWarm of unknown container ", id);
    WarmContainer& container = it->second;
    accrueOne(container, now);

    Node& node = nodes_.at(container.node);
    const MegaBytes delta = newMemoryMb - container.memoryMb;
    if (delta > 0 && node.freeMemoryMb() + kMemEps < delta)
        panic("Cluster: resizeWarm overcommits node ", container.node);
    node.warmMemoryMb += delta;
    container.memoryMb = newMemoryMb;
    container.compressed = nowCompressed;
}

std::optional<SnapshotId>
Cluster::addSnapshot(NodeId nodeId, FunctionId function,
                     MegaBytes sizeMb, Seconds now)
{
    Node& node = nodes_.at(nodeId);
    if (node.down)
        panic("Cluster: addSnapshot on down node ", nodeId);
    const MegaBytes budget = config_.snapshotStoragePerNodeMb;
    if (sizeMb > budget + kMemEps)
        return std::nullopt;
    // Storage-budget eviction: drop least-recently-used snapshots on
    // this node (ties by lowest id — deterministic) until it fits.
    while (node.snapshotStorageMb + sizeMb > budget + kMemEps) {
        SnapshotId victim = kInvalidSnapshot;
        Seconds oldest = 0.0;
        for (const auto& [sid, record] : snapshotPool_) {
            if (record.node != nodeId)
                continue;
            if (victim == kInvalidSnapshot ||
                record.lastUsed < oldest ||
                (record.lastUsed == oldest && sid < victim)) {
                victim = sid;
                oldest = record.lastUsed;
            }
        }
        if (victim == kInvalidSnapshot)
            panic("Cluster: snapshot storage accounting out of sync on "
                  "node ", nodeId);
        removeSnapshot(victim, now);
        ++snapshotsEvictedForStorage_;
    }
    node.snapshotStorageMb += sizeMb;

    SnapshotRecord record;
    record.id = nextSnapshot_++;
    record.function = function;
    record.node = nodeId;
    record.sizeMb = sizeMb;
    record.since = now;
    record.lastUsed = now;
    record.lastAccrual = now;
    snapshotsByFn_[function].push_back(record.id);
    if (function >= snapshotCountByFn_.size())
        snapshotCountByFn_.resize(function + 1, 0);
    ++snapshotCountByFn_[function];
    const SnapshotId id = record.id;
    snapshotPool_.emplace(id, record);
    return id;
}

SnapshotRecord
Cluster::removeSnapshot(SnapshotId id, Seconds now)
{
    const auto it = snapshotPool_.find(id);
    if (it == snapshotPool_.end())
        panic("Cluster: removeSnapshot of unknown snapshot ", id);
    accrueSnapshot(it->second, now);
    SnapshotRecord record = it->second;

    Node& node = nodes_.at(record.node);
    node.snapshotStorageMb -= record.sizeMb;
    if (node.snapshotStorageMb < -kMemEps)
        panic("Cluster: snapshot storage underflow on node ",
              record.node);
    node.snapshotStorageMb = std::max(0.0, node.snapshotStorageMb);

    auto& list = snapshotsByFn_[record.function];
    list.erase(std::remove(list.begin(), list.end(), id), list.end());
    if (list.empty())
        snapshotsByFn_.erase(record.function);
    if (record.function >= snapshotCountByFn_.size() ||
        snapshotCountByFn_[record.function] == 0)
        panic("Cluster: snapshot residency underflow for function ",
              record.function);
    --snapshotCountByFn_[record.function];
    snapshotPool_.erase(it);
    return record;
}

const std::vector<SnapshotId>&
Cluster::snapshotsFor(FunctionId function) const
{
    static const std::vector<SnapshotId> kEmpty;
    const auto it = snapshotsByFn_.find(function);
    return it == snapshotsByFn_.end() ? kEmpty : it->second;
}

const SnapshotRecord&
Cluster::snapshot(SnapshotId id) const
{
    const auto it = snapshotPool_.find(id);
    if (it == snapshotPool_.end())
        panic("Cluster: snapshot() of unknown snapshot ", id);
    return it->second;
}

void
Cluster::noteSnapshotUsed(SnapshotId id, Seconds now)
{
    const auto it = snapshotPool_.find(id);
    if (it == snapshotPool_.end())
        panic("Cluster: noteSnapshotUsed of unknown snapshot ", id);
    it->second.lastUsed = std::max(it->second.lastUsed, now);
}

std::vector<SnapshotId>
Cluster::snapshotsOnNode(NodeId node) const
{
    std::vector<SnapshotId> ids;
    for (const auto& [id, record] : snapshotPool_) {
        if (record.node == node)
            ids.push_back(id);
    }
    return ids;
}

std::size_t
Cluster::snapshotCount(FunctionId function) const
{
    return function < snapshotCountByFn_.size()
        ? snapshotCountByFn_[function]
        : 0;
}

std::optional<ContainerId>
Cluster::findWarm(FunctionId function) const
{
    const auto it = warmByFn_.find(function);
    if (it == warmByFn_.end() || it->second.empty())
        return std::nullopt;
    // Prefer an uncompressed container: zero startup latency.
    for (ContainerId id : it->second) {
        if (!warmPool_.at(id).compressed)
            return id;
    }
    return it->second.front();
}

const std::vector<ContainerId>&
Cluster::warmFor(FunctionId function) const
{
    static const std::vector<ContainerId> kEmpty;
    const auto it = warmByFn_.find(function);
    return it == warmByFn_.end() ? kEmpty : it->second;
}

const WarmContainer&
Cluster::warm(ContainerId id) const
{
    const auto it = warmPool_.find(id);
    if (it == warmPool_.end())
        panic("Cluster: warm() of unknown container ", id);
    return it->second;
}

std::size_t
Cluster::warmCount(FunctionId function) const
{
    return function < warmCountByFn_.size()
        ? warmCountByFn_[function]
        : 0;
}

void
Cluster::accrueAll(Seconds now)
{
    for (auto& [id, container] : warmPool_)
        accrueOne(container, now);
    for (auto& [id, record] : snapshotPool_)
        accrueSnapshot(record, now);
}

void
Cluster::accrueSnapshot(SnapshotRecord& record, Seconds now)
{
    if (now < record.lastAccrual - kMemEps)
        panic("Cluster: snapshot accrual time moved backwards");
    const Seconds dt = std::max(0.0, now - record.lastAccrual);
    const Node& node = nodes_.at(record.node);
    snapshotSpend_ += node.costRatePerMbSecond *
                      config_.snapshotStorageCostFactor *
                      record.sizeMb * dt;
    record.lastAccrual = now;
}

void
Cluster::accrueOne(WarmContainer& container, Seconds now)
{
    if (now < container.lastAccrual - kMemEps)
        panic("Cluster: accrual time moved backwards");
    const Seconds dt = std::max(0.0, now - container.lastAccrual);
    const Node& node = nodes_.at(container.node);
    const Dollars cost =
        node.costRatePerMbSecond * container.memoryMb * dt;
    keepAliveSpend_ += cost;
    container.accruedDollars += cost;
    if (container.committedUntil >= 0.0)
        committedAccrued_ += cost;
    container.lastAccrual = now;
}

Dollars
Cluster::outstandingCommitmentDollars() const
{
    Dollars total = 0.0;
    for (const auto& [id, container] : warmPool_)
        total += container.unspentCommitmentDollars();
    return total;
}

MegaBytes
Cluster::totalWarmMemoryMb() const
{
    MegaBytes total = 0;
    for (const auto& node : nodes_)
        total += node.warmMemoryMb;
    return total;
}

MegaBytes
Cluster::totalMemoryMb() const
{
    MegaBytes total = 0;
    for (const auto& node : nodes_)
        total += node.memoryMb;
    return total;
}

double
Cluster::costRate(NodeType type) const
{
    const Dollars perHour = type == NodeType::X86
        ? config_.x86CostPerHour
        : config_.armCostPerHour;
    return perHour / config_.memoryPerNodeMb / kSecondsPerHour;
}

} // namespace codecrunch::cluster
