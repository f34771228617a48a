/**
 * @file
 * Cluster state-machine tests: node construction and pricing, execution
 * resource accounting, the warm-container pool, the keep-alive memory
 * reservation, and cost accrual arithmetic.
 */
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"

using namespace codecrunch;
using namespace codecrunch::cluster;

namespace {

ClusterConfig
tinyConfig()
{
    ClusterConfig config;
    config.numX86 = 2;
    config.numArm = 1;
    config.coresPerNode = 2;
    config.memoryPerNodeMb = 1000;
    config.keepAliveMemoryFraction = 0.5;
    return config;
}

} // namespace

TEST(Cluster, ConstructsPaperDefaultFleet)
{
    Cluster cluster{ClusterConfig{}};
    EXPECT_EQ(cluster.nodes().size(), 31u);
    int x86 = 0, arm = 0;
    for (const auto& node : cluster.nodes()) {
        (node.type == NodeType::X86 ? x86 : arm) += 1;
        EXPECT_EQ(node.cores, 8);
        EXPECT_DOUBLE_EQ(node.memoryMb, 32 * 1024);
    }
    EXPECT_EQ(x86, 13);
    EXPECT_EQ(arm, 18);
}

TEST(Cluster, CostRatesFollowNodePricing)
{
    Cluster cluster{ClusterConfig{}};
    // $0.384/h over 32 GiB: keeping all memory warm for an hour costs
    // the node's hourly price.
    EXPECT_NEAR(cluster.costRate(NodeType::X86) * 32 * 1024 * 3600,
                0.384, 1e-9);
    EXPECT_NEAR(cluster.costRate(NodeType::ARM) * 32 * 1024 * 3600,
                0.2688, 1e-9);
    EXPECT_LT(cluster.costRate(NodeType::ARM),
              cluster.costRate(NodeType::X86));
}

TEST(Cluster, RejectsEmptyFleet)
{
    ClusterConfig config;
    config.numX86 = 0;
    config.numArm = 0;
    EXPECT_DEATH({ Cluster cluster(config); }, "at least one node");
}

TEST(Cluster, ReserveAndReleaseExec)
{
    Cluster cluster(tinyConfig());
    cluster.reserveExec(0, 400);
    EXPECT_EQ(cluster.node(0).coresUsed, 1);
    EXPECT_DOUBLE_EQ(cluster.node(0).execMemoryMb, 400);
    EXPECT_DOUBLE_EQ(cluster.node(0).freeMemoryMb(), 600);
    cluster.releaseExec(0, 400);
    EXPECT_EQ(cluster.node(0).coresUsed, 0);
    EXPECT_DOUBLE_EQ(cluster.node(0).freeMemoryMb(), 1000);
}

TEST(Cluster, ReserveExecPanicsWithoutCores)
{
    Cluster cluster(tinyConfig());
    cluster.reserveExec(0, 100);
    cluster.reserveExec(0, 100);
    EXPECT_DEATH(cluster.reserveExec(0, 100), "free core");
}

TEST(Cluster, ReserveExecPanicsOnOvercommit)
{
    Cluster cluster(tinyConfig());
    EXPECT_DEATH(cluster.reserveExec(0, 1500), "overcommit");
}

TEST(Cluster, ReleaseExecPanicsWhenIdle)
{
    Cluster cluster(tinyConfig());
    EXPECT_DEATH(cluster.releaseExec(0, 10), "idle");
}

TEST(Cluster, PickNodeForExecPrefersMostFreeMemory)
{
    Cluster cluster(tinyConfig());
    cluster.reserveExec(0, 600);
    const auto node = cluster.pickNodeForExec(NodeType::X86, 100, 0.0);
    ASSERT_TRUE(node.has_value());
    EXPECT_EQ(*node, 1u); // node 1 has more free memory
}

TEST(Cluster, PickNodeForExecRespectsType)
{
    Cluster cluster(tinyConfig());
    const auto arm = cluster.pickNodeForExec(NodeType::ARM, 100, 0.0);
    ASSERT_TRUE(arm.has_value());
    EXPECT_EQ(cluster.node(*arm).type, NodeType::ARM);
}

TEST(Cluster, PickNodeForExecFailsWhenFull)
{
    Cluster cluster(tinyConfig());
    // Saturate both x86 nodes' cores.
    for (NodeId n : {0u, 1u}) {
        cluster.reserveExec(n, 10);
        cluster.reserveExec(n, 10);
    }
    EXPECT_FALSE(
        cluster.pickNodeForExec(NodeType::X86, 10, 0.0).has_value());
}

TEST(Cluster, WarmPoolLifecycle)
{
    Cluster cluster(tinyConfig());
    const ContainerId id = cluster.addWarm(0, 7, 300, false, 0.0);
    EXPECT_EQ(cluster.warmCount(7), 1u);
    EXPECT_DOUBLE_EQ(cluster.node(0).warmMemoryMb, 300);
    ASSERT_TRUE(cluster.findWarm(7).has_value());
    EXPECT_EQ(*cluster.findWarm(7), id);
    EXPECT_FALSE(cluster.findWarm(8).has_value());

    const WarmContainer removed = cluster.removeWarm(id, 10.0);
    EXPECT_EQ(removed.function, 7u);
    EXPECT_EQ(cluster.warmCount(7), 0u);
    EXPECT_DOUBLE_EQ(cluster.node(0).warmMemoryMb, 0);
}

TEST(Cluster, FindWarmPrefersUncompressed)
{
    Cluster cluster(tinyConfig());
    const ContainerId packed = cluster.addWarm(0, 7, 100, true, 0.0);
    const ContainerId plain = cluster.addWarm(0, 7, 300, false, 0.0);
    EXPECT_EQ(*cluster.findWarm(7), plain);
    cluster.removeWarm(plain, 1.0);
    EXPECT_EQ(*cluster.findWarm(7), packed);
}

TEST(Cluster, WarmHeadroomHonorsFraction)
{
    Cluster cluster(tinyConfig()); // 1000 MB node, 50% warm cap
    EXPECT_DOUBLE_EQ(cluster.warmHeadroomMb(0), 500);
    cluster.addWarm(0, 1, 300, false, 0.0);
    EXPECT_DOUBLE_EQ(cluster.warmHeadroomMb(0), 200);
    // Exec memory can shrink headroom below the cap remainder.
    cluster.reserveExec(0, 600);
    EXPECT_DOUBLE_EQ(cluster.warmHeadroomMb(0), 100);
}

TEST(Cluster, AddWarmPanicsBeyondHeadroom)
{
    Cluster cluster(tinyConfig());
    cluster.addWarm(0, 1, 500, false, 0.0);
    EXPECT_DEATH(cluster.addWarm(0, 2, 1, false, 0.0), "headroom");
}

TEST(Cluster, WarmHeadroomHonorsCap)
{
    Cluster cluster(tinyConfig());
    cluster.addWarm(0, 1, 500, false, 0.0);
    cluster.addWarm(1, 2, 400, false, 0.0);
    // The keep-alive cap is 500 MB a node: 0 is full and 1 has 100 MB
    // left, so no x86 node fits 150 MB and only 1 fits 80 MB.
    EXPECT_DOUBLE_EQ(cluster.warmHeadroomMb(0), 0.0);
    EXPECT_DOUBLE_EQ(cluster.warmHeadroomMb(1), 100.0);
}

TEST(Cluster, ResizeWarmShrinksMemory)
{
    Cluster cluster(tinyConfig());
    const ContainerId id = cluster.addWarm(0, 7, 400, false, 0.0);
    cluster.resizeWarm(id, 150, true, 5.0);
    EXPECT_DOUBLE_EQ(cluster.node(0).warmMemoryMb, 150);
    EXPECT_TRUE(cluster.warm(id).compressed);
}

TEST(Cluster, CostAccrualArithmetic)
{
    Cluster cluster(tinyConfig());
    const double rate = cluster.costRate(NodeType::X86);
    cluster.addWarm(0, 1, 200, false, 0.0);
    cluster.accrueAll(100.0);
    EXPECT_NEAR(cluster.keepAliveSpend(), rate * 200 * 100, 1e-12);
}

TEST(Cluster, CostAccrualAcrossResize)
{
    Cluster cluster(tinyConfig());
    const double rate = cluster.costRate(NodeType::X86);
    const ContainerId id = cluster.addWarm(0, 1, 400, false, 0.0);
    cluster.resizeWarm(id, 100, true, 50.0); // 50 s at 400 MB
    cluster.removeWarm(id, 150.0);           // 100 s at 100 MB
    EXPECT_NEAR(cluster.keepAliveSpend(),
                rate * (400 * 50 + 100 * 100), 1e-12);
}

TEST(Cluster, CostUsesNodeTypeRate)
{
    Cluster cluster(tinyConfig());
    const NodeId armNode = 2; // the single ARM node
    ASSERT_EQ(cluster.node(armNode).type, NodeType::ARM);
    cluster.addWarm(armNode, 1, 200, false, 0.0);
    cluster.accrueAll(60.0);
    EXPECT_NEAR(cluster.keepAliveSpend(),
                cluster.costRate(NodeType::ARM) * 200 * 60, 1e-12);
}

TEST(Cluster, KeepAliveCostHelperMatchesAccrual)
{
    Cluster cluster(tinyConfig());
    cluster.addWarm(0, 1, 333, false, 0.0);
    cluster.accrueAll(77.0);
    EXPECT_NEAR(cluster.keepAliveSpend(),
                cluster.keepAliveCost(NodeType::X86, 333, 77.0),
                1e-12);
}

TEST(Cluster, AccrualIsIdempotentAtSameTime)
{
    Cluster cluster(tinyConfig());
    cluster.addWarm(0, 1, 100, false, 0.0);
    cluster.accrueAll(10.0);
    const Dollars once = cluster.keepAliveSpend();
    cluster.accrueAll(10.0);
    EXPECT_DOUBLE_EQ(cluster.keepAliveSpend(), once);
}

TEST(Cluster, TotalsAggregateAcrossNodes)
{
    Cluster cluster(tinyConfig());
    EXPECT_DOUBLE_EQ(cluster.totalMemoryMb(), 3000);
    cluster.addWarm(0, 1, 100, false, 0.0);
    cluster.addWarm(2, 2, 200, false, 0.0);
    EXPECT_DOUBLE_EQ(cluster.totalWarmMemoryMb(), 300);
}

TEST(Cluster, MultipleWarmContainersPerFunction)
{
    Cluster cluster(tinyConfig());
    cluster.addWarm(0, 7, 100, false, 0.0);
    cluster.addWarm(1, 7, 100, false, 0.0);
    EXPECT_EQ(cluster.warmCount(7), 2u);
    EXPECT_EQ(cluster.warmPool().size(), 2u);
}

TEST(Cluster, ResizeWarmCanGrowWithinCapacity)
{
    Cluster cluster(tinyConfig());
    const ContainerId id = cluster.addWarm(0, 7, 100, true, 0.0);
    cluster.resizeWarm(id, 250, false, 1.0);
    EXPECT_DOUBLE_EQ(cluster.node(0).warmMemoryMb, 250);
    EXPECT_FALSE(cluster.warm(id).compressed);
}

TEST(Cluster, ResizeWarmPanicsOnOvercommit)
{
    Cluster cluster(tinyConfig());
    const ContainerId id = cluster.addWarm(0, 7, 100, true, 0.0);
    cluster.reserveExec(0, 850);
    EXPECT_DEATH(cluster.resizeWarm(id, 300, false, 1.0),
                 "overcommit");
}

TEST(Cluster, WarmPanicsOnUnknownId)
{
    Cluster cluster(tinyConfig());
    EXPECT_DEATH(cluster.warm(42), "unknown");
}

TEST(Cluster, SpendIsMonotonic)
{
    Cluster cluster(tinyConfig());
    cluster.addWarm(0, 1, 100, false, 0.0);
    double last = 0.0;
    for (Seconds t : {10.0, 20.0, 30.0, 40.0}) {
        cluster.accrueAll(t);
        EXPECT_GE(cluster.keepAliveSpend(), last);
        last = cluster.keepAliveSpend();
    }
}

TEST(Cluster, RemoveWarmPanicsOnUnknownId)
{
    Cluster cluster(tinyConfig());
    EXPECT_DEATH(cluster.removeWarm(999, 0.0), "unknown");
}

// --- keep-alive commitment ledger -------------------------------------------

TEST(ClusterLedger, CommitmentChargedUpFrontAndRefundedOnEarlyRemoval)
{
    Cluster cluster(tinyConfig());
    const double rate = cluster.costRate(NodeType::X86);
    // 200 MB committed until t=100.
    const ContainerId id =
        cluster.addWarm(0, 1, 200, false, 0.0, 100.0);
    const Dollars committed = rate * 200 * 100;
    EXPECT_NEAR(cluster.committedDollarsTotal(), committed, 1e-12);
    EXPECT_NEAR(cluster.outstandingCommitmentDollars(), committed,
                1e-12);

    // Evicted at t=40 (the crash case): 40 s were consumed, the
    // remaining 60 s come back as a refund.
    const WarmContainer removed = cluster.removeWarm(id, 40.0);
    EXPECT_NEAR(removed.unspentCommitmentDollars(), rate * 200 * 60,
                1e-12);
    EXPECT_NEAR(cluster.refundedDollarsTotal(), rate * 200 * 60,
                1e-12);
    EXPECT_NEAR(cluster.commitmentConsumedDollars(), rate * 200 * 40,
                1e-12);
    EXPECT_NEAR(cluster.outstandingCommitmentDollars(), 0.0, 1e-12);
}

TEST(ClusterLedger, RemovalAtExpiryRefundsNothing)
{
    Cluster cluster(tinyConfig());
    const double rate = cluster.costRate(NodeType::X86);
    const ContainerId id =
        cluster.addWarm(0, 1, 200, false, 0.0, 100.0);
    const WarmContainer removed = cluster.removeWarm(id, 100.0);
    EXPECT_NEAR(removed.unspentCommitmentDollars(), 0.0, 1e-12);
    EXPECT_NEAR(cluster.refundedDollarsTotal(), 0.0, 1e-12);
    EXPECT_NEAR(cluster.commitmentConsumedDollars(), rate * 200 * 100,
                1e-12);
}

TEST(ClusterLedger, RecommitReanchorsTheWindow)
{
    Cluster cluster(tinyConfig());
    const double rate = cluster.costRate(NodeType::X86);
    const ContainerId id =
        cluster.addWarm(0, 1, 200, false, 0.0, 100.0);
    // Keep-alive extended at t=40: the new commitment covers what was
    // already accrued plus the re-anchored remainder to t=300.
    cluster.recommitWarm(id, 300.0, 40.0);
    EXPECT_NEAR(cluster.committedDollarsTotal(), rate * 200 * 300,
                1e-12);
    const WarmContainer removed = cluster.removeWarm(id, 300.0);
    EXPECT_NEAR(removed.unspentCommitmentDollars(), 0.0, 1e-12);
    EXPECT_NEAR(cluster.commitmentConsumedDollars(), rate * 200 * 300,
                1e-12);
}

TEST(ClusterLedger, CompressionResizeRefundsTheSavedRemainder)
{
    Cluster cluster(tinyConfig());
    const double rate = cluster.costRate(NodeType::X86);
    const ContainerId id =
        cluster.addWarm(0, 1, 400, false, 0.0, 100.0);
    // Compressed to 100 MB at t=50: the second half accrues at a
    // quarter of the rate, so the expiry removal refunds the saving.
    cluster.resizeWarm(id, 100, true, 50.0);
    const WarmContainer removed = cluster.removeWarm(id, 100.0);
    EXPECT_NEAR(removed.unspentCommitmentDollars(),
                rate * (400 - 100) * 50, 1e-12);
    EXPECT_NEAR(cluster.refundedDollarsTotal(),
                rate * (400 - 100) * 50, 1e-12);
}

TEST(ClusterLedger, LedgerBalancesAcrossMixedOperations)
{
    Cluster cluster(tinyConfig());
    const auto balance = [&] {
        EXPECT_NEAR(cluster.committedDollarsTotal(),
                    cluster.commitmentConsumedDollars() +
                        cluster.refundedDollarsTotal() +
                        cluster.outstandingCommitmentDollars(),
                    1e-12);
    };
    const ContainerId a =
        cluster.addWarm(0, 1, 200, false, 0.0, 120.0);
    const ContainerId b =
        cluster.addWarm(1, 2, 300, false, 10.0, 70.0);
    balance();
    cluster.accrueAll(30.0);
    balance();
    cluster.resizeWarm(a, 80, true, 40.0); // compression mid-window
    balance();
    cluster.recommitWarm(b, 200.0, 50.0); // keep-alive extended
    balance();
    cluster.removeWarm(b, 90.0); // fault eviction before expiry
    balance();
    cluster.removeWarm(a, 120.0); // expiry; compression saved money
    balance();
    EXPECT_GT(cluster.refundedDollarsTotal(), 0.0);
    EXPECT_NEAR(cluster.outstandingCommitmentDollars(), 0.0, 1e-12);
}

// --- failure domains --------------------------------------------------------

namespace {

ClusterConfig
domainConfig()
{
    ClusterConfig config;
    config.numX86 = 4;
    config.numArm = 0;
    config.coresPerNode = 2;
    config.memoryPerNodeMb = 1000;
    config.keepAliveMemoryFraction = 0.5;
    config.numFaultDomains = 2;
    config.domainCooldownSeconds = 300.0;
    return config;
}

} // namespace

TEST(ClusterDomains, NodesStripeAcrossDomains)
{
    Cluster cluster(domainConfig());
    EXPECT_EQ(cluster.numDomains(), 2);
    for (NodeId n = 0; n < 4; ++n)
        EXPECT_EQ(cluster.domainOf(n), faultDomainOf(n, 2));
    const auto perDomain = cluster.nodesPerDomain();
    ASSERT_EQ(perDomain.size(), 2u);
    EXPECT_EQ(perDomain[0], 2u);
    EXPECT_EQ(perDomain[1], 2u);
}

TEST(ClusterDomains, CooldownDeprioritizesButDoesNotExclude)
{
    Cluster cluster(domainConfig());
    cluster.noteDomainFault(0, 100.0);
    EXPECT_TRUE(cluster.domainCoolingDown(0, 150.0));
    EXPECT_FALSE(cluster.domainCoolingDown(1, 150.0));
    EXPECT_FALSE(cluster.domainCoolingDown(0, 401.0));

    // During the cooldown, placement prefers the healthy domain...
    const auto exec =
        cluster.pickNodeForExec(NodeType::X86, 100, 150.0);
    ASSERT_TRUE(exec.has_value());
    EXPECT_EQ(cluster.domainOf(*exec), 1);

    // ...but a cooling domain is still used when nothing else fits.
    for (NodeId n : {1u, 3u}) {
        cluster.reserveExec(n, 10);
        cluster.reserveExec(n, 10);
    }
    const auto fallback =
        cluster.pickNodeForExec(NodeType::X86, 100, 150.0);
    ASSERT_TRUE(fallback.has_value());
    EXPECT_EQ(cluster.domainOf(*fallback), 0);
}

TEST(Cluster, SnapshotResidencyAndSpendAccrual)
{
    Cluster cluster(tinyConfig());
    const auto id = cluster.addSnapshot(0, 7, 400.0, 0.0);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(cluster.snapshotCount(7), 1u);
    ASSERT_EQ(cluster.snapshotsFor(7).size(), 1u);
    EXPECT_DOUBLE_EQ(cluster.node(0).snapshotStorageMb, 400.0);

    // Dropping at t=100 accrues 400 MB x 100 s at the snapshot
    // storage rate (a 0.02 fraction of the keep-alive rate).
    const auto record = cluster.removeSnapshot(*id, 100.0);
    EXPECT_EQ(record.function, 7u);
    EXPECT_EQ(cluster.snapshotCount(7), 0u);
    EXPECT_DOUBLE_EQ(cluster.node(0).snapshotStorageMb, 0.0);
    EXPECT_NEAR(cluster.snapshotSpend(),
                cluster.snapshotStorageRate(NodeType::X86) * 400.0 *
                    100.0,
                1e-12);
    EXPECT_LT(cluster.snapshotStorageRate(NodeType::X86),
              cluster.costRate(NodeType::X86) * 0.05);
}

TEST(Cluster, SnapshotStorageBudgetEvictsLeastRecentlyUsed)
{
    ClusterConfig config = tinyConfig();
    config.snapshotStoragePerNodeMb = 1000;
    Cluster cluster(config);
    const auto a = cluster.addSnapshot(0, 1, 400.0, 0.0);
    const auto b = cluster.addSnapshot(0, 2, 400.0, 1.0);
    ASSERT_TRUE(a.has_value() && b.has_value());
    cluster.noteSnapshotUsed(*a, 10.0); // snapshot b is now the LRU

    // A third 400 MB snapshot busts the 1000 MB budget: the least
    // recently USED (not oldest) snapshot on the node is evicted.
    const auto c = cluster.addSnapshot(0, 3, 400.0, 20.0);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(cluster.snapshotsEvictedForStorage(), 1u);
    EXPECT_EQ(cluster.snapshotCount(2), 0u);
    EXPECT_EQ(cluster.snapshotCount(1), 1u);
    EXPECT_EQ(cluster.snapshotCount(3), 1u);
    EXPECT_DOUBLE_EQ(cluster.node(0).snapshotStorageMb, 800.0);
    EXPECT_EQ(cluster.snapshotsOnNode(0).size(), 2u);
}

TEST(Cluster, OversizeSnapshotIsRejected)
{
    ClusterConfig config = tinyConfig();
    config.snapshotStoragePerNodeMb = 300;
    Cluster cluster(config);
    EXPECT_FALSE(cluster.addSnapshot(0, 1, 400.0, 0.0).has_value());
    EXPECT_EQ(cluster.snapshotCount(1), 0u);
    EXPECT_DOUBLE_EQ(cluster.node(0).snapshotStorageMb, 0.0);
}

TEST(Cluster, MarkDownPanicsOnLeftoverSnapshots)
{
    // The driver must drop a crashing node's snapshots BEFORE marking
    // it down; leftover storage at markDown is an accounting bug.
    Cluster cluster(tinyConfig());
    ASSERT_TRUE(cluster.addSnapshot(0, 1, 100.0, 0.0).has_value());
    EXPECT_DEATH(cluster.markDown(0), "snapshots");
}
