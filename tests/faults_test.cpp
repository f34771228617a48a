/**
 * @file
 * Fault-injection tests: FaultPlan schedule determinism and validation,
 * cluster node-lifecycle invariants under churn, driver retry/backoff
 * behavior, in-flight work on its node's core trace tracks under
 * crashes, the acceptance property that an all-zero fault config is
 * bit-identical to a fault-free run, and the controller watchdog.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/codecrunch.hpp"
#include "experiments/driver.hpp"
#include "faults/backoff.hpp"
#include "faults/fault_plan.hpp"
#include "policy/fixed_keepalive.hpp"
#include "trace/generator.hpp"

using namespace codecrunch;
using namespace codecrunch::experiments;

namespace {

faults::FaultConfig
crashyConfig(Seconds mtbf = 1800.0, Seconds mttr = 300.0)
{
    faults::FaultConfig config;
    config.nodeMtbfSeconds = mtbf;
    config.nodeMttrSeconds = mttr;
    return config;
}

/** A single-function workload with explicit arrival times. */
trace::Workload
workloadWith(std::vector<Seconds> arrivals)
{
    trace::Workload workload;
    trace::FunctionProfile f;
    f.id = 0;
    f.name = "fn-under-test";
    f.memoryMb = 1000;
    f.imageMb = 1000;
    f.compressedMb = 300;
    f.compressRatio = 1000.0 / 300.0;
    f.exec[0] = f.exec[1] = 2.0;
    f.coldStart[0] = f.coldStart[1] = 3.0;
    f.decompress[0] = f.decompress[1] = 1.0;
    f.compressTime[0] = f.compressTime[1] = 0.5;
    workload.functions.push_back(f);
    Seconds last = 0.0;
    for (Seconds t : arrivals) {
        workload.invocations.push_back({0, t, 1.0});
        last = std::max(last, t);
    }
    workload.duration = last + 60.0;
    return workload;
}

cluster::ClusterConfig
smallClusterConfig(int x86 = 2, int arm = 1)
{
    cluster::ClusterConfig config;
    config.numX86 = x86;
    config.numArm = arm;
    config.coresPerNode = 2;
    config.memoryPerNodeMb = 4096;
    return config;
}

DriverConfig
noNoise()
{
    DriverConfig config;
    config.execNoiseSigma = 0.0;
    return config;
}

} // namespace

// --- FaultPlan --------------------------------------------------------------

TEST(FaultPlan, DefaultConfigIsDisabled)
{
    const faults::FaultPlan plan(faults::FaultConfig{}, 31, 86400.0);
    EXPECT_FALSE(plan.enabled());
    EXPECT_TRUE(plan.events().empty());
    for (std::uint64_t i = 0; i < 10000; ++i)
        EXPECT_FALSE(plan.invocationFails(i));
}

TEST(FaultPlan, SameConfigYieldsIdenticalSchedule)
{
    const auto config = crashyConfig();
    const faults::FaultPlan a(config, 8, 86400.0);
    const faults::FaultPlan b(config, 8, 86400.0);
    ASSERT_FALSE(a.events().empty());
    EXPECT_EQ(a.events(), b.events());
}

TEST(FaultPlan, SeedChangesSchedule)
{
    auto config = crashyConfig();
    const faults::FaultPlan a(config, 8, 86400.0);
    config.seed ^= 1;
    const faults::FaultPlan b(config, 8, 86400.0);
    EXPECT_NE(a.events(), b.events());
}

TEST(FaultPlan, EventsSortedByTime)
{
    const faults::FaultPlan plan(crashyConfig(600.0), 8, 86400.0);
    EXPECT_TRUE(std::is_sorted(
        plan.events().begin(), plan.events().end(),
        [](const faults::FaultEvent& a, const faults::FaultEvent& b) {
            return a.time < b.time;
        }));
}

TEST(FaultPlan, CrashAndRecoveryAlternatePerNode)
{
    const faults::FaultPlan plan(crashyConfig(600.0), 8, 86400.0);
    // Replay per node: a node never crashes while down, never recovers
    // while up, and every crash is eventually paired with a recovery.
    std::map<NodeId, bool> down;
    std::map<NodeId, std::size_t> crashes, recoveries;
    for (const auto& event : plan.events()) {
        if (event.kind == faults::FaultKind::NodeCrash) {
            EXPECT_FALSE(down[event.node]);
            down[event.node] = true;
            ++crashes[event.node];
        } else if (event.kind == faults::FaultKind::NodeRecover) {
            EXPECT_TRUE(down[event.node]);
            down[event.node] = false;
            ++recoveries[event.node];
        }
    }
    ASSERT_FALSE(crashes.empty());
    for (const auto& [node, count] : crashes)
        EXPECT_EQ(count, recoveries[node]);
}

TEST(FaultPlan, MemoryShocksTargetValidNodes)
{
    faults::FaultConfig config;
    config.memoryShockMtbfSeconds = 1200.0;
    const faults::FaultPlan plan(config, 4, 86400.0);
    ASSERT_FALSE(plan.events().empty());
    for (const auto& event : plan.events()) {
        EXPECT_EQ(event.kind, faults::FaultKind::MemoryShock);
        EXPECT_LT(event.node, 4u);
        EXPECT_GE(event.time, 0.0);
    }
}

TEST(FaultPlan, InvocationFailureExtremes)
{
    auto config = crashyConfig();
    config.transientFailureProbability = 0.0;
    const faults::FaultPlan never(config, 2, 3600.0);
    config.transientFailureProbability = 1.0;
    const faults::FaultPlan always(config, 2, 3600.0);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        EXPECT_FALSE(never.invocationFails(i));
        EXPECT_TRUE(always.invocationFails(i));
    }
}

TEST(FaultPlan, InvocationFailureRateMatchesProbability)
{
    faults::FaultConfig config;
    config.transientFailureProbability = 0.25;
    const faults::FaultPlan plan(config, 1, 3600.0);
    std::size_t failures = 0;
    const std::size_t trials = 100000;
    for (std::uint64_t i = 0; i < trials; ++i)
        failures += plan.invocationFails(i) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(failures) / trials, 0.25, 0.01);
}

TEST(FaultPlan, RejectsInvalidConfigs)
{
    faults::FaultConfig bad = crashyConfig();
    bad.nodeMttrSeconds = 0.0;
    EXPECT_DEATH({ faults::FaultPlan plan(bad, 2, 3600.0); },
                 "nodeMttrSeconds");

    faults::FaultConfig badShock;
    badShock.memoryShockMtbfSeconds = 60.0;
    badShock.memoryShockFraction = 1.5;
    EXPECT_DEATH({ faults::FaultPlan plan(badShock, 2, 3600.0); },
                 "memoryShockFraction");

    faults::FaultConfig badProb;
    badProb.transientFailureProbability = 2.0;
    EXPECT_DEATH({ faults::FaultPlan plan(badProb, 2, 3600.0); },
                 "transientFailureProbability");
}

// --- Cluster node lifecycle -------------------------------------------------

TEST(ClusterFaults, MarkDownHidesNodeFromPlacement)
{
    cluster::Cluster cluster(smallClusterConfig(1, 0));
    cluster.markDown(0);
    EXPECT_TRUE(cluster.node(0).down);
    EXPECT_EQ(cluster.downNodes(), 1);
    EXPECT_FALSE(
        cluster.pickNodeForExec(NodeType::X86, 100, 0.0).has_value());
    EXPECT_DOUBLE_EQ(cluster.warmHeadroomMb(0), 0.0);

    cluster.recover(0);
    EXPECT_TRUE(cluster.node(0).up());
    EXPECT_EQ(cluster.downNodes(), 0);
    EXPECT_TRUE(
        cluster.pickNodeForExec(NodeType::X86, 100, 0.0).has_value());
}

TEST(ClusterFaults, MarkDownPanicsWhenNotDrained)
{
    cluster::Cluster warmHolder(smallClusterConfig());
    warmHolder.addWarm(0, 1, 100, false, 0.0);
    EXPECT_DEATH(warmHolder.markDown(0), "drained|warm");

    cluster::Cluster execHolder(smallClusterConfig());
    execHolder.reserveExec(0, 100);
    EXPECT_DEATH(execHolder.markDown(0), "drained|running|exec");
}

TEST(ClusterFaults, DoubleCrashAndSpuriousRecoveryPanic)
{
    cluster::Cluster cluster(smallClusterConfig());
    EXPECT_DEATH(cluster.recover(0), "up");
    cluster.markDown(0);
    EXPECT_DEATH(cluster.markDown(0), "down");
}

TEST(ClusterFaults, ReserveOnDownNodePanics)
{
    cluster::Cluster cluster(smallClusterConfig());
    cluster.markDown(0);
    EXPECT_DEATH(cluster.reserveExec(0, 100), "down");
}

TEST(ClusterFaults, WarmOnNodeListsOnlyThatNode)
{
    cluster::Cluster cluster(smallClusterConfig());
    const auto a = cluster.addWarm(0, 1, 100, false, 0.0);
    const auto b = cluster.addWarm(0, 2, 100, false, 0.0);
    cluster.addWarm(1, 3, 100, false, 0.0);
    auto ids = cluster.warmOnNode(0);
    std::sort(ids.begin(), ids.end());
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], std::min(a, b));
    EXPECT_EQ(ids[1], std::max(a, b));
}

TEST(ClusterFaults, ChurnPreservesCapacityInvariants)
{
    // Random churn: warm adds/removals, exec reserve/release, crashes
    // (drained first, as the driver does) and recoveries. The Cluster
    // panics internally on any invariant violation; this test also
    // cross-checks the aggregate accounting after every step.
    cluster::Cluster cluster(smallClusterConfig(3, 2));
    Rng rng(42);
    std::vector<cluster::ContainerId> warm;
    std::map<NodeId, int> execs; // node -> live reservations
    Seconds now = 0.0;
    for (int step = 0; step < 2000; ++step) {
        now += 1.0;
        const NodeId node =
            static_cast<NodeId>(rng.uniformInt(0, 4));
        const int action = rng.uniformInt(0, 4);
        if (action == 0 && cluster.node(node).up() &&
            cluster.warmHeadroomMb(node) >= 200.0) {
            warm.push_back(
                cluster.addWarm(node, 1, 200, false, now));
        } else if (action == 1 && !warm.empty()) {
            const std::size_t pick = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(warm.size()) - 1));
            cluster.removeWarm(warm[pick], now);
            warm.erase(warm.begin() + pick);
        } else if (action == 2 && cluster.node(node).up() &&
                   cluster.node(node).freeCores() > 0 &&
                   cluster.node(node).freeMemoryMb() >= 300.0) {
            cluster.reserveExec(node, 300);
            ++execs[node];
        } else if (action == 3 && execs[node] > 0) {
            cluster.releaseExec(node, 300);
            --execs[node];
        } else if (action == 4) {
            if (cluster.node(node).up()) {
                // Drain, then crash — the driver's sequence.
                for (auto id : cluster.warmOnNode(node)) {
                    cluster.removeWarm(id, now);
                    warm.erase(
                        std::find(warm.begin(), warm.end(), id));
                }
                while (execs[node] > 0) {
                    cluster.releaseExec(node, 300);
                    --execs[node];
                }
                cluster.markDown(node);
            } else {
                cluster.recover(node);
            }
        }

        MegaBytes totalWarm = 0.0;
        for (const auto& n : cluster.nodes()) {
            EXPECT_GE(n.freeMemoryMb(), -1e-9);
            EXPECT_GE(n.freeCores(), 0);
            EXPECT_GE(n.coresUsed, 0);
            if (n.down) {
                EXPECT_EQ(n.coresUsed, 0);
                EXPECT_DOUBLE_EQ(n.warmMemoryMb, 0.0);
                EXPECT_DOUBLE_EQ(n.execMemoryMb, 0.0);
            }
            totalWarm += n.warmMemoryMb;
        }
        EXPECT_DOUBLE_EQ(cluster.totalWarmMemoryMb(), totalWarm);
        EXPECT_EQ(cluster.warmPool().size(), warm.size());
    }
}

// --- Driver retry/backoff ---------------------------------------------------

TEST(DriverFaults, RetryBackoffIsCappedExponential)
{
    EXPECT_DOUBLE_EQ(faults::retryBackoff(1, 0.5, 30.0), 0.5);
    EXPECT_DOUBLE_EQ(faults::retryBackoff(2, 0.5, 30.0), 1.0);
    EXPECT_DOUBLE_EQ(faults::retryBackoff(3, 0.5, 30.0), 2.0);
    EXPECT_DOUBLE_EQ(faults::retryBackoff(4, 0.5, 30.0), 4.0);
    EXPECT_DOUBLE_EQ(faults::retryBackoff(10, 0.5, 30.0), 30.0);
    EXPECT_DOUBLE_EQ(faults::retryBackoff(100, 0.5, 30.0), 30.0);
}

TEST(DriverFaults, AllAttemptsFailingExhaustsRetries)
{
    const auto workload = workloadWith({0.0});
    policy::FixedKeepAlive policy(600.0);
    DriverConfig config = noNoise();
    config.faults.transientFailureProbability = 1.0;
    config.maxRetries = 2;
    Driver driver(workload, smallClusterConfig(), policy, config);
    const auto result = driver.run();
    // Initial attempt + 2 retries, then the invocation is dropped.
    EXPECT_EQ(result.metrics.failedAttempts(), 3u);
    EXPECT_EQ(result.metrics.retries(), 2u);
    EXPECT_EQ(result.metrics.permanentFailures(), 1u);
    EXPECT_EQ(result.metrics.records().size(), 0u);
}

TEST(DriverFaults, ZeroRetriesDropsOnFirstFailure)
{
    const auto workload = workloadWith({0.0});
    policy::FixedKeepAlive policy(600.0);
    DriverConfig config = noNoise();
    config.faults.transientFailureProbability = 1.0;
    config.maxRetries = 0;
    Driver driver(workload, smallClusterConfig(), policy, config);
    const auto result = driver.run();
    EXPECT_EQ(result.metrics.failedAttempts(), 1u);
    EXPECT_EQ(result.metrics.retries(), 0u);
    EXPECT_EQ(result.metrics.permanentFailures(), 1u);
}

TEST(DriverFaults, ZeroFaultConfigMatchesBaselineBitExactly)
{
    // The acceptance property: a Driver given an all-zero FaultConfig
    // (with any seed) behaves bit-identically to one with the default
    // config — same records, same spend, same availability.
    trace::TraceConfig traceConfig;
    traceConfig.numFunctions = 40;
    traceConfig.days = 0.05;
    const auto workload =
        trace::TraceGenerator::generate(traceConfig);
    auto runWith = [&](DriverConfig config) {
        policy::FixedKeepAlive policy;
        Driver driver(workload, cluster::ClusterConfig{}, policy,
                      config);
        return driver.run();
    };
    DriverConfig baseline;
    DriverConfig zeroFaults;
    zeroFaults.faults.seed = 0xdeadbeef; // still disabled
    const auto a = runWith(baseline);
    const auto b = runWith(zeroFaults);
    ASSERT_EQ(a.metrics.records().size(), b.metrics.records().size());
    for (std::size_t i = 0; i < a.metrics.records().size(); ++i) {
        EXPECT_EQ(a.metrics.records()[i].function,
                  b.metrics.records()[i].function);
        EXPECT_EQ(a.metrics.records()[i].arrival,
                  b.metrics.records()[i].arrival);
        EXPECT_EQ(a.metrics.records()[i].service(),
                  b.metrics.records()[i].service());
    }
    EXPECT_EQ(a.keepAliveSpend, b.keepAliveSpend);
    EXPECT_EQ(a.metrics.failedAttempts(), 0u);
    EXPECT_EQ(b.metrics.failedAttempts(), 0u);
    EXPECT_DOUBLE_EQ(a.metrics.availability(), 1.0);
    EXPECT_DOUBLE_EQ(b.metrics.availability(), 1.0);
    EXPECT_EQ(a.nodeCrashes, 0u);
}

TEST(DriverFaults, NodeChurnRunCompletesWithAccounting)
{
    trace::TraceConfig traceConfig;
    traceConfig.numFunctions = 50;
    traceConfig.days = 0.1;
    const auto workload =
        trace::TraceGenerator::generate(traceConfig);
    policy::FixedKeepAlive policy;
    DriverConfig config;
    config.faults.nodeMtbfSeconds = 1800.0;
    config.faults.nodeMttrSeconds = 300.0;
    config.faults.transientFailureProbability = 1e-3;
    Driver driver(workload, smallClusterConfig(4, 3), policy, config);
    const auto result = driver.run();
    EXPECT_GT(result.nodeCrashes, 0u);
    EXPECT_EQ(result.nodeCrashes, result.nodeRecoveries);
    EXPECT_LT(result.metrics.availability(), 1.0);
    EXPECT_GT(result.metrics.availability(), 0.5);
    EXPECT_GT(result.metrics.failedAttempts(), 0u);
    // Every invocation is served, dropped after retries, or left
    // queued at the horizon — nothing disappears.
    EXPECT_EQ(result.metrics.records().size() +
                  result.metrics.permanentFailures() + result.unserved,
              workload.invocations.size());
}

TEST(DriverFaults, FaultRunsAreDeterministic)
{
    trace::TraceConfig traceConfig;
    traceConfig.numFunctions = 30;
    traceConfig.days = 0.05;
    const auto workload =
        trace::TraceGenerator::generate(traceConfig);
    auto runOnce = [&] {
        policy::FixedKeepAlive policy;
        DriverConfig config;
        config.faults.nodeMtbfSeconds = 900.0;
        config.faults.nodeMttrSeconds = 120.0;
        config.faults.transientFailureProbability = 1e-3;
        config.faults.memoryShockMtbfSeconds = 1200.0;
        Driver driver(workload, smallClusterConfig(3, 2), policy,
                      config);
        return driver.run();
    };
    const auto a = runOnce();
    const auto b = runOnce();
    EXPECT_DOUBLE_EQ(a.metrics.meanServiceTime(),
                     b.metrics.meanServiceTime());
    EXPECT_EQ(a.nodeCrashes, b.nodeCrashes);
    EXPECT_EQ(a.metrics.failedAttempts(), b.metrics.failedAttempts());
    EXPECT_EQ(a.metrics.retries(), b.metrics.retries());
    EXPECT_DOUBLE_EQ(a.keepAliveSpend, b.keepAliveSpend);
    EXPECT_DOUBLE_EQ(a.metrics.availability(),
                     b.metrics.availability());
}

TEST(DriverFaults, MemoryShockEvictsWarmPool)
{
    // One function re-invoked every 200 s under a long keep-alive:
    // without shocks only the first start is cold; frequent
    // full-eviction shocks force re-invocations cold again.
    std::vector<Seconds> arrivals;
    for (int i = 0; i < 20; ++i)
        arrivals.push_back(i * 200.0);
    const auto workload = workloadWith(arrivals);
    auto coldStartsWith = [&](Seconds shockMtbf) {
        policy::FixedKeepAlive policy(3600.0);
        DriverConfig config = noNoise();
        config.faults.memoryShockMtbfSeconds = shockMtbf;
        config.faults.memoryShockFraction = 1.0;
        Driver driver(workload, smallClusterConfig(1, 0), policy,
                      config);
        return driver.run().metrics.coldStarts();
    };
    EXPECT_EQ(coldStartsWith(0.0), 1u);
    EXPECT_GT(coldStartsWith(60.0), 1u);
}

TEST(DriverFaults, RejectsNegativeRetryConfig)
{
    const auto workload = workloadWith({0.0});
    policy::FixedKeepAlive policy(600.0);
    DriverConfig config;
    config.maxRetries = -1;
    EXPECT_DEATH(
        {
            Driver driver(workload, smallClusterConfig(), policy,
                          config);
        },
        "maxRetries");
}

TEST(DriverFaults, InFlightWorkStaysOnItsNodesCoreTracks)
{
    // Node crashes, memory shocks and transient failures on two-core
    // nodes, traced. In-flight work is named by (node, core), so every
    // execution, failed attempt and prewarm is drawn on a core track
    // of its node, one core runs one thing at a time, and a crash ends
    // everything on its node.
    trace::TraceConfig traceConfig;
    traceConfig.numFunctions = 40;
    traceConfig.days = 0.1;
    const auto workload =
        trace::TraceGenerator::generate(traceConfig);
    const cluster::ClusterConfig clusterConfig = smallClusterConfig(4, 3);
    DriverConfig config;
    config.faults.nodeMtbfSeconds = 1800.0;
    config.faults.nodeMttrSeconds = 120.0;
    config.faults.memoryShockMtbfSeconds = 1200.0;
    config.faults.transientFailureProbability = 1e-2;
    obs::TraceBuffer buffer;
    config.trace = &buffer;
    core::CodeCrunchConfig cc;
    cc.budgetRatePerSecond = 5e-4; // keeps (and prewarms) containers
    core::CodeCrunch policy(cc);
    Driver driver(workload, clusterConfig, policy, config);
    const auto result = driver.run();

    using Kind = obs::TraceEvent::Kind;
    const auto cores =
        static_cast<std::uint32_t>(clusterConfig.coresPerNode);
    const auto nodes = static_cast<std::uint32_t>(
        clusterConfig.numX86 + clusterConfig.numArm);
    struct Slice {
        Seconds begin;
        Seconds end;
        bool killedByCrash;
    };
    // Per node: the slices of each core, and the crash times.
    std::vector<std::vector<std::vector<Slice>>> slices(
        nodes, std::vector<std::vector<Slice>>(cores));
    std::vector<std::vector<Seconds>> crashes(nodes);
    std::map<Kind, std::size_t> seen;
    std::size_t crashKilled = 0;
    for (const obs::TraceEvent& event : buffer.events()) {
        ++seen[event.kind];
        if (event.kind != Kind::NodeCrash &&
            event.kind != Kind::Invocation &&
            event.kind != Kind::AttemptFailed &&
            event.kind != Kind::Prewarm)
            continue;
        // Node tracks: each node's cores, then its background track.
        ASSERT_GE(event.tid, 1u);
        const std::uint32_t node = (event.tid - 1) / (cores + 1);
        const std::uint32_t track = (event.tid - 1) % (cores + 1);
        ASSERT_LT(node, nodes);
        if (event.kind == Kind::NodeCrash) {
            EXPECT_EQ(track, cores);
            crashes[node].push_back(event.ts);
            continue;
        }
        ASSERT_LT(track, cores) << "in-flight work on a background track";
        const std::string arch =
            node < static_cast<std::uint32_t>(clusterConfig.numX86)
                ? "x86"
                : "arm";
        EXPECT_EQ(buffer.trackNames().at(event.tid),
                  "node" + std::to_string(node) + "/" + arch + " c" +
                      std::to_string(track));
        const bool killed =
            event.kind != Kind::Invocation && event.u8 == 1;
        crashKilled += killed;
        slices[node][track].push_back(
            {event.ts, event.ts + event.dur, killed});
    }
    EXPECT_GT(result.nodeCrashes, 0u);
    EXPECT_GT(seen[Kind::MemoryShock], 0u);
    EXPECT_GT(seen[Kind::Invocation], 0u);
    EXPECT_GT(seen[Kind::AttemptFailed], 0u);
    EXPECT_GT(seen[Kind::Prewarm], 0u);
    EXPECT_GT(crashKilled, 0u);

    constexpr double kEps = 1e-9;
    for (std::uint32_t node = 0; node < nodes; ++node) {
        for (auto& core : slices[node]) {
            std::sort(core.begin(), core.end(),
                      [](const Slice& a, const Slice& b) {
                          return a.begin < b.begin;
                      });
            for (std::size_t i = 1; i < core.size(); ++i)
                EXPECT_LE(core[i - 1].end, core[i].begin + kEps)
                    << "overlap on node " << node;
            for (const Slice& slice : core) {
                bool endsAtCrash = false;
                for (const Seconds crash : crashes[node]) {
                    // Nothing on the node runs across its crash...
                    if (slice.begin < crash) {
                        EXPECT_LE(slice.end, crash + kEps)
                            << "slice on node " << node
                            << " outlives the crash at " << crash;
                    }
                    endsAtCrash |= std::abs(slice.end - crash) < kEps;
                }
                // ...and the work the crash killed ends exactly then.
                if (slice.killedByCrash) {
                    EXPECT_TRUE(endsAtCrash);
                }
            }
        }
    }
}

// --- Controller watchdog ----------------------------------------------------

TEST(Watchdog, EvaluationBudgetTripsAndPreservesRun)
{
    trace::TraceConfig traceConfig;
    traceConfig.numFunctions = 40;
    traceConfig.days = 0.05;
    const auto workload =
        trace::TraceGenerator::generate(traceConfig);

    core::CodeCrunchConfig strict;
    strict.watchdog.maxEvaluationsPerTick = 1; // impossible budget
    core::CodeCrunch strictPolicy(strict);
    Driver strictDriver(workload, cluster::ClusterConfig{},
                        strictPolicy, DriverConfig{});
    const auto strictResult = strictDriver.run();
    EXPECT_GT(strictPolicy.watchdogTrips(), 0u);
    EXPECT_TRUE(strictPolicy.lastTick().degraded);
    // Degraded, not dead: every invocation is still served.
    EXPECT_EQ(strictResult.metrics.records().size(),
              workload.invocations.size());

    core::CodeCrunch relaxedPolicy{core::CodeCrunchConfig{}};
    Driver relaxedDriver(workload, cluster::ClusterConfig{},
                         relaxedPolicy, DriverConfig{});
    relaxedDriver.run();
    EXPECT_EQ(relaxedPolicy.watchdogTrips(), 0u);
}

// --- failure domains --------------------------------------------------------

namespace {

faults::FaultConfig
domainOutageConfig(Seconds mtbf = 3600.0, Seconds mttr = 600.0)
{
    faults::FaultConfig config;
    config.domainMtbfSeconds = mtbf;
    config.domainMttrSeconds = mttr;
    return config;
}

} // namespace

TEST(FaultPlanDomains, SameConfigYieldsIdenticalSchedule)
{
    const auto config = domainOutageConfig();
    const faults::FaultPlan a(config, 8, 86400.0, 4);
    const faults::FaultPlan b(config, 8, 86400.0, 4);
    ASSERT_FALSE(a.events().empty());
    EXPECT_EQ(a.events(), b.events());
}

TEST(FaultPlanDomains, OutageHitsEveryMemberAtOneTimestamp)
{
    const int numDomains = 4;
    const std::size_t numNodes = 10;
    const faults::FaultPlan plan(domainOutageConfig(1800.0), numNodes,
                                 86400.0, numDomains);
    ASSERT_FALSE(plan.events().empty());
    // Group the correlated events by (time, kind): every group must
    // cover exactly the member set of its domain — a domain outage
    // takes the whole rack down (and back up) at one instant.
    std::map<std::pair<Seconds, faults::FaultKind>,
             std::pair<int, std::vector<NodeId>>>
        groups;
    for (const auto& event : plan.events()) {
        ASSERT_GE(event.domain, 0); // domain-only config
        auto& group = groups[{event.time, event.kind}];
        group.first = event.domain;
        group.second.push_back(event.node);
    }
    ASSERT_FALSE(groups.empty());
    for (auto& [key, group] : groups) {
        std::vector<NodeId> expected;
        for (NodeId n = 0; n < numNodes; ++n) {
            if (faultDomainOf(n, numDomains) == group.first)
                expected.push_back(n);
        }
        std::sort(group.second.begin(), group.second.end());
        EXPECT_EQ(group.second, expected);
    }
}

TEST(FaultPlanDomains, DomainFaultsDoNotPerturbPerNodeStreams)
{
    const auto nodeOnly = crashyConfig();
    faults::FaultConfig combined = crashyConfig();
    combined.domainMtbfSeconds = 3600.0;
    combined.domainShockMtbfSeconds = 7200.0;
    const faults::FaultPlan a(nodeOnly, 8, 86400.0, 4);
    const faults::FaultPlan b(combined, 8, 86400.0, 4);
    // The per-node schedule draws from its own streams: adding domain
    // faults must not move a single independent event.
    std::vector<faults::FaultEvent> independent;
    for (const auto& event : b.events()) {
        if (event.domain < 0)
            independent.push_back(event);
    }
    EXPECT_EQ(independent, a.events());
    EXPECT_GT(b.events().size(), a.events().size());
}

TEST(FaultPlanDomains, RejectsInvalidDomainConfigs)
{
    const auto config = domainOutageConfig();
    // Domain faults require a domain-partitioned cluster.
    EXPECT_DEATH({ faults::FaultPlan plan(config, 8, 3600.0, 0); },
                 "failure domain");
    EXPECT_DEATH({ faults::FaultPlan plan(config, 8, 3600.0, 1); },
                 "failure domain");
    faults::FaultConfig badMttr = domainOutageConfig();
    badMttr.domainMttrSeconds = 0.0;
    EXPECT_DEATH({ faults::FaultPlan plan(badMttr, 8, 3600.0, 4); },
                 "domainMttrSeconds");
}

TEST(DriverDomainFaults, CorrelatedRunsAreDeterministic)
{
    trace::TraceConfig traceConfig;
    traceConfig.numFunctions = 30;
    traceConfig.days = 0.05;
    const auto workload =
        trace::TraceGenerator::generate(traceConfig);
    auto runOnce = [&] {
        policy::FixedKeepAlive policy;
        cluster::ClusterConfig clusterConfig = smallClusterConfig(3, 2);
        clusterConfig.numFaultDomains = 2;
        clusterConfig.domainCooldownSeconds = 300.0;
        DriverConfig config;
        config.faults.domainMtbfSeconds = 1800.0;
        config.faults.domainMttrSeconds = 120.0;
        config.faults.domainShockMtbfSeconds = 2400.0;
        Driver driver(workload, clusterConfig, policy, config);
        return driver.run();
    };
    const auto a = runOnce();
    const auto b = runOnce();
    EXPECT_GT(a.nodeCrashes, 0u);
    EXPECT_DOUBLE_EQ(a.metrics.meanServiceTime(),
                     b.metrics.meanServiceTime());
    EXPECT_EQ(a.nodeCrashes, b.nodeCrashes);
    EXPECT_DOUBLE_EQ(a.keepAliveSpend, b.keepAliveSpend);
    EXPECT_DOUBLE_EQ(a.refundedDollars, b.refundedDollars);
    EXPECT_DOUBLE_EQ(a.metrics.availability(),
                     b.metrics.availability());
    // Per-domain availability is reported, bounded, and replayable.
    ASSERT_EQ(a.metrics.domainAvailability().size(), 2u);
    for (std::size_t d = 0; d < 2; ++d) {
        EXPECT_GT(a.metrics.domainAvailability()[d], 0.0);
        EXPECT_LE(a.metrics.domainAvailability()[d], 1.0);
        EXPECT_DOUBLE_EQ(a.metrics.domainAvailability()[d],
                         b.metrics.domainAvailability()[d]);
    }
}

TEST(DriverDomainFaults, OverlappingNodeAndDomainSchedulesAreSafe)
{
    // Per-node and domain outages are generated independently, so a
    // domain outage may hit an already-down node (and a recovery an
    // already-up one); the driver treats those as no-ops. Aggressive
    // rates make overlaps near-certain; completing without a Cluster
    // panic plus conservation is the check.
    trace::TraceConfig traceConfig;
    traceConfig.numFunctions = 30;
    traceConfig.days = 0.05;
    const auto workload =
        trace::TraceGenerator::generate(traceConfig);
    policy::FixedKeepAlive policy;
    cluster::ClusterConfig clusterConfig = smallClusterConfig(3, 2);
    clusterConfig.numFaultDomains = 2;
    DriverConfig config;
    config.faults.nodeMtbfSeconds = 600.0;
    config.faults.nodeMttrSeconds = 300.0;
    config.faults.domainMtbfSeconds = 900.0;
    config.faults.domainMttrSeconds = 300.0;
    Driver driver(workload, clusterConfig, policy, config);
    const auto result = driver.run();
    EXPECT_GT(result.nodeCrashes, 0u);
    EXPECT_EQ(result.nodeCrashes, result.nodeRecoveries);
    EXPECT_EQ(result.metrics.records().size() +
                  result.metrics.permanentFailures() + result.unserved,
              workload.invocations.size());
}

TEST(DriverDomainFaults, RecoveryRePrewarmRestocksWarmPool)
{
    trace::TraceConfig traceConfig;
    traceConfig.numFunctions = 40;
    traceConfig.days = 0.1;
    const auto workload =
        trace::TraceGenerator::generate(traceConfig);
    cluster::ClusterConfig clusterConfig = smallClusterConfig(4, 3);
    clusterConfig.numFaultDomains = 3;
    clusterConfig.domainCooldownSeconds = 300.0;
    DriverConfig config;
    config.faults.domainMtbfSeconds = 3600.0;
    // Short downtime: functions the optimizer keeps warm are lost in
    // the crash but mostly not re-invoked before the recovery, so the
    // debt list is non-trivial when onNodeRecover fires.
    config.faults.domainMttrSeconds = 120.0;
    auto runWith = [&](bool reactive) {
        core::CodeCrunchConfig cc;
        // A generous budget (the benches prime it from SitW's healthy
        // spend): non-zero keep-alives plus banked credit, which is
        // what finances the recovery prewarms.
        cc.budgetRatePerSecond = 5e-4;
        cc.reactiveRecovery = reactive;
        core::CodeCrunch policy(cc);
        Driver driver(workload, clusterConfig, policy, config);
        return driver.run();
    };
    const auto reactive = runWith(true);
    const auto baseline = runWith(false);
    EXPECT_GT(reactive.nodeCrashes, 0u);
    // The reactive policy re-prewarms crash-lost functions on
    // recovery; the -noReact ablation never does.
    EXPECT_GT(reactive.rePrewarmsIssued, 0u);
    EXPECT_EQ(baseline.rePrewarmsIssued, 0u);

    core::CodeCrunchConfig noReact;
    noReact.reactiveRecovery = false;
    EXPECT_NE(core::CodeCrunch(noReact).name().find("-noReact"),
              std::string::npos);
}
