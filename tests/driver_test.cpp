/**
 * @file
 * Simulation-driver tests: end-to-end mechanics on hand-built
 * workloads — warm/cold/compressed start paths, queueing, reclaim,
 * prewarm, metric identities, determinism, and cost accounting.
 */
#include <gtest/gtest.h>

#include "experiments/driver.hpp"
#include "policy/fixed_keepalive.hpp"
#include "policy/policy.hpp"
#include "trace/generator.hpp"

using namespace codecrunch;
using namespace codecrunch::experiments;

namespace {

/** A single-function workload with explicit arrival times. */
trace::Workload
workloadWith(std::vector<Seconds> arrivals, Seconds exec = 2.0,
             Seconds cold = 3.0, MegaBytes memory = 1000,
             Seconds decompress = 1.0, MegaBytes compressedMb = 300)
{
    trace::Workload workload;
    trace::FunctionProfile f;
    f.id = 0;
    f.name = "fn-under-test";
    f.memoryMb = memory;
    f.imageMb = memory;
    f.compressedMb = compressedMb;
    f.compressRatio = memory / compressedMb;
    f.exec[0] = exec;
    f.exec[1] = exec * 1.2;
    f.coldStart[0] = cold;
    f.coldStart[1] = cold * 1.1;
    f.decompress[0] = decompress;
    f.decompress[1] = decompress * 1.1;
    f.compressTime[0] = 0.5;
    f.compressTime[1] = 0.6;
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
oneNodeConfig()
{
    cluster::ClusterConfig config;
    config.numX86 = 1;
    config.numArm = 0;
    config.coresPerNode = 1;
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

TEST(Driver, ColdThenWarmStart)
{
    const auto workload = workloadWith({0.0, 100.0});
    policy::FixedKeepAlive policy(600.0);
    Driver driver(workload, oneNodeConfig(), policy, noNoise());
    const auto result = driver.run();
    const auto& records = result.metrics.records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].start, StartType::Cold);
    EXPECT_DOUBLE_EQ(records[0].startup, 3.0);
    EXPECT_DOUBLE_EQ(records[0].exec, 2.0);
    EXPECT_EQ(records[1].start, StartType::Warm);
    EXPECT_DOUBLE_EQ(records[1].startup, 0.0);
    EXPECT_DOUBLE_EQ(records[1].service(), 2.0);
}

TEST(Driver, ExpiredContainerGoesColdAgain)
{
    const auto workload = workloadWith({0.0, 1000.0});
    policy::FixedKeepAlive policy(600.0); // expires before t=1000
    Driver driver(workload, oneNodeConfig(), policy, noNoise());
    const auto result = driver.run();
    EXPECT_EQ(result.metrics.records()[1].start, StartType::Cold);
    EXPECT_EQ(result.metrics.coldStarts(), 2u);
}

TEST(Driver, CompressedWarmStartPaysDecompression)
{
    const auto workload = workloadWith({0.0, 100.0});
    policy::FixedKeepAlive policy(600.0, /*compressAll=*/true);
    Driver driver(workload, oneNodeConfig(), policy, noNoise());
    const auto result = driver.run();
    const auto& records = result.metrics.records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[1].start, StartType::WarmCompressed);
    EXPECT_DOUBLE_EQ(records[1].startup, 1.0);
    EXPECT_EQ(result.metrics.compressedStarts(), 1u);
    // Both keep-alive periods (after each execution) compress.
    EXPECT_EQ(result.metrics.compressions(), 2u);
}

TEST(Driver, ReinvocationBeforeCompressionFinishesIsPlainWarm)
{
    // Second arrival 0.1 s after the first finishes (exec 2 s): the
    // 0.5 s compression has not completed, so the start is plain warm.
    const auto workload = workloadWith({0.0, 5.2});
    policy::FixedKeepAlive policy(600.0, true);
    Driver driver(workload, oneNodeConfig(), policy, noNoise());
    const auto result = driver.run();
    EXPECT_EQ(result.metrics.records()[1].start, StartType::Warm);
}

TEST(Driver, ServiceTimeIdentity)
{
    trace::TraceConfig config;
    config.numFunctions = 50;
    config.days = 0.05;
    const auto workload = trace::TraceGenerator::generate(config);
    policy::FixedKeepAlive policy;
    Driver driver(workload, cluster::ClusterConfig{}, policy);
    const auto result = driver.run();
    ASSERT_EQ(result.metrics.records().size(),
              workload.invocations.size());
    for (const auto& r : result.metrics.records()) {
        EXPECT_NEAR(r.service(), r.wait + r.startup + r.exec, 1e-9);
        EXPECT_GE(r.wait, 0.0);
        EXPECT_GE(r.startup, 0.0);
        EXPECT_GT(r.exec, 0.0);
    }
}

TEST(Driver, QueueingWhenSaturated)
{
    // One core; two simultaneous arrivals: the second waits for the
    // full service of the first (cold 3 + exec 2).
    const auto workload = workloadWith({0.0, 0.0});
    policy::FixedKeepAlive policy(0.0); // no keep-alive
    Driver driver(workload, oneNodeConfig(), policy, noNoise());
    const auto result = driver.run();
    const auto& records = result.metrics.records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_DOUBLE_EQ(records[0].wait, 0.0);
    EXPECT_DOUBLE_EQ(records[1].wait, 5.0);
    EXPECT_EQ(result.unserved, 0u);
}

TEST(Driver, ReclaimEvictsWarmForExecution)
{
    // Node memory 4096; function A (3000 MB) warm blocks function B
    // (3000 MB) from placing — the driver must evict A's idle
    // container to run B.
    trace::Workload workload = workloadWith({0.0});
    trace::FunctionProfile b = workload.functions[0];
    b.id = 1;
    b.name = "fn-b";
    workload.functions[0].memoryMb = 3000;
    b.memoryMb = 3000;
    workload.functions.push_back(b);
    workload.invocations.push_back({1, 50.0, 1.0});
    workload.duration = 200.0;

    policy::FixedKeepAlive policy(600.0);
    Driver driver(workload, oneNodeConfig(), policy, noNoise());
    const auto result = driver.run();
    EXPECT_EQ(result.unserved, 0u);
    EXPECT_EQ(result.metrics.records().size(), 2u);
    EXPECT_EQ(result.endEvictedForExec, 1u);
}

TEST(Driver, WarmCapDropsKeepsWhenPolicyDeclines)
{
    cluster::ClusterConfig config = oneNodeConfig();
    config.keepAliveMemoryFraction = 0.1; // 409 MB: below footprint
    const auto workload = workloadWith({0.0, 100.0});
    policy::FixedKeepAlive policy(600.0);
    Driver driver(workload, config, policy, noNoise());
    const auto result = driver.run();
    // The keep never fits, so the second start is cold.
    EXPECT_EQ(result.metrics.records()[1].start, StartType::Cold);
    EXPECT_EQ(result.keepDropped, 2u);
}

TEST(Driver, PrewarmCreatesWarmContainer)
{
    /** Policy that pre-warms function 0 at the first tick. */
    class PrewarmOnce : public policy::Policy {
      public:
        std::string name() const override { return "prewarm-once"; }
        policy::KeepAliveDecision
        onFinish(const metrics::InvocationRecord&) override
        {
            return {};
        }
        void
        onTick(Seconds) override
        {
            if (!done_) {
                done_ = true;
                fired = context_->requestPrewarm(0, NodeType::X86,
                                                 600.0);
            }
        }
        bool fired = false;

      private:
        bool done_ = false;
    };

    const auto workload = workloadWith({120.0});
    PrewarmOnce policy;
    Driver driver(workload, oneNodeConfig(), policy, noNoise());
    const auto result = driver.run();
    EXPECT_TRUE(policy.fired);
    ASSERT_EQ(result.metrics.records().size(), 1u);
    // Prewarmed at t=60 (+3 s cold start): the t=120 arrival is warm.
    EXPECT_EQ(result.metrics.records()[0].start, StartType::Warm);
}

TEST(Driver, SetKeepAliveExtendsExpiry)
{
    /** Policy that keeps 60 s but extends at every tick. */
    class Extender : public policy::Policy {
      public:
        std::string name() const override { return "extender"; }
        policy::KeepAliveDecision
        onFinish(const metrics::InvocationRecord&) override
        {
            return {60.0, false, std::nullopt};
        }
        void
        onTick(Seconds) override
        {
            context_->requestSetKeepAlive(0, 120.0);
        }
    };

    // Arrival at 0, re-invocation at 300 s: 60 s keep-alive alone
    // would expire, but per-tick extension carries it through.
    const auto workload = workloadWith({0.0, 300.0});
    Extender policy;
    Driver driver(workload, oneNodeConfig(), policy, noNoise());
    const auto result = driver.run();
    EXPECT_EQ(result.metrics.records()[1].start, StartType::Warm);
}

TEST(Driver, RequestEvictRemovesContainers)
{
    class EvictAtTick : public policy::Policy {
      public:
        std::string name() const override { return "evictor"; }
        policy::KeepAliveDecision
        onFinish(const metrics::InvocationRecord&) override
        {
            return {3600.0, false, std::nullopt};
        }
        void
        onTick(Seconds) override
        {
            context_->requestEvict(0);
        }
    };

    const auto workload = workloadWith({0.0, 300.0});
    EvictAtTick policy;
    Driver driver(workload, oneNodeConfig(), policy, noNoise());
    const auto result = driver.run();
    EXPECT_EQ(result.metrics.records()[1].start, StartType::Cold);
}

TEST(Driver, CrossArchWarmupPrewarmsOtherSide)
{
    class KeepOnArm : public policy::Policy {
      public:
        std::string name() const override { return "keep-on-arm"; }
        policy::KeepAliveDecision
        onFinish(const metrics::InvocationRecord&) override
        {
            return {600.0, false, NodeType::ARM};
        }
    };

    cluster::ClusterConfig config = oneNodeConfig();
    config.numArm = 1;
    const auto workload = workloadWith({0.0, 100.0});
    KeepOnArm policy;
    Driver driver(workload, config, policy, noNoise());
    const auto result = driver.run();
    const auto& records = result.metrics.records();
    EXPECT_EQ(records[1].start, StartType::Warm);
    EXPECT_EQ(records[1].nodeType, NodeType::ARM);
}

TEST(Driver, CompressedContainerSurvivesMemorySqueeze)
{
    // Node: 2 cores, 1300 MB. Function A (1000 MB, compressed to
    // 200 MB) is kept warm compressed. Function B (1000 MB) then
    // executes. A's re-invocation arrives while B runs: expanding the
    // compressed container (200 -> 1000 MB) does not fit, and no node
    // can host a cold start either — but the idle compressed
    // container must NOT be sacrificed for a doomed reclaim. When B
    // finishes, A starts warm-compressed.
    trace::Workload workload = workloadWith({0.0, 11.0});
    trace::FunctionProfile b = workload.functions[0];
    b.id = 1;
    b.name = "fn-b";
    b.exec[0] = b.exec[1] = 5.0;
    workload.functions.push_back(b);
    workload.invocations.push_back({1, 10.0, 1.0});
    std::sort(workload.invocations.begin(),
              workload.invocations.end(),
              [](const Invocation& x, const Invocation& y) {
                  return x.arrival < y.arrival;
              });
    workload.duration = 120.0;

    cluster::ClusterConfig config;
    config.numX86 = 1;
    config.numArm = 0;
    config.coresPerNode = 2;
    config.memoryPerNodeMb = 1300;
    policy::FixedKeepAlive policy(600.0, /*compressAll=*/true);
    Driver driver(workload, config, policy, noNoise());
    const auto result = driver.run();

    // A cold at 0, B cold at 10, A warm-compressed after B finishes.
    const auto& records = result.metrics.records();
    ASSERT_EQ(records.size(), 3u);
    const auto& reinvocation = records[2];
    EXPECT_EQ(reinvocation.function, 0u);
    EXPECT_EQ(reinvocation.start, StartType::WarmCompressed);
    EXPECT_GT(reinvocation.wait, 1.0); // waited for B to finish
}

TEST(Driver, DeterministicAcrossRuns)
{
    trace::TraceConfig config;
    config.numFunctions = 60;
    config.days = 0.05;
    const auto workload = trace::TraceGenerator::generate(config);
    auto runOnce = [&] {
        policy::FixedKeepAlive policy;
        Driver driver(workload, cluster::ClusterConfig{}, policy);
        return driver.run().metrics.meanServiceTime();
    };
    EXPECT_DOUBLE_EQ(runOnce(), runOnce());
}

TEST(Driver, CostMatchesHandComputation)
{
    // One invocation, kept for exactly 600 s (expiry), 1000 MB on x86.
    const auto workload = workloadWith({0.0});
    policy::FixedKeepAlive policy(600.0);
    cluster::ClusterConfig config = oneNodeConfig();
    Driver driver(workload, config, policy, noNoise());
    const auto result = driver.run();
    const double rate =
        config.x86CostPerHour / config.memoryPerNodeMb / 3600.0;
    EXPECT_NEAR(result.keepAliveSpend, rate * 1000 * 600, 1e-9);
}

TEST(Driver, CompressedContainerCostsLess)
{
    const auto workload = workloadWith({0.0});
    auto runSpend = [&](bool compress) {
        policy::FixedKeepAlive policy(600.0, compress);
        Driver driver(workload, oneNodeConfig(), policy, noNoise());
        return driver.run().keepAliveSpend;
    };
    const double plain = runSpend(false);
    const double packed = runSpend(true);
    // 0.5 s at 1000 MB, then 599.5 s at 300 MB.
    EXPECT_LT(packed, plain * 0.45);
}

TEST(Driver, TimelineBinsSumToInvocations)
{
    trace::TraceConfig config;
    config.numFunctions = 40;
    config.days = 0.05;
    const auto workload = trace::TraceGenerator::generate(config);
    policy::FixedKeepAlive policy;
    Driver driver(workload, cluster::ClusterConfig{}, policy);
    const auto result = driver.run();
    std::size_t binned = 0;
    for (const auto& bin : result.metrics.timeline())
        binned += bin.invocations;
    EXPECT_EQ(binned, workload.invocations.size());
}

TEST(Driver, EmptyWorkloadCompletes)
{
    trace::Workload workload;
    workload.duration = 60.0;
    policy::FixedKeepAlive policy;
    Driver driver(workload, cluster::ClusterConfig{}, policy);
    const auto result = driver.run();
    EXPECT_EQ(result.metrics.invocations(), 0u);
    EXPECT_DOUBLE_EQ(result.keepAliveSpend, 0.0);
}

TEST(Driver, RejectsInvocationOutsideCatalog)
{
    // One profile (id 0); the second arrival names function 1.
    auto workload = workloadWith({0.0, 10.0});
    workload.invocations.back().function = 1;
    policy::FixedKeepAlive policy;
    EXPECT_DEATH(
        { Driver driver(workload, oneNodeConfig(), policy, noNoise()); },
        "function 1 outside the catalog of 1");
}

TEST(Driver, DecisionTimeIsMeasured)
{
    trace::TraceConfig config;
    config.numFunctions = 30;
    config.days = 0.05;
    const auto workload = trace::TraceGenerator::generate(config);
    policy::FixedKeepAlive policy;
    Driver driver(workload, cluster::ClusterConfig{}, policy);
    const auto result = driver.run();
    EXPECT_GT(result.decisionWallSeconds, 0.0);
    EXPECT_LT(result.decisionWallSeconds, 10.0);
}

TEST(Driver, MemoryNeverOvercommitted)
{
    // The Cluster panics on any overcommit, so a clean run of a
    // saturating workload is itself the invariant check.
    trace::TraceConfig config;
    config.numFunctions = 200;
    config.days = 0.1;
    config.targetMeanRatePerSecond = 5.0;
    const auto workload = trace::TraceGenerator::generate(config);
    cluster::ClusterConfig clusterConfig;
    clusterConfig.numX86 = 2;
    clusterConfig.numArm = 2;
    clusterConfig.keepAliveMemoryFraction = 0.3;
    policy::FixedKeepAlive policy;
    Driver driver(workload, clusterConfig, policy);
    const auto result = driver.run();
    EXPECT_EQ(result.metrics.invocations() + result.unserved,
              workload.invocations.size());
}

TEST(Driver, WarmScanStartsSecondContainerWhenFirstIsBlocked)
{
    // Regression: the warm path used to consult only the single
    // container findWarm() returned; when that one sat on a node with
    // a busy core, the invocation went cold even though a second warm
    // container of the same function was startable elsewhere.
    //
    // Two 1-core nodes. fn0 builds warm containers on BOTH nodes
    // (arrivals 0.0 and 0.5 overlap, so the second cold start spills
    // to node 1). fn1 (long exec) then occupies node 0's core — the
    // node hosting fn0's first (residency-order) container. The fn0
    // re-invocation at t=25 must start warm on node 1.
    trace::Workload workload = workloadWith({0.0, 0.5, 25.0});
    trace::FunctionProfile hog = workload.functions[0];
    hog.id = 1;
    hog.name = "core-hog";
    hog.exec[0] = hog.exec[1] = 30.0;
    workload.functions.push_back(hog);
    workload.invocations.push_back({1, 20.0, 1.0});
    std::sort(workload.invocations.begin(),
              workload.invocations.end(),
              [](const Invocation& x, const Invocation& y) {
                  return x.arrival < y.arrival;
              });
    workload.duration = 120.0;

    cluster::ClusterConfig config = oneNodeConfig();
    config.numX86 = 2;
    policy::FixedKeepAlive policy(600.0);
    Driver driver(workload, config, policy, noNoise());
    const auto result = driver.run();

    const auto& records = result.metrics.records();
    ASSERT_EQ(records.size(), 4u);
    // Find the fn0 arrival at t=25 (record order is finish order).
    const metrics::InvocationRecord* reinvocation = nullptr;
    for (const auto& r : records)
        if (r.function == 0u && r.arrival == 25.0)
            reinvocation = &r;
    ASSERT_NE(reinvocation, nullptr);
    EXPECT_EQ(reinvocation->start, StartType::Warm);
    EXPECT_DOUBLE_EQ(reinvocation->startup, 0.0);
    EXPECT_DOUBLE_EQ(reinvocation->wait, 0.0);
    // Colds: fn0 x2 (bootstrap) + fn1. The re-invocation is not one.
    EXPECT_EQ(result.metrics.coldStarts(), 3u);
}

TEST(Driver, WarmScanPrefersUncompressedContainer)
{
    /** Compress only the container born from the first arrival. */
    class CompressFirst : public policy::Policy {
      public:
        std::string name() const override { return "compress-first"; }
        policy::KeepAliveDecision
        onFinish(const metrics::InvocationRecord& record) override
        {
            policy::KeepAliveDecision decision;
            decision.keepAliveSeconds = 600.0;
            decision.compress = record.arrival < 0.25;
            return decision;
        }
    };

    // fn0 ends up with a compressed container on node 0 (earlier in
    // residency order) and an uncompressed one on node 1. The warm
    // scan must keep looking past the startable compressed container
    // and pick the uncompressed one: zero startup, no decompression.
    trace::Workload workload = workloadWith({0.0, 0.5, 25.0});
    cluster::ClusterConfig config = oneNodeConfig();
    config.numX86 = 2;
    CompressFirst policy;
    Driver driver(workload, config, policy, noNoise());
    const auto result = driver.run();

    const auto& records = result.metrics.records();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[2].start, StartType::Warm);
    EXPECT_DOUBLE_EQ(records[2].startup, 0.0);
    EXPECT_EQ(result.metrics.compressedStarts(), 0u);
}

TEST(Driver, ReclaimWalksCandidatesInDescendingReclaimableOrder)
{
    // Two 4-core nodes, 4096 MB each, warm cap disabled. A placement
    // dance leaves node 0 with 2 idle warm containers (+ a 100 MB
    // running exec) and node 1 with 3 idle warm containers:
    //   node 0 reclaimable = 4096 - 100 = 3996 MB
    //   node 1 reclaimable = 4096 MB
    // A 3600 MB execution fits free memory on neither node. Reclaim
    // must try node 1 FIRST (larger reclaimable): that costs 3
    // evictions (free 1096 -> 2096 -> 3096 -> 4096). Starting from
    // node 0 instead would cost 2 — so the eviction count pins the
    // iteration order.
    trace::Workload workload;
    trace::FunctionProfile base = workloadWith({0.0}).functions[0];
    auto addFn = [&](FunctionId id, MegaBytes memory, Seconds exec,
                     Seconds arrival) {
        trace::FunctionProfile f = base;
        f.id = id;
        f.memoryMb = memory;
        f.exec[0] = f.exec[1] = exec;
        workload.functions.push_back(f);
        workload.invocations.push_back({id, arrival, 1.0});
    };
    addFn(0, 100, 200.0, 0.0); // long-running hold on node 0
    for (FunctionId id = 1; id <= 5; ++id)
        addFn(id, 1000, 2.0, static_cast<Seconds>(id)); // warm pool
    addFn(6, 3600, 2.0, 50.0); // the reclaim-forcing big exec
    workload.duration = 300.0;

    cluster::ClusterConfig config = oneNodeConfig();
    config.numX86 = 2;
    config.coresPerNode = 4;
    config.keepAliveMemoryFraction = 1.0;
    policy::FixedKeepAlive policy(600.0);
    Driver driver(workload, config, policy, noNoise());
    const auto result = driver.run();

    EXPECT_EQ(result.unserved, 0u);
    EXPECT_EQ(result.endEvictedForExec, 3u);
    EXPECT_EQ(result.reclaimFailed, 0u);
}

TEST(Driver, StartupLatencyExactlyMatchesProfile)
{
    // Property: whatever path served an invocation, its recorded
    // startup must be EXACTLY the profile entry for that StartType on
    // the architecture it ran on — warm pays zero, compressed pays
    // decompress[arch], snapshot pays restore[arch], cold pays
    // coldStart[arch]. Exec noise perturbs exec only, never startup.
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
        trace::TraceConfig config;
        config.numFunctions = 40;
        config.days = 0.05;
        config.seed = seed;
        const auto workload = trace::TraceGenerator::generate(config);
        policy::FixedKeepAlive policy(120.0,
                                      /*compressAll=*/seed % 2 == 0);
        Driver driver(workload, cluster::ClusterConfig{}, policy);
        const auto result = driver.run();
        ASSERT_FALSE(result.metrics.records().empty());
        std::size_t byType[4] = {0, 0, 0, 0};
        for (const auto& r : result.metrics.records()) {
            const auto& p = workload.profile(r.function);
            const int arch = static_cast<int>(r.nodeType);
            double expected = 0.0;
            switch (r.start) {
            case StartType::Cold:
                expected = p.coldStart[arch];
                break;
            case StartType::Warm:
                expected = 0.0;
                break;
            case StartType::WarmCompressed:
                expected = p.decompress[arch];
                break;
            case StartType::Snapshot:
                expected = p.restore[arch];
                break;
            }
            EXPECT_DOUBLE_EQ(r.startup, expected);
            ++byType[static_cast<int>(r.start)];
        }
        // The per-StartType counters partition the served set.
        // (warmStarts counts plain + compressed warm starts.)
        EXPECT_EQ(byType[0], result.metrics.coldStarts());
        EXPECT_EQ(byType[1] + byType[2], result.metrics.warmStarts());
        EXPECT_EQ(byType[2], result.metrics.compressedStarts());
        EXPECT_EQ(byType[3], result.metrics.snapshotStarts());
        EXPECT_EQ(byType[0] + byType[1] + byType[2] + byType[3],
                  result.metrics.records().size());
        EXPECT_EQ(result.metrics.coldStarts() +
                      result.metrics.warmStarts() +
                      result.metrics.snapshotStarts(),
                  result.metrics.records().size());
    }
}

namespace {

/** Snapshot-only residency: never keep warm, always keep a snapshot. */
class SnapshotOnly : public policy::Policy {
  public:
    std::string name() const override { return "snapshot-only"; }
    policy::KeepAliveDecision
    onFinish(const metrics::InvocationRecord&) override
    {
        policy::KeepAliveDecision decision;
        decision.keepAliveSeconds = 0.0;
        decision.snapshot = true;
        return decision;
    }
};

/** workloadWith() plus a calibrated snapshot model on the function. */
trace::Workload
snapshotWorkloadWith(std::vector<Seconds> arrivals)
{
    trace::Workload workload = workloadWith(std::move(arrivals));
    trace::FunctionProfile& f = workload.functions[0];
    f.workingSetFraction = 0.3;
    f.snapshotMb = 500.0;
    f.restore[0] = 0.8;
    f.restore[1] = 0.9;
    f.snapshotCreate[0] = 2.0;
    f.snapshotCreate[1] = 2.2;
    return workload;
}

} // namespace

TEST(Driver, SnapshotRestoreServesLaterArrivals)
{
    // Cold at t=0, finish t=5; the snapshot is created in the
    // background (2 s) and the container is NOT kept warm. Both later
    // arrivals restore from the one resident snapshot: a snapshot is
    // not consumed by a start.
    const auto workload = snapshotWorkloadWith({0.0, 100.0, 200.0});
    SnapshotOnly policy;
    Driver driver(workload, oneNodeConfig(), policy, noNoise());
    const auto result = driver.run();

    const auto& records = result.metrics.records();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].start, StartType::Cold);
    EXPECT_EQ(records[1].start, StartType::Snapshot);
    EXPECT_DOUBLE_EQ(records[1].startup, 0.8);
    EXPECT_EQ(records[2].start, StartType::Snapshot);
    EXPECT_EQ(result.metrics.snapshotStarts(), 2u);
    EXPECT_EQ(result.snapshotsCreated, 1u); // deduped across finishes
    EXPECT_GT(result.snapshotStorageSpend, 0.0);
    // Storage is far cheaper than the equivalent keep-alive.
    EXPECT_LT(result.snapshotStorageSpend, 1e-3);
}

TEST(Driver, UnfavorableSnapshotFallsBackToCold)
{
    // restore > coldStart: a resident snapshot exists, but restoring
    // from it would be slower than a plain cold start — the driver
    // must not use it.
    trace::Workload workload = snapshotWorkloadWith({0.0, 100.0});
    workload.functions[0].restore[0] = 5.0; // cold is 3.0
    workload.functions[0].restore[1] = 5.0;
    SnapshotOnly policy;
    Driver driver(workload, oneNodeConfig(), policy, noNoise());
    const auto result = driver.run();

    const auto& records = result.metrics.records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[1].start, StartType::Cold);
    EXPECT_EQ(result.metrics.snapshotStarts(), 0u);
    EXPECT_EQ(result.snapshotsCreated, 1u);
}

TEST(Driver, SnapshotAndKeepWarmPrefersWarm)
{
    /** Keep warm AND snapshot: the warm container wins when present. */
    class WarmPlusSnapshot : public policy::Policy {
      public:
        std::string name() const override { return "warm+snap"; }
        policy::KeepAliveDecision
        onFinish(const metrics::InvocationRecord&) override
        {
            policy::KeepAliveDecision decision;
            decision.keepAliveSeconds = 150.0;
            decision.snapshot = true;
            return decision;
        }
    };

    // t=100 falls inside the keep (expires at finish+150): warm
    // start. t=300 is past every keep: the snapshot carries it.
    const auto workload = snapshotWorkloadWith({0.0, 100.0, 300.0});
    WarmPlusSnapshot policy;
    Driver driver(workload, oneNodeConfig(), policy, noNoise());
    const auto result = driver.run();

    const auto& records = result.metrics.records();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[1].start, StartType::Warm);
    EXPECT_EQ(records[2].start, StartType::Snapshot);
    EXPECT_DOUBLE_EQ(records[2].startup, 0.8);
}

TEST(Driver, RequestDropSnapshotsRemovesResidency)
{
    /** Snapshot after the first finish, drop it at a later tick. */
    class SnapshotThenDrop : public policy::Policy {
      public:
        std::string name() const override { return "snap-then-drop"; }
        policy::KeepAliveDecision
        onFinish(const metrics::InvocationRecord&) override
        {
            policy::KeepAliveDecision decision;
            decision.snapshot = true;
            return decision;
        }
        void
        onTick(Seconds now) override
        {
            if (now >= 50.0)
                context_->requestDropSnapshots(0);
        }
    };

    const auto workload = snapshotWorkloadWith({0.0, 100.0});
    SnapshotThenDrop policy;
    Driver driver(workload, oneNodeConfig(), policy, noNoise());
    const auto result = driver.run();

    const auto& records = result.metrics.records();
    ASSERT_EQ(records.size(), 2u);
    // The snapshot was dropped before t=100: the re-invocation is
    // cold, and the storage spend covers only the resident window.
    // (The cold finish requests a fresh snapshot, hence 2 creations.)
    EXPECT_EQ(records[1].start, StartType::Cold);
    EXPECT_EQ(result.snapshotsCreated, 2u);
    EXPECT_GT(result.snapshotStorageSpend, 0.0);
}

TEST(Driver, FinishedPrewarmWithoutHeadroomIsCountedDropped)
{
    /** Issues two simultaneous prewarms; only one can become warm. */
    class PrewarmTwice : public policy::Policy {
      public:
        std::string name() const override { return "prewarm-twice"; }
        policy::KeepAliveDecision
        onFinish(const metrics::InvocationRecord&) override
        {
            return {};
        }
        void
        onTick(Seconds) override
        {
            if (!done_) {
                done_ = true;
                context_->requestPrewarm(0, NodeType::X86, 600.0);
                context_->requestPrewarm(0, NodeType::X86, 600.0);
            }
        }

      private:
        bool done_ = false;
    };

    // 4096 MB node with a 30% warm cap (~1229 MB): both 1000 MB
    // prewarms run their cold starts concurrently, but only the first
    // finished container fits under the cap — the second has nowhere
    // to live and must be counted, not silently vanish.
    cluster::ClusterConfig config = oneNodeConfig();
    config.coresPerNode = 2;
    config.keepAliveMemoryFraction = 0.3;
    const auto workload = workloadWith({300.0});
    PrewarmTwice policy;
    Driver driver(workload, config, policy, noNoise());
    const auto result = driver.run();
    EXPECT_EQ(result.prewarmsDropped, 1u);
    ASSERT_EQ(result.metrics.records().size(), 1u);
    EXPECT_EQ(result.metrics.records()[0].start, StartType::Warm);
}
