/**
 * @file
 * Property and failure-injection tests: global invariants that must
 * survive adversarial scheduling decisions, degenerate workloads, and
 * hostile codec inputs.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "compress/lz4_codec.hpp"
#include "compress/lz4hc_codec.hpp"
#include "compress/range_lz_codec.hpp"
#include "compress/image_synth.hpp"
#include "core/budget.hpp"
#include "core/codecrunch.hpp"
#include "experiments/driver.hpp"
#include "experiments/harness.hpp"
#include "policy/fixed_keepalive.hpp"
#include "trace/generator.hpp"

using namespace codecrunch;
using namespace codecrunch::experiments;

namespace {

/**
 * Chaos policy: every decision is random — random keep-alive windows,
 * random compression, random cross-architecture warmups, random
 * evictions, random prewarms, random keep-alive rewrites at ticks.
 * Any capacity or accounting violation it provokes panics the
 * Cluster, so a clean run is the invariant check.
 */
class ChaosPolicy : public policy::Policy
{
  public:
    explicit ChaosPolicy(std::uint64_t seed) : rng_(seed) {}

    std::string name() const override { return "Chaos"; }

    NodeType
    coldPlacement(FunctionId) override
    {
        return rng_.bernoulli(0.5) ? NodeType::X86 : NodeType::ARM;
    }

    policy::KeepAliveDecision
    onFinish(const metrics::InvocationRecord& record) override
    {
        policy::KeepAliveDecision decision;
        decision.keepAliveSeconds = rng_.uniform(0.0, 1800.0);
        decision.compress = rng_.bernoulli(0.4);
        if (rng_.bernoulli(0.2)) {
            decision.warmupLocation =
                record.nodeType == NodeType::X86 ? NodeType::ARM
                                                 : NodeType::X86;
        }
        return decision;
    }

    void
    onTick(Seconds) override
    {
        const auto& functions = context_->workload().functions;
        if (functions.empty())
            return;
        for (int action = 0; action < 5; ++action) {
            const FunctionId f = static_cast<FunctionId>(
                rng_.next() % functions.size());
            switch (rng_.next() % 4) {
              case 0:
                context_->requestEvict(f);
                break;
              case 1:
                context_->requestCompress(f);
                break;
              case 2:
                context_->requestSetKeepAlive(
                    f, rng_.uniform(0.0, 1200.0));
                break;
              default:
                context_->requestPrewarm(
                    f,
                    rng_.bernoulli(0.5) ? NodeType::X86
                                        : NodeType::ARM,
                    rng_.uniform(30.0, 900.0));
                break;
            }
        }
    }

    std::optional<cluster::ContainerId>
    pickVictim(NodeId node, MegaBytes) override
    {
        // Sometimes decline, sometimes hand back an arbitrary (maybe
        // wrong-node) container — the driver must validate it.
        const auto& pool = context_->clusterState().warmPool();
        if (pool.empty() || rng_.bernoulli(0.3))
            return std::nullopt;
        std::size_t skip = rng_.next() % pool.size();
        for (const auto& [id, container] : pool) {
            if (skip-- == 0) {
                (void)node;
                return id;
            }
        }
        return std::nullopt;
    }

  private:
    Rng rng_;
};

} // namespace

struct ChaosCase {
    std::uint64_t seed;
    std::size_t functions;
    double warmFraction;
};

class ChaosSweep : public ::testing::TestWithParam<ChaosCase>
{
};

TEST_P(ChaosSweep, InvariantsSurviveAdversarialDecisions)
{
    const auto& param = GetParam();
    trace::TraceConfig traceConfig;
    traceConfig.numFunctions = param.functions;
    traceConfig.days = 0.05;
    traceConfig.targetMeanRatePerSecond = 2.0;
    traceConfig.seed = param.seed;
    const auto workload = trace::TraceGenerator::generate(traceConfig);

    cluster::ClusterConfig clusterConfig;
    clusterConfig.numX86 = 3;
    clusterConfig.numArm = 3;
    clusterConfig.keepAliveMemoryFraction = param.warmFraction;

    ChaosPolicy policy(param.seed * 7919);
    Driver driver(workload, clusterConfig, policy);
    const auto result = driver.run();

    // 1. Conservation: every invocation is either served or counted
    //    as unserved.
    EXPECT_EQ(result.metrics.invocations() + result.unserved,
              workload.invocations.size());
    // 2. Service-time identity holds for every record.
    for (const auto& r : result.metrics.records()) {
        EXPECT_NEAR(r.service(), r.wait + r.startup + r.exec, 1e-9);
        EXPECT_GE(r.wait, -1e-9);
        EXPECT_GE(r.startup, -1e-9);
    }
    // 3. Cost accounting is non-negative and finite.
    EXPECT_GE(result.keepAliveSpend, 0.0);
    EXPECT_LT(result.keepAliveSpend, 1e6);
    // 4. Start-type counters are consistent.
    EXPECT_EQ(result.metrics.warmStarts() +
                  result.metrics.coldStarts(),
              result.metrics.invocations());
    EXPECT_LE(result.metrics.compressedStarts(),
              result.metrics.warmStarts());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChaosSweep,
    ::testing::Values(ChaosCase{1, 60, 0.1}, ChaosCase{2, 60, 0.5},
                      ChaosCase{3, 150, 0.25}, ChaosCase{4, 20, 1.0},
                      ChaosCase{5, 150, 0.05},
                      ChaosCase{6, 40, 0.75}));

// --- degenerate workloads ----------------------------------------------------

TEST(DegenerateWorkloads, SingleInvocation)
{
    trace::Workload workload;
    trace::FunctionProfile f;
    f.id = 0;
    f.memoryMb = 128;
    f.exec[0] = f.exec[1] = 1.0;
    f.coldStart[0] = f.coldStart[1] = 1.0;
    workload.functions.push_back(f);
    workload.invocations.push_back({0, 0.0, 1.0});
    workload.duration = 60.0;

    policy::FixedKeepAlive policy;
    Driver driver(workload, cluster::ClusterConfig{}, policy);
    const auto result = driver.run();
    EXPECT_EQ(result.metrics.invocations(), 1u);
    EXPECT_EQ(result.metrics.coldStarts(), 1u);
}

TEST(DegenerateWorkloads, ZeroBudgetCodeCrunchStillServes)
{
    trace::TraceConfig config;
    config.numFunctions = 50;
    config.days = 0.05;
    const auto workload = trace::TraceGenerator::generate(config);
    core::CodeCrunchConfig ccConfig;
    ccConfig.budgetRatePerSecond = 1e-12; // effectively zero budget
    core::CodeCrunch policy(ccConfig);
    Driver driver(workload, cluster::ClusterConfig{}, policy);
    const auto result = driver.run();
    EXPECT_EQ(result.unserved, 0u);
    // Without budget, essentially everything misses after bootstrap.
    EXPECT_LT(result.metrics.warmStartFraction(), 0.9);
}

TEST(DegenerateWorkloads, SimultaneousBurstOnTinyCluster)
{
    trace::Workload workload;
    trace::FunctionProfile f;
    f.id = 0;
    f.memoryMb = 512;
    f.exec[0] = f.exec[1] = 0.5;
    f.coldStart[0] = f.coldStart[1] = 0.5;
    workload.functions.push_back(f);
    for (int i = 0; i < 64; ++i)
        workload.invocations.push_back({0, 1.0, 1.0});
    workload.duration = 300.0;

    cluster::ClusterConfig clusterConfig;
    clusterConfig.numX86 = 1;
    clusterConfig.numArm = 0;
    clusterConfig.coresPerNode = 2;
    clusterConfig.memoryPerNodeMb = 2048;
    policy::FixedKeepAlive policy;
    Driver driver(workload, clusterConfig, policy);
    const auto result = driver.run();
    EXPECT_EQ(result.unserved, 0u);
    EXPECT_EQ(result.metrics.invocations(), 64u);
    // Only 2 cores: the burst serializes, so waits must be large.
    EXPECT_GT(result.metrics.meanWaitTime(), 1.0);
}

// --- codec stream mutation fuzzing ----------------------------------------------

namespace {

template <typename CodecT>
void
mutationFuzz(std::uint64_t seed)
{
    const CodecT codec;
    compress::ImageSpec spec{8192, 0.6, seed};
    const compress::Bytes image =
        compress::ImageSynthesizer::generate(spec);
    const compress::Bytes packed = codec.compress(image);
    Rng rng(seed ^ 0xf22dull);
    for (int trial = 0; trial < 300; ++trial) {
        compress::Bytes mutated = packed;
        const std::size_t flips = 1 + rng.next() % 4;
        for (std::size_t f = 0; f < flips; ++f) {
            mutated[rng.next() % mutated.size()] ^=
                static_cast<std::uint8_t>(1 + rng.next() % 255);
        }
        // Must never crash; may reject or produce wrong bytes of the
        // right length, but never the original data by accident when
        // the mutation hit a load-bearing byte... just exercise it.
        const auto out = codec.decompress(mutated, image.size());
        if (out) {
            EXPECT_EQ(out->size(), image.size());
        }
    }
}

} // namespace

TEST(CodecFuzz, Lz4SurvivesStreamMutation)
{
    mutationFuzz<compress::Lz4Codec>(11);
}

TEST(CodecFuzz, Lz4HcSurvivesStreamMutation)
{
    mutationFuzz<compress::Lz4HcCodec>(12);
}

TEST(CodecFuzz, RangeLzSurvivesStreamMutation)
{
    mutationFuzz<compress::RangeLzCodec>(13);
}

// --- report invariants across randomized seeds -------------------------------
//
// The golden harness diffs every aggregate writeResultFields() emits;
// these properties pin down what those aggregates are allowed to look
// like on ANY seed, not just the checked-in ones: finite, fractions in
// [0, 1], and SLA accounting bounded and monotone in the slack.

namespace {

void
checkReportInvariants(const Harness& harness, const RunResult& result)
{
    const auto& m = result.metrics;
    EXPECT_TRUE(std::isfinite(m.meanServiceTime()));
    EXPECT_TRUE(std::isfinite(m.meanWaitTime()));
    for (const double q : {0.5, 0.95, 0.99}) {
        EXPECT_TRUE(std::isfinite(m.serviceQuantile(q)));
        EXPECT_GE(m.serviceQuantile(q), 0.0);
    }
    EXPECT_LE(m.serviceQuantile(0.5), m.serviceQuantile(0.95));
    EXPECT_LE(m.serviceQuantile(0.95), m.serviceQuantile(0.99));

    EXPECT_GE(m.warmStartFraction(), 0.0);
    EXPECT_LE(m.warmStartFraction(), 1.0);
    EXPECT_GE(m.availability(), 0.0);
    EXPECT_LE(m.availability(), 1.0);

    EXPECT_TRUE(std::isfinite(result.keepAliveSpend));
    EXPECT_GE(result.keepAliveSpend, 0.0);

    const auto baselines = harness.warmBaselines();
    double previous = 1.0;
    for (const double slack : {0.0, 0.1, 0.3, 0.5, 1.0}) {
        const double violations =
            m.slaViolationFraction(baselines, slack);
        EXPECT_GE(violations, 0.0) << "slack " << slack;
        EXPECT_LE(violations, 1.0) << "slack " << slack;
        // More slack can only excuse functions, never indict more.
        EXPECT_LE(violations, previous + 1e-12)
            << "slack " << slack;
        previous = violations;
    }
}

} // namespace

class ReportInvariants : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ReportInvariants, FixedKeepAliveAggregatesAreWellFormed)
{
    Scenario scenario = Scenario::goldenPreset();
    scenario.traceConfig.seed = GetParam();
    const Harness harness(scenario);
    policy::FixedKeepAlive policy(600.0, true);
    checkReportInvariants(harness, harness.run(policy));
}

TEST_P(ReportInvariants, CodeCrunchAggregatesAreWellFormed)
{
    Scenario scenario = Scenario::goldenPreset();
    scenario.traceConfig.seed = GetParam() ^ 0x5eedull;
    const Harness harness(scenario);
    policy::SitW sitw;
    harness.primeBudgetRate(harness.run(sitw));
    core::CodeCrunch policy(harness.codecrunchConfig());
    checkReportInvariants(harness, harness.run(policy));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReportInvariants,
                         ::testing::Values(1u, 17u, 4242u, 99991u));

// --- crash-consistent budget accounting --------------------------------------
//
// Two ledgers must balance on ANY seed: the creditor's grant ledger
// (granted == spent + remaining credit after every allocation, floor
// top-ups recorded explicitly) and the cluster's keep-alive commitment
// ledger (committed == consumed + refunded + outstanding), including
// under crash/shock/domain fault churn where evictions refund their
// unspent commitments.

TEST(BudgetProperties, GrantedEqualsSpentPlusCreditUnderRandomSpend)
{
    for (const std::uint64_t seed : {1ull, 17ull, 99ull, 4242ull}) {
        Rng rng(seed);
        core::BudgetCreditor creditor(rng.uniform(0.1, 5.0), 60.0);
        for (int i = 0; i < 300; ++i) {
            const Dollars spent = rng.uniform(0.0, 400.0);
            const Dollars grant = creditor.allocate(spent);
            EXPECT_NEAR(creditor.grantedTotal(), spent + grant, 1e-9);
            const Dollars excess =
                creditor.grantedTotal() - creditor.allocatedTotal();
            EXPECT_GE(excess, -1e-9);
            EXPECT_LE(excess, creditor.floorGrantedTotal() + 1e-9);
        }
    }
}

struct FaultSeedCase {
    std::uint64_t seed;
    bool domains;
};

class FaultLedgerSweep : public ::testing::TestWithParam<FaultSeedCase>
{
};

TEST_P(FaultLedgerSweep, CommitmentAndCreditorLedgersBalance)
{
    const auto& param = GetParam();
    trace::TraceConfig traceConfig;
    traceConfig.numFunctions = 60;
    traceConfig.days = 0.05;
    traceConfig.seed = param.seed;
    const auto workload = trace::TraceGenerator::generate(traceConfig);

    cluster::ClusterConfig clusterConfig;
    clusterConfig.numX86 = 3;
    clusterConfig.numArm = 3;
    if (param.domains) {
        clusterConfig.numFaultDomains = 3;
        clusterConfig.domainCooldownSeconds = 300.0;
    }

    DriverConfig driverConfig;
    driverConfig.faults.seed = param.seed * 2654435761ull + 1;
    driverConfig.faults.nodeMtbfSeconds = 1800.0;
    driverConfig.faults.nodeMttrSeconds = 300.0;
    driverConfig.faults.memoryShockMtbfSeconds = 2400.0;
    driverConfig.faults.transientFailureProbability = 1e-3;
    if (param.domains) {
        driverConfig.faults.domainMtbfSeconds = 2700.0;
        driverConfig.faults.domainMttrSeconds = 300.0;
        driverConfig.faults.domainShockMtbfSeconds = 3600.0;
    }

    core::CodeCrunch policy{core::CodeCrunchConfig{}};
    Driver driver(workload, clusterConfig, policy, driverConfig);
    const auto result = driver.run();

    // Conservation under churn.
    EXPECT_EQ(result.metrics.records().size() +
                  result.metrics.permanentFailures() + result.unserved,
              workload.invocations.size());
    EXPECT_GT(result.nodeCrashes, 0u);

    // Commitment ledger: every committed dollar is consumed, refunded,
    // or still outstanding — crashes must not leak money.
    EXPECT_GT(result.committedDollars, 0.0);
    const Dollars balanced = result.commitmentConsumedDollars +
                             result.refundedDollars +
                             result.outstandingCommitmentDollars;
    EXPECT_NEAR(result.committedDollars, balanced,
                1e-9 * std::max(1.0, result.committedDollars));
    EXPECT_GE(result.faultRefundedDollars, 0.0);
    EXPECT_GE(result.refundedDollars,
              result.faultRefundedDollars - 1e-12);

    // Creditor ledger: granted == spent + remaining credit held at
    // every allocation, so the cumulative grant can exceed the
    // cumulative allocation only by the recorded floor top-ups.
    const core::BudgetCreditor* creditor = policy.creditor();
    ASSERT_NE(creditor, nullptr);
    const Dollars excess =
        creditor->grantedTotal() - creditor->allocatedTotal();
    EXPECT_GE(excess, -1e-9);
    EXPECT_LE(excess, creditor->floorGrantedTotal() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FaultLedgerSweep,
    ::testing::Values(FaultSeedCase{11, false}, FaultSeedCase{12, true},
                      FaultSeedCase{13, true}, FaultSeedCase{14, false},
                      FaultSeedCase{15, true}));
