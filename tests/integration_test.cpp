/**
 * @file
 * Cross-module integration tests on the small evaluation scenario:
 * policy hierarchy relations, budget normalization, ablations, SLA
 * mode, and the harness API.
 */
#include <gtest/gtest.h>

#include "experiments/harness.hpp"
#include "runner/engine.hpp"

using namespace codecrunch;
using namespace codecrunch::experiments;

namespace {

/** Shared harness (building workloads once keeps the suite fast). */
class IntegrationTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Scenario scenario = Scenario::evaluationDefault();
        scenario.traceConfig.numFunctions = 600;
        scenario.traceConfig.days = 0.15;
        scenario.traceConfig.targetMeanRatePerSecond = 3.0;
        harness_ = new Harness(scenario);
        // Budget-normalized policies get the keep-alive spend of this
        // one SitW run.
        policy::SitW sitw;
        harness_->primeBudgetRate(harness_->run(sitw));
    }

    static void
    TearDownTestSuite()
    {
        delete harness_;
        harness_ = nullptr;
    }

    static Harness* harness_;
};

Harness* IntegrationTest::harness_ = nullptr;

} // namespace

TEST_F(IntegrationTest, AllInvocationsServed)
{
    policy::FixedKeepAlive policy;
    const auto result = harness_->run(policy);
    EXPECT_EQ(result.unserved, 0u);
    EXPECT_EQ(result.metrics.invocations(),
              harness_->workload().invocations.size());
}

TEST_F(IntegrationTest, SitwBudgetRateIsPositiveAndCached)
{
    const double rate = harness_->sitwBudgetRate();
    EXPECT_GT(rate, 0.0);
    EXPECT_DOUBLE_EQ(rate, harness_->sitwBudgetRate());
}

TEST_F(IntegrationTest, CodeCrunchBeatsFixedKeepAlive)
{
    policy::FixedKeepAlive fixed;
    const auto fixedResult = harness_->run(fixed);
    core::CodeCrunch codecrunch(harness_->codecrunchConfig());
    const auto crunchResult = harness_->run(codecrunch);
    EXPECT_LT(crunchResult.metrics.meanServiceTime(),
              fixedResult.metrics.meanServiceTime());
}

TEST_F(IntegrationTest, CodeCrunchBeatsSitwAtEqualBudget)
{
    policy::SitW sitw;
    const auto sitwResult = harness_->run(sitw);
    core::CodeCrunch codecrunch(harness_->codecrunchConfig());
    const auto crunchResult = harness_->run(codecrunch);
    EXPECT_LT(crunchResult.metrics.meanServiceTime(),
              sitwResult.metrics.meanServiceTime());
    // ... without spending substantially more than the baseline.
    EXPECT_LT(crunchResult.keepAliveSpend,
              sitwResult.keepAliveSpend * 1.35);
}

TEST_F(IntegrationTest, OracleUpperBoundsCodeCrunch)
{
    // The Oracle's future knowledge covers the original {keep warm,
    // compress, evict} space — it has no snapshot mechanism, and
    // snapshot-enabled CodeCrunch legitimately beats it. Compare
    // against the like-for-like -noSnapshot ablation.
    auto config = harness_->codecrunchConfig();
    config.useSnapshot = false;
    core::CodeCrunch codecrunch(config);
    const auto crunchResult = harness_->run(codecrunch);
    policy::Oracle oracle(harness_->oracleConfig());
    const auto oracleResult = harness_->run(oracle);
    // Oracle has future knowledge: it must not be meaningfully worse.
    EXPECT_LT(oracleResult.metrics.meanServiceTime(),
              crunchResult.metrics.meanServiceTime() * 1.05);
}

TEST_F(IntegrationTest, MoreBudgetNeverHurtsCodeCrunch)
{
    core::CodeCrunch tight(harness_->codecrunchConfig(0.25));
    const auto tightResult = harness_->run(tight);
    core::CodeCrunch loose(harness_->codecrunchConfig(2.0));
    const auto looseResult = harness_->run(loose);
    EXPECT_LE(looseResult.metrics.meanServiceTime(),
              tightResult.metrics.meanServiceTime() * 1.02);
    EXPECT_GE(looseResult.metrics.warmStartFraction(),
              tightResult.metrics.warmStartFraction() * 0.95);
}

TEST_F(IntegrationTest, CompressionAblationReducesWarmStarts)
{
    core::CodeCrunch full(harness_->codecrunchConfig());
    const auto fullResult = harness_->run(full);
    auto config = harness_->codecrunchConfig();
    config.useCompression = false;
    core::CodeCrunch noComp(config);
    const auto noCompResult = harness_->run(noComp);
    EXPECT_GT(fullResult.metrics.compressedStarts(), 0u);
    EXPECT_EQ(noCompResult.metrics.compressedStarts(), 0u);
}

TEST_F(IntegrationTest, SnapshotAblationDisablesSnapshots)
{
    // The full decision space may adopt snapshots; the -noSnapshot
    // ablation must never create or use one — it reproduces the
    // original {keep warm, compress, evict} controller.
    core::CodeCrunch full(harness_->codecrunchConfig());
    const auto fullResult = harness_->run(full);
    auto config = harness_->codecrunchConfig();
    config.useSnapshot = false;
    core::CodeCrunch noSnap(config);
    const auto noSnapResult = harness_->run(noSnap);
    EXPECT_EQ(noSnapResult.metrics.snapshotStarts(), 0u);
    EXPECT_EQ(noSnapResult.snapshotsCreated, 0u);
    EXPECT_DOUBLE_EQ(noSnapResult.snapshotStorageSpend, 0.0);
    // Snapshot storage is priced into the budget: enabling it must
    // not blow the spend ceiling relative to the ablation.
    EXPECT_GE(fullResult.metrics.invocations(),
              noSnapResult.metrics.invocations());
}

TEST_F(IntegrationTest, ArchAblationsRunAndPinArchitecture)
{
    auto x86Config = harness_->codecrunchConfig();
    x86Config.archMode = core::ArchMode::X86Only;
    core::CodeCrunch x86Only(x86Config);
    const auto x86Result = harness_->run(x86Only);
    // With x86-only placement and ample x86 capacity, ARM should see
    // almost no executions (spill-over only).
    std::size_t armRecords = 0;
    for (const auto& r : x86Result.metrics.records())
        armRecords += r.nodeType == NodeType::ARM;
    EXPECT_LT(static_cast<double>(armRecords) /
                  x86Result.metrics.records().size(),
              0.25);
}

TEST_F(IntegrationTest, SlaModeIsWellBehaved)
{
    // The SLA-constrained controller must stay close to the
    // unconstrained one on mean service while producing a sane
    // violation metric. (The violation *delta* between the two is
    // noise-level at this scale; bench/fig09_sla reports the full
    // figure at evaluation scale.)
    const double slack = 0.25;
    const auto baselines = harness_->warmBaselines();

    core::CodeCrunch plain(harness_->codecrunchConfig());
    const auto plainResult = harness_->run(plain);
    auto slaConfig = harness_->codecrunchConfig();
    slaConfig.slaSlack = slack;
    core::CodeCrunch sla(slaConfig);
    const auto slaResult = harness_->run(sla);

    const double violations =
        slaResult.metrics.slaViolationFraction(baselines, slack);
    EXPECT_GE(violations, 0.0);
    EXPECT_LE(violations, 1.0);
    EXPECT_LT(slaResult.metrics.meanServiceTime(),
              plainResult.metrics.meanServiceTime() * 1.15);
}

TEST_F(IntegrationTest, EnhancedSitwImprovesOnPlainSitw)
{
    policy::SitW plain;
    const auto plainResult = harness_->run(plain);
    policy::Enhanced enhanced(std::make_unique<policy::SitW>());
    const auto enhancedResult = harness_->run(enhanced);
    EXPECT_LT(enhancedResult.metrics.meanServiceTime(),
              plainResult.metrics.meanServiceTime());
}

TEST_F(IntegrationTest, MainComparisonRunsAllPolicies)
{
    Scenario scenario = Scenario::small();
    Harness harness(scenario);
    runner::RunEngine engine({2, nullptr});
    const auto runs = runner::runMainComparison(harness, engine);
    ASSERT_EQ(runs.size(), 5u);
    EXPECT_EQ(runs[0].name, "SitW");
    EXPECT_EQ(runs[1].name, "FaasCache");
    EXPECT_EQ(runs[2].name, "IceBreaker");
    EXPECT_EQ(runs[3].name, "CodeCrunch");
    EXPECT_EQ(runs[4].name, "Oracle");
    for (const auto& run : runs) {
        EXPECT_GT(run.result.metrics.invocations(), 0u) << run.name;
        EXPECT_EQ(run.result.unserved, 0u) << run.name;
    }
}

TEST_F(IntegrationTest, WarmBaselinesMatchProfiles)
{
    const auto baselines = harness_->warmBaselines();
    ASSERT_EQ(baselines.size(), harness_->workload().functions.size());
    for (std::size_t i = 0; i < baselines.size(); ++i) {
        EXPECT_DOUBLE_EQ(baselines[i],
                         harness_->workload().functions[i].exec[0]);
    }
}

TEST_F(IntegrationTest, DecisionOverheadOrdering)
{
    // Sec. 5 "Overhead": IceBreaker's FFT sweep costs far more
    // decision time than CodeCrunch's SRE, which costs more than the
    // trivial fixed policy.
    policy::FixedKeepAlive fixed;
    const auto fixedResult = harness_->run(fixed);
    core::CodeCrunch codecrunch(harness_->codecrunchConfig());
    const auto crunchResult = harness_->run(codecrunch);
    policy::IceBreaker icebreaker;
    const auto iceResult = harness_->run(icebreaker);
    EXPECT_GT(iceResult.decisionWallSeconds,
              crunchResult.decisionWallSeconds);
    EXPECT_GT(crunchResult.decisionWallSeconds,
              fixedResult.decisionWallSeconds);
}
