/**
 * @file
 * CodeCrunch core tests: the P_est estimator, the budget creditor, the
 * interval objective's probabilistic warm/cost model and its term rows,
 * SRE and descent against their table-less reference
 * (legacy_sre.hpp), observed-stat estimation, and the policy's
 * configuration surface.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/budget.hpp"
#include "core/codecrunch.hpp"
#include "core/interval_objective.hpp"
#include "core/observed_stats.hpp"
#include "core/pest.hpp"
#include "legacy_sre.hpp"

using namespace codecrunch;
using namespace codecrunch::core;

// --- P_est ------------------------------------------------------------------

TEST(Pest, UnknownWithoutHistory)
{
    policy::FunctionHistory h;
    EXPECT_LT(pest(h), 0.0);
    h.record(10.0);
    EXPECT_LT(pest(h), 0.0); // one arrival: no IAT yet
}

TEST(Pest, PerfectlyPeriodicEqualsPeriod)
{
    policy::FunctionHistory h;
    for (int i = 0; i < 20; ++i)
        h.record(i * 30.0);
    // Local mean == global mean == 30, both stddevs 0 -> P_est = 30.
    EXPECT_NEAR(pest(h), 30.0, 1e-9);
}

TEST(Pest, DivergentLocalShiftsTowardLocal)
{
    policy::FunctionHistory h(5);
    Seconds t = 0.0;
    for (int i = 0; i < 50; ++i)
        h.record(t += 10.0);
    for (int i = 0; i < 6; ++i)
        h.record(t += 100.0);
    const double p = pest(h);
    // Local mean 100, global mean ~19.6: the blend must lean local.
    EXPECT_GT(p, 60.0);
}

TEST(Pest, IncludesOneStddevSafetyMargin)
{
    policy::FunctionHistory h;
    Rng rng(7);
    Seconds t = 0.0;
    for (int i = 0; i < 200; ++i)
        h.record(t += rng.uniform(50.0, 150.0));
    // With local ~ global, P_est ~ Gm + Gs > Gm.
    EXPECT_GT(pest(h), h.globalMean());
}

// --- BudgetCreditor ---------------------------------------------------------

TEST(BudgetCreditor, AllocatesProRataPlusCredit)
{
    BudgetCreditor creditor(1.0, 60.0); // $1/s, 1-min intervals
    EXPECT_NEAR(creditor.allocate(0.0), 60.0, 1e-9);
    // Nothing spent: the next interval carries the credit forward.
    EXPECT_NEAR(creditor.allocate(0.0), 120.0, 1e-9);
    // Spend catches up: available shrinks accordingly.
    EXPECT_NEAR(creditor.allocate(150.0), 30.0, 1e-9);
    EXPECT_NEAR(creditor.allocatedTotal(), 180.0, 1e-9);
}

TEST(BudgetCreditor, OverspendIsFlooredNotZeroed)
{
    BudgetCreditor creditor(1.0, 60.0);
    creditor.allocate(0.0);
    // Massive overspend: available floors at 25% of the allocation
    // instead of collapsing to zero.
    EXPECT_NEAR(creditor.allocate(1000.0), 15.0, 1e-9);
}

TEST(BudgetCreditor, GrantedEqualsSpentPlusRemainingCredit)
{
    BudgetCreditor creditor(1.0, 60.0);
    // After every allocate(spent) returning r, the books must close:
    // grantedTotal == spent + r.
    Dollars r = creditor.allocate(0.0);
    EXPECT_NEAR(creditor.grantedTotal(), 0.0 + r, 1e-9);
    r = creditor.allocate(40.0);
    EXPECT_NEAR(creditor.grantedTotal(), 40.0 + r, 1e-9);
    r = creditor.allocate(100.0);
    EXPECT_NEAR(creditor.grantedTotal(), 100.0 + r, 1e-9);
    // No floor grant was ever needed: granted tracks the pro-rata
    // allocation exactly.
    EXPECT_NEAR(creditor.floorGrantedTotal(), 0.0, 1e-9);
    EXPECT_NEAR(creditor.grantedTotal(), creditor.allocatedTotal(),
                1e-9);
}

TEST(BudgetCreditor, FloorGrantsAreRecorded)
{
    BudgetCreditor creditor(1.0, 60.0);
    creditor.allocate(0.0);
    const Dollars r = creditor.allocate(1000.0);
    EXPECT_NEAR(r, 15.0, 1e-9); // floored at 0.25 x per-interval
    // The floor grant is money beyond the pro-rata allocation; it must
    // be recorded, not silently minted: granted == spent + credit and
    // the excess over allocatedTotal is exactly the floor ledger.
    EXPECT_NEAR(creditor.grantedTotal(), 1000.0 + 15.0, 1e-9);
    EXPECT_NEAR(creditor.grantedTotal() - creditor.allocatedTotal(),
                creditor.floorGrantedTotal(), 1e-9);

    // A later interval where the natural allocation wins again closes
    // the gap: granted returns to the allocation track while the floor
    // ledger only ever grows.
    const Dollars floorSoFar = creditor.floorGrantedTotal();
    creditor.allocate(0.0);
    EXPECT_NEAR(creditor.grantedTotal(), creditor.allocatedTotal(),
                1e-9);
    EXPECT_GE(creditor.floorGrantedTotal(), floorSoFar);
    // Invariant range: 0 <= granted - allocated <= floorGranted.
    EXPECT_GE(creditor.grantedTotal() - creditor.allocatedTotal(),
              -1e-9);
    EXPECT_LE(creditor.grantedTotal() - creditor.allocatedTotal(),
              creditor.floorGrantedTotal() + 1e-9);
}

// --- IntervalObjective --------------------------------------------------------

namespace {

FunctionEstimate
basicEstimate()
{
    FunctionEstimate e;
    e.pest = 300.0;
    e.sigma = 60.0;
    e.exec[0] = 2.0;
    e.exec[1] = 2.4;
    e.coldStart[0] = 3.0;
    e.coldStart[1] = 3.3;
    e.decompress[0] = 1.0;
    e.decompress[1] = 1.1;
    e.memoryMb = 512;
    e.compressedMb = 200;
    e.warmBaseline = 2.0;
    e.weight = 1.0;
    return e;
}

const double kRates[kNumNodeTypes] = {3.26e-9, 2.28e-9};

opt::Choice
choiceWith(int level, bool compress = false,
           NodeType arch = NodeType::X86)
{
    return opt::Choice{compress, arch, level};
}

} // namespace

TEST(IntervalObjective, WarmProbabilityMonotoneInKeepAlive)
{
    IntervalObjective objective({basicEstimate()}, kRates, 1.0);
    double lastService = 1e300;
    for (int level = 0;
         level < static_cast<int>(opt::keepAliveLevels().size());
         ++level) {
        const double service =
            objective.term(0, choiceWith(level)).first;
        EXPECT_LE(service, lastService + 1e-12);
        lastService = service;
    }
}

TEST(IntervalObjective, ZeroKeepAliveMeansAlwaysCold)
{
    IntervalObjective objective({basicEstimate()}, kRates, 1.0);
    const auto [service, cost] = objective.term(0, choiceWith(0));
    EXPECT_NEAR(service, 2.0 + 3.0, 1e-9);
    EXPECT_NEAR(cost, 0.0, 1e-15);
}

TEST(IntervalObjective, LargeKeepAliveApproachesWarmService)
{
    IntervalObjective objective({basicEstimate()}, kRates, 1.0);
    const int top =
        static_cast<int>(opt::keepAliveLevels().size()) - 1;
    // K = 3600 vs pest 300, sigma 60: essentially always warm.
    EXPECT_NEAR(objective.term(0, choiceWith(top)).first, 2.0, 0.01);
}

TEST(IntervalObjective, CompressionAddsDecompressionWhenWarm)
{
    IntervalObjective objective({basicEstimate()}, kRates, 1.0);
    const int top =
        static_cast<int>(opt::keepAliveLevels().size()) - 1;
    const double plain = objective.term(0, choiceWith(top)).first;
    const double packed =
        objective.term(0, choiceWith(top, true)).first;
    EXPECT_NEAR(packed - plain, 1.0, 0.02);
}

TEST(IntervalObjective, CompressionShrinksCost)
{
    IntervalObjective objective({basicEstimate()}, kRates, 1.0);
    const int top =
        static_cast<int>(opt::keepAliveLevels().size()) - 1;
    const double plainCost = objective.term(0, choiceWith(top)).second;
    const double packedCost =
        objective.term(0, choiceWith(top, true)).second;
    EXPECT_NEAR(packedCost / plainCost, 200.0 / 512.0, 1e-6);
}

TEST(IntervalObjective, ExpectedHoldCapsAtPest)
{
    // With K far above pest, the expected hold converges to ~pest, not
    // K: the container is consumed at the next arrival.
    IntervalObjective objective({basicEstimate()}, kRates, 1.0);
    const int top =
        static_cast<int>(opt::keepAliveLevels().size()) - 1;
    const double cost = objective.term(0, choiceWith(top)).second;
    const double perSecond = 512 * kRates[0];
    EXPECT_NEAR(cost / perSecond, 300.0, 40.0);
}

TEST(IntervalObjective, ArmCostUsesArmRate)
{
    IntervalObjective objective({basicEstimate()}, kRates, 1.0);
    const int top =
        static_cast<int>(opt::keepAliveLevels().size()) - 1;
    const double x86Cost = objective.term(0, choiceWith(top)).second;
    const double armCost =
        objective.term(0, choiceWith(top, false, NodeType::ARM)).second;
    EXPECT_NEAR(armCost / x86Cost, kRates[1] / kRates[0], 1e-6);
}

TEST(IntervalObjective, WeightScalesServiceAndCost)
{
    auto heavy = basicEstimate();
    heavy.weight = 10.0;
    IntervalObjective one({basicEstimate()}, kRates, 1.0);
    IntervalObjective ten({heavy}, kRates, 1.0);
    const auto a = one.term(0, choiceWith(3));
    const auto b = ten.term(0, choiceWith(3));
    EXPECT_NEAR(b.first / a.first, 10.0, 1e-6);
    EXPECT_GT(b.second, a.second);
}

TEST(IntervalObjective, RestrictionsForbidAxes)
{
    ChoiceRestrictions restrictions;
    restrictions.allowArm = false;
    restrictions.allowCompression = false;
    IntervalObjective objective({basicEstimate()}, kRates, 1.0,
                                restrictions);
    EXPECT_GE(objective
                  .term(0, choiceWith(3, false, NodeType::ARM))
                  .first,
              1e8);
    EXPECT_GE(objective.term(0, choiceWith(3, true)).first, 1e8);
    EXPECT_LT(objective.term(0, choiceWith(3)).first, 1e8);
}

TEST(IntervalObjective, SlaPenalizesSlowChoices)
{
    ChoiceRestrictions restrictions;
    restrictions.slaSlack = 0.2; // limit = 2.4 s
    IntervalObjective objective({basicEstimate()}, kRates, 1.0,
                                restrictions);
    // Cold service (5.0 s) blows the limit and picks up the penalty.
    const double cold = objective.term(0, choiceWith(0)).first;
    EXPECT_GT(cold, 5.0 + 20.0);
    // Warm service (~2.0 s) is inside the limit.
    const int top =
        static_cast<int>(opt::keepAliveLevels().size()) - 1;
    EXPECT_NEAR(objective.term(0, choiceWith(top)).first, 2.0, 0.05);
}

TEST(IntervalObjective, CostWeightFoldsPriceIntoService)
{
    ChoiceRestrictions priced;
    priced.costWeight = 1e6;
    IntervalObjective objective({basicEstimate()}, kRates, 1e18,
                                priced);
    IntervalObjective free({basicEstimate()}, kRates, 1e18);
    const int top =
        static_cast<int>(opt::keepAliveLevels().size()) - 1;
    const auto pricedTerm = objective.term(0, choiceWith(top));
    const auto freeTerm = free.term(0, choiceWith(top));
    EXPECT_NEAR(pricedTerm.first - freeTerm.first,
                1e6 * freeTerm.second, 1e-6);
}

TEST(IntervalObjective, UnknownPestGetsMildPrior)
{
    auto estimate = basicEstimate();
    estimate.pest = -1.0;
    IntervalObjective objective({estimate}, kRates, 1.0);
    // K = 0: always cold.
    EXPECT_NEAR(objective.term(0, choiceWith(0)).first, 5.0, 1e-9);
    // K = 3600: the unknown-period prior caps at 0.3 warm probability.
    const int top =
        static_cast<int>(opt::keepAliveLevels().size()) - 1;
    const double expected =
        2.0 + (1.0 - 0.3 * (1.0 - std::exp(-3600.0 / 900.0))) * 3.0;
    EXPECT_NEAR(objective.term(0, choiceWith(top)).first, expected,
                1e-6);
}

// --- Term rows and the table-less reference ----------------------------------

namespace {

std::uint64_t
bitsOf(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

/**
 * A seeded estimate with realistic magnitudes that hits every branch
 * of the term formula: unknown pest, sigma below the floor of 1, no
 * snapshot image, a compressed size above the raw one, and weights on
 * both sides of 1.
 */
FunctionEstimate
randomEstimate(Rng& rng)
{
    FunctionEstimate e;
    e.pest = rng.bernoulli(0.2) ? -1.0 : rng.uniform(5.0, 5000.0);
    e.sigma = rng.bernoulli(0.2) ? rng.uniform(0.0, 1.0)
                                 : rng.uniform(1.0, 1200.0);
    for (int arch = 0; arch < kNumNodeTypes; ++arch) {
        e.exec[arch] = rng.uniform(0.05, 20.0);
        e.coldStart[arch] = rng.uniform(0.2, 8.0);
        e.decompress[arch] = rng.uniform(0.01, 2.0);
        e.restore[arch] = rng.uniform(0.1, 9.0);
    }
    e.memoryMb = rng.uniform(64.0, 3000.0);
    e.compressedMb = e.memoryMb * rng.uniform(0.2, 1.1);
    e.snapshotMb = rng.bernoulli(0.3) ? 0.0 : rng.uniform(10.0, 2000.0);
    e.warmBaseline = e.exec[0] * rng.uniform(0.8, 1.5);
    e.weight = rng.bernoulli(0.3) ? 1.0 : rng.uniform(0.05, 60.0);
    return e;
}

const double kSnapshotRates[kNumNodeTypes] = {4.1e-8, 2.9e-8};

} // namespace

TEST(IntervalObjective, TermRowMatchesTermBitForBit)
{
    // The restriction matrix: every axis allowed, then each of the
    // four turned off in turn; SLA slack off and on; no price and a
    // priced cost.
    std::vector<ChoiceRestrictions> matrix;
    for (int off = -1; off < 4; ++off) {
        for (const double slack : {-1.0, 0.1}) {
            for (const double price : {0.0, 1e4}) {
                ChoiceRestrictions r;
                r.allowCompression = off != 0;
                r.allowX86 = off != 1;
                r.allowArm = off != 2;
                r.allowSnapshot = off != 3;
                r.slaSlack = slack;
                r.costWeight = price;
                matrix.push_back(r);
            }
        }
    }
    Rng rng(20);
    std::vector<FunctionEstimate> estimates = {basicEstimate()};
    for (int i = 0; i < 200; ++i)
        estimates.push_back(randomEstimate(rng));

    // One entry past the row holds a sentinel the fill must not touch.
    const std::pair<double, double> sentinel{-7.0, -7.0};
    std::vector<std::pair<double, double>> row(
        opt::choicesPerFunction() + 1, sentinel);
    for (const ChoiceRestrictions& restrictions : matrix) {
        const IntervalObjective objective(estimates, kRates, 1.0,
                                          restrictions, kSnapshotRates);
        for (std::size_t i = 0; i < estimates.size(); ++i) {
            objective.termRow(i, row.data());
            for (std::size_t c = 0; c < opt::choicesPerFunction(); ++c) {
                const auto term = objective.term(i, opt::choiceSet()[c]);
                ASSERT_EQ(bitsOf(row[c].first), bitsOf(term.first))
                    << "function " << i << " choice " << c;
                ASSERT_EQ(bitsOf(row[c].second), bitsOf(term.second))
                    << "function " << i << " choice " << c;
            }
            ASSERT_EQ(bitsOf(row.back().first), bitsOf(sentinel.first));
        }
    }
}

TEST(SreDifferential, MatchesLegacyBitForBit)
{
    // Seeded interval problems on both budget paths: a finite budget
    // a third of the start's cost, so the over-commit penalty is live
    // (fig03's path), and CodeCrunch's unbounded budget with a priced
    // cost.
    std::size_t problems = 0;
    for (std::uint64_t seed = 1; seed <= 26; ++seed) {
        for (const std::size_t n : {1, 8, 30, 200}) {
            for (const bool priced : {false, true}) {
                Rng rng(seed * 7919 + n * 2 + (priced ? 1 : 0));
                std::vector<FunctionEstimate> estimates;
                for (std::size_t i = 0; i < n; ++i)
                    estimates.push_back(randomEstimate(rng));
                ChoiceRestrictions restrictions;
                restrictions.allowCompression = !rng.bernoulli(0.15);
                restrictions.allowSnapshot = !rng.bernoulli(0.15);
                restrictions.allowArm = !rng.bernoulli(0.15);
                restrictions.slaSlack = rng.bernoulli(0.3) ? 0.2 : -1.0;
                if (priced) {
                    restrictions.costWeight =
                        std::pow(10.0, rng.uniform(2.0, 6.0));
                }
                const opt::Assignment start =
                    rng.bernoulli(0.25)
                        ? opt::Assignment(n, opt::Choice{})
                        : opt::randomAssignment(n, rng);
                const Dollars startCost =
                    IntervalObjective(estimates, kRates, 1.0,
                                      restrictions, kSnapshotRates)
                        .cost(start);
                const Dollars budget =
                    priced ? 1e18 : std::max(startCost / 3.0, 1e-6);
                const IntervalObjective objective(
                    estimates, kRates, budget, restrictions,
                    kSnapshotRates);
                std::vector<std::uint32_t> counts(n);
                for (auto& count : counts)
                    count = static_cast<std::uint32_t>(rng.next() % 4);

                SCOPED_TRACE(testing::Message()
                             << "seed " << seed << " n " << n
                             << (priced ? " priced" : " finite"));
                auto expectSame = [](const opt::OptimizerResult& now,
                                     const opt::OptimizerResult& then) {
                    EXPECT_TRUE(now.assignment == then.assignment);
                    EXPECT_EQ(bitsOf(now.score), bitsOf(then.score));
                    EXPECT_EQ(now.evaluations, then.evaluations);
                };

                const opt::SreConfig config;
                Rng rngNow(seed), rngThen(seed);
                std::vector<std::uint32_t> countsNow = counts;
                std::vector<std::uint32_t> countsThen = counts;
                expectSame(opt::SreOptimizer(config).optimizeWithCounts(
                               objective, start, rngNow, countsNow),
                           opt::legacy::sreOptimizeWithCounts(
                               config, objective, start, rngThen,
                               countsThen));
                EXPECT_EQ(countsNow, countsThen);
                EXPECT_EQ(rngNow.next(), rngThen.next());

                // CodeCrunch's -noSRE path.
                expectSame(opt::CoordinateDescent(2).optimize(
                               objective, start, rngNow),
                           opt::legacy::coordinateDescent(objective,
                                                          start, 2));
                ++problems;
            }
        }
    }
    EXPECT_GE(problems, 200u);
}

// --- ObservedStats ----------------------------------------------------------------

TEST(ObservedStats, FallsBackToProfileThenLearns)
{
    trace::FunctionProfile profile;
    profile.id = 0;
    profile.exec[0] = 5.0;
    profile.coldStart[0] = 7.0;
    profile.decompress[0] = 1.5;

    ObservedStats stats(1);
    auto estimate = stats.estimate(profile, 100.0, 10.0);
    EXPECT_DOUBLE_EQ(estimate.exec[0], 5.0);
    EXPECT_DOUBLE_EQ(estimate.coldStart[0], 7.0);

    metrics::InvocationRecord record;
    record.function = 0;
    record.exec = 3.0;
    record.startup = 4.0;
    record.start = StartType::Cold;
    record.nodeType = NodeType::X86;
    stats.update(record);

    estimate = stats.estimate(profile, 100.0, 10.0);
    EXPECT_DOUBLE_EQ(estimate.exec[0], 3.0);   // observed
    EXPECT_DOUBLE_EQ(estimate.coldStart[0], 4.0);
    EXPECT_DOUBLE_EQ(estimate.decompress[0], 1.5); // still profile
    EXPECT_DOUBLE_EQ(estimate.pest, 100.0);
    EXPECT_DOUBLE_EQ(estimate.sigma, 10.0);
}

TEST(ObservedStats, SeparatesArchitectures)
{
    trace::FunctionProfile profile;
    profile.id = 0;
    ObservedStats stats(1);
    metrics::InvocationRecord record;
    record.function = 0;
    record.exec = 2.0;
    record.start = StartType::Warm;
    record.nodeType = NodeType::ARM;
    stats.update(record);
    const auto estimate = stats.estimate(profile, -1.0, 0.0);
    EXPECT_DOUBLE_EQ(estimate.exec[1], 2.0);
    EXPECT_DOUBLE_EQ(estimate.exec[0], profile.exec[0]);
}

TEST(ObservedStats, CompressedStartupFeedsDecompress)
{
    trace::FunctionProfile profile;
    profile.id = 0;
    ObservedStats stats(1);
    metrics::InvocationRecord record;
    record.function = 0;
    record.exec = 2.0;
    record.startup = 0.8;
    record.start = StartType::WarmCompressed;
    record.nodeType = NodeType::X86;
    stats.update(record);
    const auto estimate = stats.estimate(profile, -1.0, 0.0);
    EXPECT_DOUBLE_EQ(estimate.decompress[0], 0.8);
}

// --- CodeCrunch configuration surface ------------------------------------------------

TEST(CodeCrunch, NameReflectsAblations)
{
    EXPECT_EQ(CodeCrunch().name(), "CodeCrunch");
    CodeCrunchConfig noSre;
    noSre.useSre = false;
    EXPECT_EQ(CodeCrunch(noSre).name(), "CodeCrunch-noSRE");
    CodeCrunchConfig noComp;
    noComp.useCompression = false;
    EXPECT_EQ(CodeCrunch(noComp).name(), "CodeCrunch-noComp");
    CodeCrunchConfig noSnap;
    noSnap.useSnapshot = false;
    EXPECT_EQ(CodeCrunch(noSnap).name(), "CodeCrunch-noSnapshot");
    CodeCrunchConfig x86;
    x86.archMode = ArchMode::X86Only;
    EXPECT_EQ(CodeCrunch(x86).name(), "CodeCrunch-x86");
    CodeCrunchConfig arm;
    arm.archMode = ArchMode::ArmOnly;
    EXPECT_EQ(CodeCrunch(arm).name(), "CodeCrunch-ARM");
    CodeCrunchConfig fixed;
    fixed.fixedKeepAlive = true;
    EXPECT_EQ(CodeCrunch(fixed).name(), "CodeCrunch-fixedKA");
    CodeCrunchConfig sla;
    sla.slaSlack = 0.2;
    EXPECT_EQ(CodeCrunch(sla).name(), "CodeCrunch-SLA");
}
