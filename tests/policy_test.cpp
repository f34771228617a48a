/**
 * @file
 * Policy unit tests with a mock context: FunctionHistory statistics,
 * SitW's histogram logic, FaasCache's greedy-dual eviction, IceBreaker's
 * spectral prediction, the Oracle's future knowledge, and the Enhanced
 * wrapper's compression/architecture augmentation.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "legacy_fft.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "policy/enhanced.hpp"
#include "policy/faascache.hpp"
#include "policy/fixed_keepalive.hpp"
#include "policy/history.hpp"
#include "policy/icebreaker.hpp"
#include "policy/oracle.hpp"
#include "policy/sitw.hpp"
#include "trace/generator.hpp"

using namespace codecrunch;
using namespace codecrunch::policy;

namespace {

/**
 * Minimal PolicyContext: a real cluster plus request recording.
 */
class FakeContext : public PolicyContext
{
  public:
    explicit FakeContext(std::size_t numFunctions = 4)
        : cluster_(cluster::ClusterConfig{})
    {
        trace::TraceConfig config;
        config.numFunctions = numFunctions;
        config.days = 0.01;
        workload_ = trace::TraceGenerator::generate(config);
    }

    const trace::Workload& workload() const override
    {
        return workload_;
    }

    const cluster::Cluster& clusterState() const override
    {
        return cluster_;
    }

    Seconds now() const override { return now_; }

    obs::TraceBuffer* traceSink() const override { return trace_; }

    bool
    requestPrewarm(FunctionId function, NodeType type,
                   Seconds keepAliveSeconds) override
    {
        prewarms.push_back({function, type, keepAliveSeconds});
        return true;
    }

    void
    requestEvict(FunctionId function) override
    {
        evictions.push_back(function);
    }

    void
    requestCompress(FunctionId function) override
    {
        compressions.push_back(function);
    }

    void
    requestSetKeepAlive(FunctionId function, Seconds seconds) override
    {
        keepAlives.push_back({function, seconds});
    }

    struct Prewarm {
        FunctionId function;
        NodeType type;
        Seconds keepAlive;
    };

    trace::Workload workload_;
    cluster::Cluster cluster_;
    Seconds now_ = 0.0;
    obs::TraceBuffer* trace_ = nullptr;
    std::vector<Prewarm> prewarms;
    std::vector<FunctionId> evictions;
    std::vector<FunctionId> compressions;
    std::vector<std::pair<FunctionId, Seconds>> keepAlives;
};

metrics::InvocationRecord
record(FunctionId function, Seconds arrival,
       NodeType type = NodeType::X86,
       StartType start = StartType::Cold)
{
    metrics::InvocationRecord r;
    r.function = function;
    r.arrival = arrival;
    r.exec = 1.0;
    r.startup = start == StartType::Cold ? 2.0 : 0.0;
    r.start = start;
    r.nodeType = type;
    return r;
}

} // namespace

// --- FunctionHistory --------------------------------------------------------

TEST(FunctionHistory, TracksIatStatistics)
{
    FunctionHistory h;
    for (int i = 0; i <= 10; ++i)
        h.record(i * 60.0);
    EXPECT_EQ(h.count(), 11u);
    EXPECT_DOUBLE_EQ(h.lastArrival(), 600.0);
    EXPECT_NEAR(h.globalMean(), 60.0, 1e-9);
    EXPECT_NEAR(h.globalStddev(), 0.0, 1e-9);
    EXPECT_NEAR(h.localMean(), 60.0, 1e-9);
    EXPECT_NEAR(h.iatCv(), 0.0, 1e-9);
}

TEST(FunctionHistory, LocalWindowSlides)
{
    FunctionHistory h(3);
    // Early IATs of 10 s, recent IATs of 100 s.
    Seconds t = 0.0;
    for (int i = 0; i < 5; ++i)
        h.record(t += 10.0);
    for (int i = 0; i < 4; ++i)
        h.record(t += 100.0);
    EXPECT_NEAR(h.localMean(), 100.0, 1e-9);
    EXPECT_LT(h.globalMean(), 100.0);
}

TEST(FunctionHistory, IdleQuantileFromHistogram)
{
    FunctionHistory h;
    Seconds t = 0.0;
    // 9 idle gaps of ~2 min, one of ~50 min.
    h.record(t);
    for (int i = 0; i < 9; ++i)
        h.record(t += 125.0);
    h.record(t += 3000.0);
    EXPECT_LE(h.idleQuantile(0.5), 3 * 60.0);
    EXPECT_GE(h.idleQuantile(0.99), 45 * 60.0);
}

TEST(FunctionHistory, GlobalResetClearsStats)
{
    FunctionHistory h;
    for (int i = 0; i < 5; ++i)
        h.record(i * 10.0);
    h.resetGlobal();
    EXPECT_EQ(h.globalCount(), 0u);
    EXPECT_EQ(h.count(), 5u); // invocation count survives
}

TEST(FunctionHistory, MinuteSeriesPlacesCounts)
{
    FunctionHistory h;
    h.record(30.0);   // minute 0
    h.record(90.0);   // minute 1
    h.record(100.0);  // minute 1
    // Minutes 0..3, zero-padded to 8 entries.
    std::vector<double> series(8, 7.0);
    h.minuteSeries(3, 4, series);
    EXPECT_DOUBLE_EQ(series[0], 1.0);
    EXPECT_DOUBLE_EQ(series[1], 2.0);
    EXPECT_DOUBLE_EQ(series[2], 0.0);
    for (std::size_t i = 3; i < series.size(); ++i)
        EXPECT_DOUBLE_EQ(series[i], 0.0);
    EXPECT_EQ(h.recentCount(3, 4), 3u);
}

TEST(FunctionHistory, MinuteWindowForgetsOldMinutes)
{
    FunctionHistory h(10, 3); // keep only 3 distinct minutes
    h.record(10.0);   // minute 0
    h.record(70.0);   // minute 1
    h.record(130.0);  // minute 2
    h.record(190.0);  // minute 3: evicts minute 0
    EXPECT_EQ(h.recentCount(3, 10), 3u);
    std::vector<double> series(4);
    h.minuteSeries(3, 4, series);
    EXPECT_DOUBLE_EQ(series[0], 0.0); // minute 0 forgotten
    EXPECT_DOUBLE_EQ(series[3], 1.0);
}

TEST(FunctionHistory, IatCvDistinguishesPatterns)
{
    FunctionHistory periodic, erratic;
    Rng rng(9);
    Seconds tp = 0.0, te = 0.0;
    for (int i = 0; i < 200; ++i) {
        periodic.record(tp += 60.0);
        erratic.record(te += rng.exponential(1.0 / 60.0));
    }
    EXPECT_LT(periodic.iatCv(), 0.01);
    EXPECT_GT(erratic.iatCv(), 0.6);
}

// --- FixedKeepAlive -----------------------------------------------------------

TEST(FixedKeepAlive, ReturnsConfiguredWindow)
{
    FakeContext context;
    FixedKeepAlive policy(300.0, true, NodeType::ARM);
    policy.bind(context);
    EXPECT_EQ(policy.coldPlacement(0), NodeType::ARM);
    const auto decision = policy.onFinish(record(0, 0.0));
    EXPECT_DOUBLE_EQ(decision.keepAliveSeconds, 300.0);
    EXPECT_TRUE(decision.compress);
    EXPECT_EQ(policy.name(), "Fixed+Compress");
}

// --- SitW ------------------------------------------------------------------------

TEST(SitW, DefaultsForUnknownFunctions)
{
    FakeContext context;
    SitW policy;
    policy.bind(context);
    const auto decision = policy.onFinish(record(0, 0.0));
    EXPECT_DOUBLE_EQ(decision.keepAliveSeconds, 600.0);
    EXPECT_FALSE(decision.compress);
}

TEST(SitW, PredictablePatternUsesHistogramTail)
{
    FakeContext context;
    SitW policy;
    policy.bind(context);
    // Perfectly periodic at ~2 min.
    Seconds t = 0.0;
    for (int i = 0; i < 20; ++i)
        policy.onArrival(0, t += 125.0);
    context.now_ = t;
    const auto decision = policy.onFinish(record(0, t));
    // Tail of the idle histogram: ~3 minutes, far below the 10-min
    // default and the 60-min cap.
    EXPECT_GT(decision.keepAliveSeconds, 60.0);
    EXPECT_LE(decision.keepAliveSeconds, 5 * 60.0);
}

TEST(SitW, LongPredictableIdleSchedulesPrewarm)
{
    FakeContext context;
    SitW policy;
    policy.bind(context);
    Seconds t = 0.0;
    for (int i = 0; i < 20; ++i)
        policy.onArrival(0, t += 20 * 60.0); // 20-min period
    context.now_ = t;
    const auto decision = policy.onFinish(record(0, t));
    EXPECT_DOUBLE_EQ(decision.keepAliveSeconds, 0.0); // release now
    policy.onTick(t + 17.0 * 60.0);                   // not due yet
    EXPECT_TRUE(context.prewarms.empty());
    policy.onTick(t + 19.5 * 60.0); // due
    ASSERT_EQ(context.prewarms.size(), 1u);
    EXPECT_EQ(context.prewarms[0].function, 0u);
}

TEST(SitW, ArrivalCancelsPendingPrewarm)
{
    FakeContext context;
    SitW policy;
    policy.bind(context);
    Seconds t = 0.0;
    for (int i = 0; i < 20; ++i)
        policy.onArrival(0, t += 20 * 60.0);
    context.now_ = t;
    policy.onFinish(record(0, t));
    policy.onArrival(0, t + 60.0); // invoked before the prewarm fired
    policy.onTick(t + 19.5 * 60.0);
    EXPECT_TRUE(context.prewarms.empty());
}

TEST(SitW, ErraticPatternFallsBackToDefault)
{
    FakeContext context;
    SitW::Config config;
    config.cvThreshold = 0.5;
    SitW policy(config);
    policy.bind(context);
    Rng rng(3);
    Seconds t = 0.0;
    for (int i = 0; i < 30; ++i)
        policy.onArrival(0, t += rng.pareto(10.0, 1.1));
    context.now_ = t;
    const auto decision = policy.onFinish(record(0, t));
    EXPECT_DOUBLE_EQ(decision.keepAliveSeconds, 600.0);
}

// --- FaasCache ------------------------------------------------------------------

TEST(FaasCache, KeepsUntilEvicted)
{
    FakeContext context;
    FaasCache policy;
    policy.bind(context);
    const auto decision = policy.onFinish(record(0, 0.0));
    EXPECT_DOUBLE_EQ(decision.keepAliveSeconds, 3600.0);
}

TEST(FaasCache, EvictsLowestGreedyDualPriority)
{
    FakeContext context(4);
    FaasCache policy;
    policy.bind(context);
    // Function 2 is hot (50 arrivals), function 1 was seen once.
    for (int i = 0; i < 50; ++i)
        policy.onArrival(2, i);
    policy.onArrival(1, 0.0);
    auto& cluster = context.cluster_;
    const auto rareContainer = cluster.addWarm(
        0, 1, context.workload_.profile(1).memoryMb, false, 0.0);
    cluster.addWarm(0, 2, context.workload_.profile(2).memoryMb, false,
                    0.0);
    // priority = freq * coldStart / memoryMb. Per MB, function 2 is the
    // cheaper miss; only its arrival count keeps it cached.
    const auto costPerMb = [&](FunctionId f) {
        const auto& profile = context.workload_.profile(f);
        return profile.coldStart[static_cast<int>(NodeType::X86)] /
               profile.memoryMb;
    };
    ASSERT_LT(costPerMb(2), costPerMb(1));
    ASSERT_GT(50.0 * costPerMb(2), costPerMb(1));
    const auto victim = policy.pickVictim(0, 100.0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, rareContainer);
    // Aging raises every priority by the same clock: same victim.
    EXPECT_EQ(policy.pickVictim(0, 100.0), rareContainer);
}

TEST(FaasCache, DeclinesWhenNodeHasNoWarmContainers)
{
    FakeContext context;
    FaasCache policy;
    policy.bind(context);
    EXPECT_FALSE(policy.pickVictim(0, 100.0).has_value());
}

// --- IceBreaker ------------------------------------------------------------------

namespace {

/** Runs one IceBreaker tick and counts the FFTs it ran. */
std::uint64_t
spectraComputedByTick(IceBreaker& policy, Seconds now)
{
    auto& profiler = obs::Profiler::global();
    profiler.reset();
    profiler.setEnabled(true);
    policy.onTick(now);
    profiler.setEnabled(false);
    std::uint64_t transforms = 0;
    for (const auto& phase : profiler.report().children) {
        if (phase.name == "fft.transform")
            transforms += phase.calls;
    }
    profiler.reset();
    return transforms;
}

} // namespace

TEST(IceBreaker, ShortKeepAliveAfterExecution)
{
    FakeContext context;
    IceBreaker policy;
    policy.bind(context);
    const auto decision = policy.onFinish(record(0, 0.0));
    EXPECT_DOUBLE_EQ(decision.keepAliveSeconds, 120.0);
}

TEST(IceBreaker, PrewarmsPeriodicFunctionBeforePrediction)
{
    FakeContext context;
    IceBreaker policy;
    policy.bind(context);
    // Strongly periodic: every 8 minutes.
    Seconds t = 0.0;
    for (int i = 0; i < 20; ++i) {
        t = i * 8.0 * 60.0;
        policy.onArrival(0, t);
    }
    // Just before the next predicted invocation (t + 8 min).
    context.now_ = t + 7.5 * 60.0;
    EXPECT_EQ(spectraComputedByTick(policy, context.now_), 1u);
    ASSERT_GE(context.prewarms.size(), 1u);
    EXPECT_EQ(context.prewarms[0].function, 0u);
}

TEST(IceBreaker, PredictConfidenceMatchesLegacyBits)
{
    FakeContext context;
    obs::TraceBuffer trace;
    context.trace_ = &trace;
    IceBreaker policy;
    policy.bind(context);
    // Every 8 minutes, with a double invocation every third beat so the
    // spectrum is not a clean comb.
    FunctionHistory history(10, IceBreaker::Config().windowMinutes);
    Seconds t = 0.0;
    for (int i = 0; i < 20; ++i) {
        t = i * 8.0 * 60.0;
        for (int k = 0; k < (i % 3 == 0 ? 2 : 1); ++k) {
            policy.onArrival(0, t + k);
            history.record(t + k);
        }
    }
    context.now_ = t + 7.5 * 60.0;
    policy.onTick(context.now_);
    ASSERT_EQ(trace.events().size(), 1u);
    const auto& predict = trace.events()[0];
    ASSERT_EQ(predict.kind, obs::TraceEvent::Kind::Predict);

    // The confidence the complex transform's full spectrum gives.
    std::vector<double> series(256);
    history.minuteSeries(
        static_cast<std::int64_t>(context.now_ / kSecondsPerMinute), 256,
        series);
    const auto spectrum = opt::legacy::forwardReal(series);
    const std::size_t bin = opt::legacy::dominantBins(spectrum, 1)[0];
    const auto confidence = opt::legacy::confidence(spectrum, bin);
    ASSERT_TRUE(confidence.has_value());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(predict.x),
              std::bit_cast<std::uint64_t>(*confidence));
    EXPECT_DOUBLE_EQ(predict.dur, 256.0 / static_cast<double>(bin) *
                                      kSecondsPerMinute);
}

TEST(IceBreaker, NoPrewarmWithoutEnoughHistory)
{
    FakeContext context;
    IceBreaker policy;
    policy.bind(context);
    policy.onArrival(0, 0.0);
    policy.onArrival(0, 480.0);
    policy.onTick(900.0);
    EXPECT_TRUE(context.prewarms.empty());
}

TEST(IceBreaker, NoPrewarmWhenAlreadyWarm)
{
    FakeContext context;
    IceBreaker policy;
    policy.bind(context);
    Seconds t = 0.0;
    for (int i = 0; i < 20; ++i) {
        t = i * 8.0 * 60.0;
        policy.onArrival(0, t);
    }
    context.cluster_.addWarm(
        0, 0, context.workload_.profile(0).memoryMb, false, t);
    context.now_ = t + 7.5 * 60.0;
    // The warm check runs first: a warm function's spectrum is unread.
    EXPECT_EQ(spectraComputedByTick(policy, context.now_), 0u);
    EXPECT_TRUE(context.prewarms.empty());
}

// --- Oracle -----------------------------------------------------------------------

namespace {

/** Context whose workload has two functions with known futures. */
class OracleContext : public FakeContext
{
  public:
    OracleContext() : FakeContext(2)
    {
        workload_.invocations.clear();
        // Function 0: at t = 100, 200, 5000. Function 1: at 150 only.
        workload_.invocations.push_back({0, 100.0, 1.0});
        workload_.invocations.push_back({1, 150.0, 1.0});
        workload_.invocations.push_back({0, 200.0, 1.0});
        workload_.invocations.push_back({0, 5000.0, 1.0});
        workload_.duration = 6000.0;
    }
};

} // namespace

TEST(Oracle, KeepsExactlyUntilNextInvocation)
{
    OracleContext context;
    Oracle policy; // unconstrained budget
    policy.bind(context);
    policy.onArrival(0, 100.0);
    context.now_ = 101.0; // finished at 101
    const auto decision = policy.onFinish(record(0, 100.0));
    EXPECT_NEAR(decision.keepAliveSeconds, 99.0 + 1.0, 1e-6);
}

TEST(Oracle, DropsWhenNeverInvokedAgain)
{
    OracleContext context;
    Oracle policy;
    policy.bind(context);
    policy.onArrival(1, 150.0);
    context.now_ = 151.0;
    const auto decision = policy.onFinish(record(1, 150.0));
    EXPECT_DOUBLE_EQ(decision.keepAliveSeconds, 0.0);
}

TEST(Oracle, DropsBeyondPlatformCap)
{
    OracleContext context;
    Oracle policy;
    policy.bind(context);
    policy.onArrival(0, 100.0);
    policy.onArrival(0, 200.0);
    context.now_ = 201.0; // next at 5000: idle 4799 s > 3600 s
    const auto decision = policy.onFinish(record(0, 200.0));
    EXPECT_DOUBLE_EQ(decision.keepAliveSeconds, 0.0);
}

TEST(Oracle, PlacesOnFasterArchitecture)
{
    OracleContext context;
    Oracle policy;
    policy.bind(context);
    const auto& profile = context.workload_.profile(0);
    EXPECT_EQ(policy.coldPlacement(0), profile.fasterArch());
}

TEST(Oracle, BeladyVictimIsFarthestNextUse)
{
    OracleContext context;
    Oracle policy;
    policy.bind(context);
    auto& cluster = context.cluster_;
    // Function 0 fires next at 100; function 1 at 150.
    const auto c0 = cluster.addWarm(
        0, 0, context.workload_.profile(0).memoryMb, false, 0.0);
    const auto c1 = cluster.addWarm(
        0, 1, context.workload_.profile(1).memoryMb, false, 0.0);
    context.now_ = 0.0;
    const auto victim = policy.pickVictim(0, 100.0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, c1);
    (void)c0;
}

// --- Enhanced ---------------------------------------------------------------------

TEST(Enhanced, AddsArchSelectionToInnerPolicy)
{
    FakeContext context;
    Enhanced policy(std::make_unique<FixedKeepAlive>());
    policy.bind(context);
    const auto& profile = context.workload_.profile(0);
    EXPECT_EQ(policy.coldPlacement(0), profile.fasterArch());
    EXPECT_EQ(policy.name(), "Enhanced-Fixed");
}

TEST(Enhanced, CompressesOnlyUnderPressure)
{
    FakeContext context;
    Enhanced::Config config;
    config.compressionPressure = 0.0001; // everything is pressure
    Enhanced pressured(std::make_unique<FixedKeepAlive>(), config);
    pressured.bind(context);
    // Put some warm memory on the cluster so pressure is nonzero.
    context.cluster_.addWarm(0, 0, 1000, false, 0.0);

    // Pick a compression-favorable function.
    FunctionId favorable = kInvalidFunction;
    for (const auto& f : context.workload_.functions) {
        if (f.compressionFavorable(f.fasterArch()) &&
            f.compressedMb < f.memoryMb) {
            favorable = f.id;
            break;
        }
    }
    if (favorable == kInvalidFunction)
        GTEST_SKIP() << "no favorable function in tiny workload";
    const auto decision = pressured.onFinish(record(favorable, 0.0));
    EXPECT_TRUE(decision.compress);

    Enhanced::Config relaxedConfig;
    relaxedConfig.compressionPressure = 0.99;
    Enhanced relaxed(std::make_unique<FixedKeepAlive>(),
                     relaxedConfig);
    relaxed.bind(context);
    EXPECT_FALSE(relaxed.onFinish(record(favorable, 0.0)).compress);
}

TEST(Enhanced, PreservesInnerKeepAliveDecision)
{
    FakeContext context;
    Enhanced policy(std::make_unique<FixedKeepAlive>(321.0));
    policy.bind(context);
    const auto decision = policy.onFinish(record(0, 0.0));
    EXPECT_DOUBLE_EQ(decision.keepAliveSeconds, 321.0);
}

TEST(Enhanced, DisabledFlagsAreTransparent)
{
    FakeContext context;
    Enhanced::Config config;
    config.archSelection = false;
    config.compression = false;
    Enhanced policy(
        std::make_unique<FixedKeepAlive>(600.0, false, NodeType::X86),
        config);
    policy.bind(context);
    EXPECT_EQ(policy.coldPlacement(0), NodeType::X86);
    const auto decision = policy.onFinish(record(0, 0.0));
    EXPECT_FALSE(decision.compress);
    EXPECT_FALSE(decision.warmupLocation.has_value());
}

namespace {

/** Inner policy that records the fault hooks it receives. */
class FaultRecorder final : public FixedKeepAlive
{
  public:
    void
    onNodeCrash(NodeId node, const std::vector<FunctionId>& lostFunctions,
                Seconds now) override
    {
        crashes.push_back({node, lostFunctions, now});
    }

    void
    onNodeRecover(NodeId node, Seconds now) override
    {
        recoveries.push_back({node, now});
    }

    struct Crash {
        NodeId node;
        std::vector<FunctionId> lost;
        Seconds now;
    };
    std::vector<Crash> crashes;
    std::vector<std::pair<NodeId, Seconds>> recoveries;
};

} // namespace

TEST(Enhanced, ForwardsFaultHooksToWrappedPolicy)
{
    FakeContext context;
    auto inner = std::make_unique<FaultRecorder>();
    FaultRecorder& recorder = *inner;
    Enhanced policy(std::move(inner));
    policy.bind(context);
    policy.onNodeCrash(2, {0, 3, 3}, 120.0);
    policy.onNodeRecover(2, 300.0);
    ASSERT_EQ(recorder.crashes.size(), 1u);
    EXPECT_EQ(recorder.crashes[0].node, 2u);
    EXPECT_EQ(recorder.crashes[0].lost,
              (std::vector<FunctionId>{0, 3, 3}));
    EXPECT_DOUBLE_EQ(recorder.crashes[0].now, 120.0);
    ASSERT_EQ(recorder.recoveries.size(), 1u);
    EXPECT_EQ(recorder.recoveries[0].first, 2u);
    EXPECT_DOUBLE_EQ(recorder.recoveries[0].second, 300.0);
}
