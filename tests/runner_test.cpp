/**
 * @file
 * Tests for the parallel experiment runner: the engine's own threads
 * (plan-order starts, the thread bound, plans smaller than the thread
 * count), deterministic seeding, plan-order result collection, and —
 * the core contract — bit-identical results between multi-threaded
 * and serial execution of the same plan.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runner/engine.hpp"
#include "runner/progress.hpp"
#include "runner/report.hpp"

using namespace codecrunch;
using namespace codecrunch::experiments;
using namespace codecrunch::runner;

namespace {

/** A scenario small enough for many runs per test. */
Scenario
tinyScenario()
{
    Scenario scenario = Scenario::small();
    scenario.traceConfig.numFunctions = 40;
    scenario.traceConfig.days = 0.08;
    scenario.traceConfig.targetMeanRatePerSecond = 1.0;
    return scenario;
}

/**
 * Expect every deterministic field of two results to be bit-identical
 * (wall-clock observables like decisionWallSeconds are excluded).
 */
void
expectIdentical(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.metrics.invocations(), b.metrics.invocations());
    EXPECT_EQ(a.metrics.meanServiceTime(),
              b.metrics.meanServiceTime());
    EXPECT_EQ(a.metrics.meanWaitTime(), b.metrics.meanWaitTime());
    EXPECT_EQ(a.metrics.warmStarts(), b.metrics.warmStarts());
    EXPECT_EQ(a.metrics.coldStarts(), b.metrics.coldStarts());
    EXPECT_EQ(a.metrics.compressedStarts(),
              b.metrics.compressedStarts());
    EXPECT_EQ(a.metrics.compressions(), b.metrics.compressions());
    for (const double q : {0.1, 0.5, 0.9, 0.95, 0.99}) {
        EXPECT_EQ(a.metrics.serviceQuantile(q),
                  b.metrics.serviceQuantile(q))
            << "quantile " << q;
    }
    EXPECT_EQ(a.keepAliveSpend, b.keepAliveSpend);
    EXPECT_EQ(a.unserved, b.unserved);
    EXPECT_EQ(a.coldNoContainer, b.coldNoContainer);
    EXPECT_EQ(a.coldContainerCoreBusy, b.coldContainerCoreBusy);
    EXPECT_EQ(a.coldContainerNoMemory, b.coldContainerNoMemory);
    EXPECT_EQ(a.endExpired, b.endExpired);
    EXPECT_EQ(a.endConsumed, b.endConsumed);
    EXPECT_EQ(a.endEvictedForExec, b.endEvictedForExec);
    EXPECT_EQ(a.endEvictedForKeep, b.endEvictedForKeep);
    EXPECT_EQ(a.endEvictedByPolicy, b.endEvictedByPolicy);
    EXPECT_EQ(a.keepDropped, b.keepDropped);
    ASSERT_EQ(a.metrics.records().size(), b.metrics.records().size());
}

/** Progress sink recording call counts for wiring tests. */
class CountingSink final : public ProgressSink
{
  public:
    void
    planStarted(const std::string&, std::size_t jobCount) override
    {
        planJobs = jobCount;
    }
    void
    jobStarted(std::size_t, const std::string&, Seconds) override
    {
        ++started;
    }
    void
    jobHeartbeat(std::size_t, Seconds simNow) override
    {
        ++heartbeats;
        lastSim = simNow;
    }
    void
    jobFinished(std::size_t, bool success) override
    {
        ++finished;
        allSucceeded = allSucceeded && success;
    }
    void planFinished() override { ++plansFinished; }

    std::size_t planJobs = 0;
    std::atomic<std::size_t> started{0};
    std::atomic<std::size_t> heartbeats{0};
    std::atomic<std::size_t> finished{0};
    std::atomic<Seconds> lastSim{0.0};
    std::atomic<std::size_t> plansFinished{0};
    std::atomic<bool> allSucceeded{true};
};

} // namespace

TEST(SeedForKey, StableAndKeyDependent)
{
    const std::uint64_t a = seedForKey("fig13/CodeCrunch@0.25x");
    EXPECT_EQ(a, seedForKey("fig13/CodeCrunch@0.25x"));
    EXPECT_NE(a, seedForKey("fig13/CodeCrunch@0.50x"));
    EXPECT_NE(a, seedForKey("fig13/CodeCrunch@0.25x", 1));
    EXPECT_NE(seedForKey(""), seedForKey("x"));
}

TEST(RunEngine, ResultsComeBackInPlanOrder)
{
    RunEngine engine({4, nullptr});
    Plan<int> plan("order");
    for (int i = 0; i < 8; ++i) {
        plan.add("job" + std::to_string(i),
                 static_cast<std::uint64_t>(i),
                 [i](const JobContext&) {
                     // Later jobs finish first.
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(8 - i));
                     return i;
                 });
    }
    const auto results = engine.run(plan);
    ASSERT_EQ(results.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(results[i], i);
}

TEST(RunEngine, JobsStartInPlanOrder)
{
    // One thread runs the jobs back to back, so the order they start
    // in is the order they are claimed: plan order.
    RunEngine engine({1, nullptr});
    constexpr int kJobs = 64;
    std::vector<int> order;
    Plan<int> plan("start-order");
    for (int i = 0; i < kJobs; ++i) {
        plan.add("job" + std::to_string(i), 0,
                 [&order, i](const JobContext&) {
                     order.push_back(i);
                     return i;
                 });
    }
    engine.run(plan);
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kJobs));
    for (int i = 0; i < kJobs; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(RunEngine, NeverRunsMoreJobsThanThreads)
{
    RunEngine engine({3, nullptr});
    std::atomic<int> inFlight{0};
    std::atomic<int> peak{0};
    Plan<int> plan("bounded");
    for (int i = 0; i < 16; ++i) {
        plan.add("job" + std::to_string(i), 0,
                 [&, i](const JobContext&) {
                     const int now = inFlight.fetch_add(1) + 1;
                     int seen = peak.load();
                     while (now > seen &&
                            !peak.compare_exchange_weak(seen, now)) {
                     }
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(2));
                     inFlight.fetch_sub(1);
                     return i;
                 });
    }
    const auto results = engine.run(plan);
    EXPECT_LE(peak.load(), 3);
    ASSERT_EQ(results.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(results[i], i);
}

TEST(RunEngine, MoreThreadsThanJobs)
{
    // Three jobs on eight threads all run at once: each waits until
    // every job has started.
    RunEngine engine({8, nullptr});
    EXPECT_EQ(engine.threads(), 8u);
    std::atomic<int> started{0};
    Plan<int> plan("small");
    for (int i = 0; i < 3; ++i) {
        plan.add("job" + std::to_string(i), 0, [&](const JobContext&) {
            started.fetch_add(1);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(30);
            while (started.load() < 3 &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            return started.load();
        });
    }
    EXPECT_EQ(engine.run(plan), (std::vector<int>{3, 3, 3}));
}

TEST(RunEngine, EmptyPlanReturnsNothing)
{
    CountingSink sink;
    RunEngine engine({0, &sink});
    EXPECT_GE(engine.threads(), 1u); // 0 resolves to the core count
    const auto results = engine.run(Plan<int>("empty"));
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(sink.planJobs, 0u);
    EXPECT_EQ(sink.started.load(), 0u);
    EXPECT_EQ(sink.plansFinished.load(), 1u);
}

TEST(RunEngine, JobExceptionIsRethrownAfterPlanSettles)
{
    RunEngine engine({2, nullptr});
    Plan<int> plan("throwing");
    std::atomic<int> completed{0};
    plan.add("ok1", 0, [&](const JobContext&) {
        ++completed;
        return 1;
    });
    plan.add("bad", 0, [](const JobContext&) -> int {
        throw std::runtime_error("job failed");
    });
    plan.add("ok2", 0, [&](const JobContext&) {
        ++completed;
        return 2;
    });
    EXPECT_THROW(engine.run(plan), std::runtime_error);
    // Sibling jobs still ran to completion; the engine stays usable.
    EXPECT_EQ(completed.load(), 2);
    Plan<int> again("after");
    again.add("j", 0, [](const JobContext&) { return 7; });
    EXPECT_EQ(engine.run(again).front(), 7);
}

TEST(RunEngine, ProgressSinkSeesEveryJobAndHeartbeats)
{
    CountingSink sink;
    RunEngine engine({2, &sink});
    Harness harness(tinyScenario());
    SimPlan plan("progress");
    addSimJob(plan, "FixedKeepAlive", harness, [] {
        return std::make_unique<policy::FixedKeepAlive>();
    });
    addSimJob(plan, "SitW", harness,
              [] { return std::make_unique<policy::SitW>(); });
    engine.run(plan);
    EXPECT_EQ(sink.planJobs, 2u);
    EXPECT_EQ(sink.started.load(), 2u);
    EXPECT_EQ(sink.finished.load(), 2u);
    EXPECT_EQ(sink.plansFinished.load(), 1u);
    EXPECT_TRUE(sink.allSucceeded.load());
    // One heartbeat per optimizer tick per job.
    EXPECT_GT(sink.heartbeats.load(), 10u);
    EXPECT_GT(sink.lastSim.load(), 0.0);
}

TEST(RunEngine, ParallelResultsAreBitIdenticalToSerial)
{
    Harness harness(tinyScenario());

    const auto buildPlan = [&] {
        SimPlan plan("determinism");
        addSimJob(plan, "SitW", harness,
                  [] { return std::make_unique<policy::SitW>(); });
        addSimJob(plan, "FixedKeepAlive", harness, [] {
            return std::make_unique<policy::FixedKeepAlive>();
        });
        addSimJob(plan, "FaasCache", harness, [] {
            return std::make_unique<policy::FaasCache>();
        });
        addSimJob(plan, "IceBreaker", harness, [] {
            return std::make_unique<policy::IceBreaker>();
        });
        return plan;
    };

    // Serial reference: plain Harness::run on the caller's thread.
    std::vector<RunResult> serial;
    {
        policy::SitW sitw;
        serial.push_back(harness.run(sitw));
        policy::FixedKeepAlive fixed;
        serial.push_back(harness.run(fixed));
        policy::FaasCache faascache;
        serial.push_back(harness.run(faascache));
        policy::IceBreaker icebreaker;
        serial.push_back(harness.run(icebreaker));
    }

    RunEngine oneThread({1, nullptr});
    const auto single = oneThread.run(buildPlan());
    RunEngine fourThreads({4, nullptr});
    const auto parallel = fourThreads.run(buildPlan());
    ASSERT_EQ(single.size(), serial.size());
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expectIdentical(serial[i], single[i]);
        expectIdentical(serial[i], parallel[i]);
    }
}

TEST(RunEngine, MainComparisonMatchesSerialLoop)
{
    Harness harness(tinyScenario());

    // Serial reference (the pre-engine Harness::runMainComparison
    // sequence: each policy via Harness::run, budget primed from the
    // serial SitW run).
    std::vector<PolicyRun> serial;
    {
        policy::SitW sitw;
        serial.push_back(harness.runNamed(sitw));
        harness.primeBudgetRate(serial.front().result);
        policy::FaasCache faascache;
        serial.push_back(harness.runNamed(faascache));
        policy::IceBreaker icebreaker;
        serial.push_back(harness.runNamed(icebreaker));
        core::CodeCrunch codecrunch(harness.codecrunchConfig());
        serial.push_back(harness.runNamed(codecrunch));
        policy::Oracle oracle(harness.oracleConfig());
        serial.push_back(harness.runNamed(oracle));
    }

    RunEngine engine({4, nullptr});
    const auto runs = runMainComparison(harness, engine);
    ASSERT_EQ(runs.size(), 5u);
    EXPECT_EQ(runs[0].name, "SitW");
    EXPECT_EQ(runs[1].name, "FaasCache");
    EXPECT_EQ(runs[2].name, "IceBreaker");
    EXPECT_EQ(runs[3].name, "CodeCrunch");
    EXPECT_EQ(runs[4].name, "Oracle");
    for (std::size_t i = 0; i < runs.size(); ++i)
        expectIdentical(serial[i].result, runs[i].result);
}

TEST(Harness, BudgetRateIsPrimableAndThreadSafe)
{
    Harness harness(tinyScenario());

    policy::SitW sitw;
    const RunResult sitwResult = harness.run(sitw);
    const double primed = harness.primeBudgetRate(sitwResult);
    EXPECT_GT(primed, 0.0);
    EXPECT_EQ(harness.sitwBudgetRate(), primed);
    // Priming again does not overwrite.
    EXPECT_EQ(harness.primeBudgetRate(sitwResult), primed);

    // Concurrent readers agree.
    std::vector<std::thread> threads;
    std::vector<double> rates(4, -1.0);
    for (std::size_t i = 0; i < rates.size(); ++i) {
        threads.emplace_back([&harness, &rates, i] {
            rates[i] = harness.sitwBudgetRate();
        });
    }
    for (auto& thread : threads)
        thread.join();
    for (const double rate : rates)
        EXPECT_EQ(rate, primed);
}

TEST(HarnessDeathTest, UnprimedBudgetRateIsFatal)
{
    // No SitW run hides behind the budget rate: reading it before
    // primeBudgetRate() is a usage error, directly or through the
    // budget-normalized configs.
    Harness harness(tinyScenario());
    EXPECT_EXIT(harness.sitwBudgetRate(), ::testing::ExitedWithCode(1),
                "primeBudgetRate");
    EXPECT_EXIT(harness.codecrunchConfig(),
                ::testing::ExitedWithCode(1), "primeBudgetRate");
}

TEST(Report, WritesDiffableJsonArtifact)
{
    Harness harness(tinyScenario());
    policy::FixedKeepAlive fixed;
    std::vector<PolicyRun> runs;
    runs.push_back(harness.runNamed(fixed));

    const std::string path =
        ::testing::TempDir() + "runner_report_test/out.json";
    ReportMeta meta;
    meta.bench = "runner_test";
    meta.numbers.emplace_back("answer", 42.0);
    writeRunReport(path, meta, runs);
    writeRunReport(path + ".again", meta, runs);

    const auto slurp = [](const std::string& p) {
        std::ifstream in(p);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    const std::string text = slurp(path);
    EXPECT_NE(text.find("\"bench\": \"runner_test\""),
              std::string::npos);
    EXPECT_NE(text.find("\"answer\": 42"), std::string::npos);
    EXPECT_NE(text.find("\"mean_service_s\""), std::string::npos);
    EXPECT_NE(text.find("\"invocations\""), std::string::npos);
    // Deterministic fields only: two exports are byte-identical.
    EXPECT_EQ(text, slurp(path + ".again"));
    std::remove(path.c_str());
    std::remove((path + ".again").c_str());
}

TEST(Report, EmptyPathIsANoOp)
{
    ReportMeta meta;
    meta.bench = "noop";
    writeBenchReport("", meta, {});
    writeRunReport("", meta, {});
}

// bench/out hygiene: an unwritable artifact path must kill the bench
// with a diagnostic, never silently drop the report (fatal exits 1).

TEST(ReportDeathTest, UnreachableParentDirectoryIsFatal)
{
    ReportMeta meta;
    meta.bench = "doomed";
    // /dev/null is a file, so no subdirectory can be created below it.
    EXPECT_EXIT(
        writeBenchReport("/dev/null/sub/out.json", meta, {}),
        ::testing::ExitedWithCode(1), "report: cannot create");
}

TEST(ReportDeathTest, UnopenablePathIsFatal)
{
    ReportMeta meta;
    meta.bench = "doomed";
    // The target itself is an existing directory: the atomic write
    // lands in <path>.tmp and the final rename over it cannot.
    const std::string dir = ::testing::TempDir() + "report_is_a_dir";
    std::filesystem::create_directories(dir);
    EXPECT_EXIT(writeBenchReport(dir, meta, {}),
                ::testing::ExitedWithCode(1), "report: cannot rename");
}
