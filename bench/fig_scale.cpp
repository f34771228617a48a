/**
 * @file
 * Simulation-core scaling bench: how far the rebuilt core (4-ary heap
 * event queue, one in-flight entry per core) pushes catalog and
 * cluster size.
 *
 * Three tiers share one grid runner:
 *  - default / --scale-functions N: weak-scaling grid — functions,
 *    nodes and arrival rate grow together; per-point wall-clock,
 *    events/sec and peak RSS print on the console and join the JSON
 *    only outside --golden-mode (they are hardware-dependent, and the
 *    golden/determinism/dist artifacts are byte-compared). A strong-
 *    scaling pass re-runs the largest point at 1/2/4 worker threads.
 *  - --golden-mode: a seconds-scale preset (1k/10k/100k functions) for
 *    the golden_/determinism_/dist_identity_ ctest targets. The 100k
 *    point is the scale regression anchor: serial, --threads 4 and
 *    one-worker distributed execution must all produce this artifact
 *    byte-for-byte.
 *  - --stress: the 10^6-function, 1024-node point, gated behind the
 *    `stress` ctest label (CC_STRESS_TESTS=ON, nightly CI). Asserts
 *    wall-clock and peak-RSS budgets in-process and byte-compares the
 *    serialized RunResult of a serial re-run against a 4-thread one.
 *
 * Policy is FixedKeepAlive throughout: zero per-function policy state,
 * so the measured footprint is the simulation core's own.
 */
#include "bench/bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <sys/resource.h>
#include <utility>

using namespace codecrunch;
using namespace codecrunch::bench;

namespace {

/** One grid point: catalog size, cluster size, offered load. */
struct ScalePoint {
    std::string name;
    std::size_t functions = 0;
    int x86Nodes = 0;
    int armNodes = 0;
    double ratePerSecond = 0.0;
    double days = 0.0;
};

/** Peak resident set of this process in MB (Linux ru_maxrss is KB). */
double
peakRssMb()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** The scenario a grid point simulates. */
experiments::Scenario
pointScenario(const ScalePoint& point)
{
    experiments::Scenario scenario;
    scenario.traceConfig.numFunctions = point.functions;
    scenario.traceConfig.days = point.days;
    scenario.traceConfig.targetMeanRatePerSecond =
        point.ratePerSecond;
    scenario.traceConfig.seed = 42;
    scenario.clusterConfig.numX86 = point.x86Nodes;
    scenario.clusterConfig.numArm = point.armNodes;
    scenario.clusterConfig.keepAliveMemoryFraction = 0.25;
    return scenario;
}

/**
 * Approximate simulated event count of one run: one arrival and one
 * finish event per invocation, one expiry per expired container, one
 * consumption-cancel per consumed container, plus the minute ticks.
 * Every term is sim-deterministic, so the value is artifact-safe.
 */
std::uint64_t
simEvents(const experiments::RunResult& result, double days)
{
    return 2 * result.metrics.invocations() + result.endExpired +
           result.endConsumed +
           static_cast<std::uint64_t>(days * 24.0 * 60.0);
}

struct PointOutcome {
    PolicyRun run;
    double wallSeconds = 0.0;
    double peakRssMbAfter = 0.0;
};

/** Run one grid point through `engine` and time it. */
PointOutcome
runPoint(runner::RunEngine& engine, const ScalePoint& point)
{
    const experiments::Harness harness(pointScenario(point));
    runner::SimPlan plan("fig_scale/" + point.name);
    runner::addSimJob(plan, point.name, harness, [] {
        return std::make_unique<policy::FixedKeepAlive>();
    });
    const auto start = std::chrono::steady_clock::now();
    auto results = engine.run(plan);
    PointOutcome outcome;
    outcome.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    outcome.peakRssMbAfter = peakRssMb();
    outcome.run = {point.name, std::move(results[0])};
    return outcome;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options =
        parseBenchOptions(argc, argv, "fig_scale");
    BenchEngine bench(options);
    const bool localOnly =
        !options.distMaster() && !options.distWorker();

    // ---- the grid --------------------------------------------------
    std::vector<ScalePoint> points;
    if (options.stress) {
        // The nightly stress point: 10^6 functions on 1024 nodes.
        points.push_back(
            {"f1m_n1024", 1'000'000, 512, 512, 60.0, 0.05});
    } else if (options.golden) {
        // Seconds-scale preset behind the checked-in golden. The 100k
        // point anchors the scale-determinism tier.
        points.push_back({"f1k_n8", 1'000, 4, 4, 2.0, 0.02});
        points.push_back({"f10k_n16", 10'000, 8, 8, 3.0, 0.02});
        points.push_back({"f100k_n32", 100'000, 16, 16, 4.0, 0.02});
    } else {
        // Weak scaling: catalog, cluster and offered load grow
        // together, so per-point wall time isolates per-event cost.
        points.push_back({"f50k_n64", 50'000, 32, 32, 20.0, 0.1});
        points.push_back({"f200k_n256", 200'000, 128, 128, 40.0, 0.1});
        const std::size_t top = options.scaleFunctions > 0
            ? options.scaleFunctions
            : 500'000;
        const int nodesPerSide = static_cast<int>(
            std::max<std::size_t>(320, top / 1562));
        points.push_back({"f" + std::to_string(top / 1000) +
                              "k_n" + std::to_string(2 * nodesPerSide),
                          top, nodesPerSide, nodesPerSide, 80.0, 0.1});
    }

    // ---- weak-scaling pass -----------------------------------------
    std::vector<PointOutcome> outcomes;
    for (const ScalePoint& point : points)
        outcomes.push_back(runPoint(bench.engine, point));

    printBanner("Simulation-core weak scaling (FixedKeepAlive)");
    {
        ConsoleTable table;
        table.header({"point", "functions", "nodes", "invocations",
                      "sim events", "events/s", "wall (s)",
                      "peak RSS (MB)"});
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto& p = points[i];
            const auto& o = outcomes[i];
            const std::uint64_t events =
                simEvents(o.run.result, p.days);
            table.addRow(
                p.name, p.functions, p.x86Nodes + p.armNodes,
                o.run.result.metrics.invocations(), events,
                ConsoleTable::num(
                    o.wallSeconds > 0.0
                        ? static_cast<double>(events) / o.wallSeconds
                        : 0.0,
                    0),
                ConsoleTable::num(o.wallSeconds, 2),
                ConsoleTable::num(o.peakRssMbAfter, 0));
        }
        table.print();
    }
    paperNote("the event heap's 24-byte keys + per-core in-flight "
              "table keep per-event cost within a small factor as "
              "functions x nodes grow; events/sec, wall and RSS are "
              "hardware-dependent, so they stay out of the "
              "byte-compared golden artifact");

    // ---- strong-scaling pass (threads axis, local full-scale only) -
    std::vector<std::pair<std::size_t, double>> threadWall;
    if (!options.golden && !options.stress && localOnly) {
        // One plan, four seed-replicas of the top point: job-level
        // parallelism is the RunEngine's threading axis, so a
        // single-job plan would show no speedup by construction.
        const ScalePoint& top = points.back();
        for (const std::size_t threads : {1u, 2u, 4u}) {
            runner::RunEngine engine({threads, nullptr, nullptr,
                                      nullptr});
            runner::SimPlan plan("fig_scale/strong");
            // deque: Harness is pinned (jobs capture it by
            // reference) and non-movable, so no vector relocation.
            std::deque<experiments::Harness> replicas;
            for (int r = 0; r < 4; ++r) {
                auto scenario = pointScenario(top);
                scenario.traceConfig.seed = 42 + r;
                replicas.emplace_back(scenario);
                runner::addSimJob(
                    plan, top.name + "/r" + std::to_string(r),
                    replicas.back(), [] {
                        return std::make_unique<
                            policy::FixedKeepAlive>();
                    });
            }
            const auto start = std::chrono::steady_clock::now();
            engine.run(plan);
            threadWall.emplace_back(
                threads,
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count());
        }
        printBanner("Strong scaling: " + top.name +
                    " across worker threads");
        ConsoleTable table;
        table.header({"threads", "wall (s)", "speedup"});
        for (const auto& [threads, wall] : threadWall)
            table.addRow(threads, ConsoleTable::num(wall, 2),
                         ConsoleTable::num(
                             wall > 0.0 ? threadWall[0].second / wall
                                        : 0.0,
                             2));
        table.print();
    }

    // ---- stress budgets + serial-vs-threaded identity --------------
    if (options.stress && localOnly) {
        // Budgets hold ~3x headroom over a release build on a 2023-era
        // 8-core machine; a regression that breaks them means the
        // core's per-event cost grew past its O(log n) heap sifts, not
        // that the machine was slow. ASSERTED, not just reported:
        // ctest `stress` fails.
        constexpr double kWallBudgetSeconds = 900.0;
        constexpr double kRssBudgetMb = 16 * 1024.0;
        const auto& o = outcomes.front();
        if (o.wallSeconds > kWallBudgetSeconds)
            fatal("fig_scale --stress: wall-clock budget blown: ",
                  o.wallSeconds, " s > ", kWallBudgetSeconds, " s");
        if (o.peakRssMbAfter > kRssBudgetMb)
            fatal("fig_scale --stress: peak-RSS budget blown: ",
                  o.peakRssMbAfter, " MB > ", kRssBudgetMb, " MB");

        // Byte-identity at scale: the same point re-run serially and
        // on 4 threads must serialize to identical bytes — including
        // every metrics sample, not just the report summary. The one
        // field measured in wall-clock time (decisionWallSeconds) is
        // blanked on both sides; everything else is sim-determined.
        runner::RunEngine serial({1, nullptr, nullptr, nullptr});
        runner::RunEngine threaded({4, nullptr, nullptr, nullptr});
        auto serialResult =
            runPoint(serial, points.front()).run.result;
        auto threadedResult =
            runPoint(threaded, points.front()).run.result;
        serialResult.decisionWallSeconds = 0.0;
        threadedResult.decisionWallSeconds = 0.0;
        const auto serialBytes =
            runner::JobCodec<experiments::RunResult>::encode(
                serialResult);
        const auto threadedBytes =
            runner::JobCodec<experiments::RunResult>::encode(
                threadedResult);
        if (serialBytes != threadedBytes)
            fatal("fig_scale --stress: serial vs --threads 4 results "
                  "diverge (", serialBytes.size(), " vs ",
                  threadedBytes.size(), " bytes)");
        printBanner("Stress budgets");
        std::cout << "wall " << o.wallSeconds << " s (budget "
                  << kWallBudgetSeconds << "), peak RSS "
                  << o.peakRssMbAfter << " MB (budget " << kRssBudgetMb
                  << "), serial == threaded: yes\n";
    }

    // ---- artifact ---------------------------------------------------
    runner::ReportMeta meta;
    meta.bench = "fig_scale";
    runner::writeBenchReport(
        options.jsonPath, meta, [&](runner::JsonWriter& json) {
            json.key("points");
            json.beginArray();
            for (std::size_t i = 0; i < points.size(); ++i) {
                const auto& p = points[i];
                const auto& o = outcomes[i];
                json.beginObject();
                json.field("name", p.name);
                json.field("functions", p.functions);
                json.field("nodes",
                           static_cast<std::size_t>(p.x86Nodes +
                                                    p.armNodes));
                json.field("sim_events",
                           simEvents(o.run.result, p.days));
                runner::writeResultFields(json, o.run.result);
                if (!options.golden) {
                    // Hardware-dependent: never in golden artifacts.
                    json.field("wall_seconds", o.wallSeconds);
                    json.field("peak_rss_mb", o.peakRssMbAfter);
                }
                json.endObject();
            }
            json.endArray();
            if (!threadWall.empty()) {
                json.key("strong_scaling_wall_seconds");
                json.beginObject();
                for (const auto& [threads, wall] : threadWall)
                    json.field(std::to_string(threads), wall);
                json.endObject();
            }
        });
    return 0;
}
