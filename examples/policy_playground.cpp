/**
 * @file
 * Policy playground: compare any subset of the implemented policies on
 * a configurable workload and cluster from the command line.
 *
 * Usage:
 *   policy_playground [options]
 *     --functions N     unique functions            (default 250)
 *     --days D          trace length in days        (default 0.5)
 *     --rate R          mean arrivals/second        (default 3.0)
 *     --x86 N           x86 nodes                   (default 13)
 *     --arm N           ARM nodes                   (default 18)
 *     --warm-frac F     keep-alive memory fraction  (default 0.15)
 *     --budget M        CodeCrunch/Oracle budget as a multiple of
 *                       SitW's observed spend       (default 1.0)
 *     --zipf Z          popularity Zipf exponent    (default 1.05)
 *     --seed S          trace seed                  (default 42)
 *     --policies LIST   comma list from: fixed,sitw,faascache,
 *                       icebreaker,codecrunch,oracle (default all)
 */
#include <algorithm>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>

#include "common/table.hpp"
#include "experiments/harness.hpp"

using namespace codecrunch;
using namespace codecrunch::experiments;

namespace {

struct Options {
    Scenario scenario = Scenario::evaluationDefault();
    double budgetMultiplier = 1.0;
    std::vector<std::string> policies = {
        "fixed", "sitw", "faascache", "icebreaker", "codecrunch",
        "oracle"};
};

Options
parse(int argc, char** argv)
{
    Options options;
    options.scenario.traceConfig.numFunctions = 250;
    options.scenario.traceConfig.days = 0.5;
    auto value = [&](int& i) -> const char* {
        if (i + 1 >= argc)
            fatal("missing value after ", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto& tc = options.scenario.traceConfig;
        auto& cc = options.scenario.clusterConfig;
        if (arg == "--functions") {
            tc.numFunctions = std::strtoul(value(i), nullptr, 10);
        } else if (arg == "--days") {
            tc.days = std::strtod(value(i), nullptr);
        } else if (arg == "--rate") {
            tc.targetMeanRatePerSecond = std::strtod(value(i), nullptr);
        } else if (arg == "--x86") {
            cc.numX86 = std::atoi(value(i));
        } else if (arg == "--arm") {
            cc.numArm = std::atoi(value(i));
        } else if (arg == "--warm-frac") {
            cc.keepAliveMemoryFraction = std::strtod(value(i), nullptr);
        } else if (arg == "--budget") {
            options.budgetMultiplier = std::strtod(value(i), nullptr);
        } else if (arg == "--zipf") {
            tc.zipfExponent = std::strtod(value(i), nullptr);
        } else if (arg == "--seed") {
            tc.seed = std::strtoull(value(i), nullptr, 10);
        } else if (arg == "--policies") {
            options.policies.clear();
            std::stringstream ss(value(i));
            std::string token;
            while (std::getline(ss, token, ','))
                options.policies.push_back(token);
        } else {
            fatal("unknown option '", arg, "' (see file header)");
        }
    }
    return options;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options options = parse(argc, argv);
    Harness harness(options.scenario);
    std::cout << "workload: "
              << harness.workload().invocations.size()
              << " invocations / "
              << harness.workload().functions.size() << " functions; "
              << "cluster: " << options.scenario.clusterConfig.numX86
              << " x86 + " << options.scenario.clusterConfig.numArm
              << " ARM\n";

    // CodeCrunch and Oracle get SitW's observed keep-alive spend as
    // their budget, so SitW runs first whenever either is requested.
    const auto requested = [&](const std::string& name) {
        return std::find(options.policies.begin(),
                         options.policies.end(),
                         name) != options.policies.end();
    };
    std::optional<PolicyRun> sitwRun;
    if (requested("codecrunch") || requested("oracle")) {
        policy::SitW sitw;
        sitwRun = harness.runNamed(sitw);
        harness.primeBudgetRate(sitwRun->result);
    }

    ConsoleTable table;
    table.header({"policy", "mean (s)", "wait (s)", "p50 (s)",
                  "p95 (s)", "warm starts", "compressed",
                  "keep-alive $", "decision s"});
    for (const auto& name : options.policies) {
        std::unique_ptr<policy::Policy> policy;
        if (name == "fixed") {
            policy = std::make_unique<policy::FixedKeepAlive>();
        } else if (name == "sitw") {
            policy = std::make_unique<policy::SitW>();
        } else if (name == "faascache") {
            policy = std::make_unique<policy::FaasCache>();
        } else if (name == "icebreaker") {
            policy = std::make_unique<policy::IceBreaker>();
        } else if (name == "codecrunch") {
            policy = std::make_unique<core::CodeCrunch>(
                harness.codecrunchConfig(options.budgetMultiplier));
        } else if (name == "oracle") {
            policy = std::make_unique<policy::Oracle>(
                harness.oracleConfig(options.budgetMultiplier));
        } else {
            fatal("unknown policy '", name, "'");
        }
        const PolicyRun run = name == "sitw" && sitwRun
            ? *sitwRun
            : harness.runNamed(*policy);
        const auto& m = run.result.metrics;
        table.addRow(run.name, m.meanServiceTime(),
                     m.meanWaitTime(),
                     m.serviceQuantile(0.5), m.serviceQuantile(0.95),
                     ConsoleTable::pct(m.warmStartFraction()),
                     m.compressedStarts(),
                     ConsoleTable::num(run.result.keepAliveSpend, 3),
                     ConsoleTable::num(run.result.decisionWallSeconds,
                                       2));
    }
    table.print();
    return 0;
}
