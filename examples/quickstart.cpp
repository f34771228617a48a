/**
 * @file
 * Quickstart: generate an Azure-like workload, run CodeCrunch against
 * the SitW baseline on the paper's heterogeneous cluster, and print the
 * headline metrics.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */
#include <iostream>

#include "common/table.hpp"
#include "experiments/harness.hpp"

using namespace codecrunch;

int
main()
{
    // 1. A deterministic Azure-like workload on the paper's cluster
    //    (13 x86 + 18 ARM nodes, 25% keep-alive memory reservation).
    experiments::Scenario scenario =
        experiments::Scenario::evaluationDefault();
    scenario.traceConfig.numFunctions = 1000;
    scenario.traceConfig.days = 0.25;
    experiments::Harness harness(scenario);

    std::cout << "Workload: "
              << harness.workload().functions.size() << " functions, "
              << harness.workload().invocations.size()
              << " invocations over "
              << harness.workload().duration / 3600.0 << " hours\n";

    // 2. Run the production baseline, then CodeCrunch with exactly the
    //    keep-alive budget the baseline spent.
    policy::SitW sitw;
    const auto baseline = harness.runNamed(sitw);
    harness.primeBudgetRate(baseline.result);

    core::CodeCrunch codecrunch(harness.codecrunchConfig());
    const auto crunch = harness.runNamed(codecrunch);

    // 3. Report.
    ConsoleTable table;
    table.header({"policy", "mean service (s)", "p95 (s)",
                  "warm starts", "keep-alive $"});
    for (const auto* run : {&baseline, &crunch}) {
        table.addRow(run->name,
                     run->result.metrics.meanServiceTime(),
                     run->result.metrics.serviceQuantile(0.95),
                     ConsoleTable::pct(
                         run->result.metrics.warmStartFraction()),
                     run->result.keepAliveSpend);
    }
    table.print();

    const double improvement =
        1.0 - crunch.result.metrics.meanServiceTime() /
                  baseline.result.metrics.meanServiceTime();
    std::cout << "\nCodeCrunch improves mean service time by "
              << ConsoleTable::pct(improvement)
              << " at the same keep-alive budget.\n";
    return 0;
}
