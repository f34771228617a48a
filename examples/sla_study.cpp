/**
 * @file
 * SLA study: sweep the SLA slack and compare how each policy's
 * violation fraction and mean service respond, then export the
 * per-minute timeline and service-time CDF of the SLA-constrained
 * CodeCrunch run to CSV for plotting.
 *
 * Usage: sla_study [outputPrefix]
 */
#include <iostream>

#include "common/table.hpp"
#include "experiments/harness.hpp"
#include "metrics/export.hpp"

using namespace codecrunch;
using namespace codecrunch::experiments;

int
main(int argc, char** argv)
{
    const std::string prefix =
        argc > 1 ? argv[1] : "/tmp/codecrunch_sla";

    Scenario scenario = Scenario::evaluationDefault();
    scenario.traceConfig.numFunctions = 1500;
    scenario.traceConfig.days = 0.3;
    Harness harness(scenario);
    const auto baselines = harness.warmBaselines();

    printBanner("SLA violation fraction vs slack");
    ConsoleTable table;
    table.header({"policy", "slack 10%", "slack 20%", "slack 30%",
                  "slack 50%", "mean (s)"});
    auto addRow = [&](const std::string& name,
                      const RunResult& result) {
        table.addRow(
            name,
            ConsoleTable::pct(
                result.metrics.slaViolationFraction(baselines, 0.1)),
            ConsoleTable::pct(
                result.metrics.slaViolationFraction(baselines, 0.2)),
            ConsoleTable::pct(
                result.metrics.slaViolationFraction(baselines, 0.3)),
            ConsoleTable::pct(
                result.metrics.slaViolationFraction(baselines, 0.5)),
            result.metrics.meanServiceTime());
    };

    policy::SitW sitw;
    const auto sitwRun = harness.run(sitw);
    harness.primeBudgetRate(sitwRun);
    addRow("SitW", sitwRun);
    core::CodeCrunch plain(harness.codecrunchConfig());
    addRow("CodeCrunch", harness.run(plain));

    auto slaConfig = harness.codecrunchConfig();
    slaConfig.slaSlack = 0.2;
    core::CodeCrunch sla(slaConfig);
    const auto slaRun = harness.run(sla);
    addRow("CodeCrunch-SLA@20%", slaRun);
    table.print();

    metrics::Exporter::writeTimeline(slaRun.metrics,
                                     prefix + "_timeline.csv");
    metrics::Exporter::writeServiceCdf(slaRun.metrics,
                                       prefix + "_cdf.csv");
    std::cout << "\nwrote " << prefix << "_timeline.csv and "
              << prefix << "_cdf.csv\n";
    return 0;
}
