/**
 * @file
 * Azure-dataset replay: load one day of the real Microsoft Azure
 * Functions 2019 public dataset (the paper's trace) and run the main
 * policy comparison on it.
 *
 * Usage:
 *   azure_replay <invocations.csv> <durations.csv> [memory.csv]
 *                [maxFunctions]
 *
 * With no arguments, a small demonstration dataset in the Azure schema
 * is synthesized to /tmp first, so the example always runs.
 */
#include <fstream>
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "experiments/harness.hpp"
#include "trace/azure_dataset.hpp"

using namespace codecrunch;
using namespace codecrunch::experiments;

namespace {

/** Write a toy dataset in the real Azure schema. */
void
writeDemoDataset(const std::string& invocations,
                 const std::string& durations,
                 const std::string& memory)
{
    Rng rng(4242);
    const int functions = 200;
    const int minutes = 240;

    std::ofstream inv(invocations);
    inv << "HashOwner,HashApp,HashFunction,Trigger";
    for (int m = 1; m <= minutes; ++m)
        inv << ',' << m;
    inv << '\n';
    std::ofstream dur(durations);
    dur << "HashOwner,HashApp,HashFunction,Average,Count,Minimum,"
           "Maximum\n";
    std::ofstream mem(memory);
    mem << "HashOwner,HashApp,SampleCount,AverageAllocatedMb\n";

    for (int f = 0; f < functions; ++f) {
        const std::string owner = "owner" + std::to_string(f % 20);
        const std::string app = "app" + std::to_string(f % 50);
        const std::string name = "fn" + std::to_string(f);
        inv << owner << ',' << app << ',' << name << ",timer";
        const double period =
            std::exp(rng.uniform(std::log(2.0), std::log(120.0)));
        double next = rng.uniform(0.0, period);
        for (int m = 0; m < minutes; ++m) {
            int count = 0;
            while (next < m + 1) {
                ++count;
                next += period;
            }
            inv << ',' << count;
        }
        inv << '\n';
        const double ms = rng.logNormal(std::log(2000.0), 1.0);
        dur << owner << ',' << app << ',' << name << ',' << ms
            << ",100," << ms / 2 << ',' << ms * 2 << '\n';
        if (f % 50 == f % 20) { // one memory row per app is enough
            mem << owner << ',' << app << ",100,"
                << rng.uniform(128.0, 2048.0) << '\n';
        }
    }
}

} // namespace

int
main(int argc, char** argv)
{
    std::string invocations, durations, memory;
    trace::AzureDataset::Options options;
    if (argc >= 3) {
        invocations = argv[1];
        durations = argv[2];
        memory = argc >= 4 ? argv[3] : "";
        if (argc >= 5)
            options.maxFunctions = std::strtoul(argv[4], nullptr, 10);
    } else {
        std::cout << "no dataset given: synthesizing a demo day in "
                     "the Azure schema under /tmp\n";
        invocations = "/tmp/cc_azure_invocations.csv";
        durations = "/tmp/cc_azure_durations.csv";
        memory = "/tmp/cc_azure_memory.csv";
        writeDemoDataset(invocations, durations, memory);
    }

    const auto workload = trace::AzureDataset::load(
        invocations, durations, memory, options);
    std::cout << "loaded " << workload.functions.size()
              << " functions, " << workload.invocations.size()
              << " invocations over " << workload.duration / 3600.0
              << " h\n";

    Scenario scenario;
    scenario.clusterConfig.keepAliveMemoryFraction = 0.25;
    Harness harness(workload, scenario);

    ConsoleTable table;
    table.header({"policy", "mean (s)", "warm starts",
                  "keep-alive $"});
    policy::SitW sitw;
    const auto sitwRun = harness.runNamed(sitw);
    harness.primeBudgetRate(sitwRun.result);
    core::CodeCrunch codecrunch(harness.codecrunchConfig());
    const auto crunchRun = harness.runNamed(codecrunch);
    for (const auto* run : {&sitwRun, &crunchRun}) {
        table.addRow(
            run->name, run->result.metrics.meanServiceTime(),
            ConsoleTable::pct(
                run->result.metrics.warmStartFraction()),
            ConsoleTable::num(run->result.keepAliveSpend, 3));
    }
    table.print();
    return 0;
}
