#include "experiments/harness.hpp"

#include "common/logging.hpp"

namespace codecrunch::experiments {

Scenario
Scenario::evaluationDefault()
{
    Scenario scenario;
    scenario.traceConfig.numFunctions = 3000;
    scenario.traceConfig.days = 0.5;
    scenario.traceConfig.targetMeanRatePerSecond = 4.0;
    scenario.traceConfig.seed = 42;
    // 25% of node memory is reservable for warm containers. Together
    // with the trace above this lands the baseline (SitW) at ~40%
    // warm starts — the memory-pressure regime of the paper's
    // evaluation, where keep-alive decisions actually bind.
    scenario.clusterConfig.keepAliveMemoryFraction = 0.25;
    return scenario;
}

Scenario
Scenario::small()
{
    Scenario scenario;
    scenario.traceConfig.numFunctions = 80;
    scenario.traceConfig.days = 0.25;
    scenario.traceConfig.targetMeanRatePerSecond = 1.5;
    scenario.traceConfig.seed = 7;
    scenario.clusterConfig.numX86 = 4;
    scenario.clusterConfig.numArm = 5;
    scenario.clusterConfig.keepAliveMemoryFraction = 0.15;
    return scenario;
}

Scenario
Scenario::goldenPreset()
{
    Scenario scenario;
    scenario.traceConfig.numFunctions = 120;
    scenario.traceConfig.days = 0.1;
    scenario.traceConfig.targetMeanRatePerSecond = 2.0;
    scenario.traceConfig.seed = 42;
    scenario.clusterConfig.numX86 = 4;
    scenario.clusterConfig.numArm = 5;
    // Same reservation as evaluationDefault(): golden runs must stay
    // in the memory-pressure regime where keep-alive decisions bind,
    // or a regression in the decision logic would not move the needle.
    scenario.clusterConfig.keepAliveMemoryFraction = 0.25;
    return scenario;
}

Harness::Harness(Scenario scenario)
    : scenario_(scenario),
      workload_(trace::TraceGenerator::generate(scenario.traceConfig))
{
}

Harness::Harness(trace::Workload workload, Scenario scenario)
    : scenario_(scenario), workload_(std::move(workload))
{
}

RunResult
Harness::run(policy::Policy& policy) const
{
    Driver driver(workload_, scenario_.clusterConfig, policy,
                  scenario_.driverConfig);
    return driver.run();
}

PolicyRun
Harness::runNamed(policy::Policy& policy) const
{
    return {policy.name(), run(policy)};
}

double
Harness::sitwBudgetRate() const
{
    std::lock_guard<std::mutex> lock(budgetMutex_);
    if (!sitwRate_) {
        fatal("Harness: the SitW budget rate was read before "
              "primeBudgetRate(); run SitW and prime the harness "
              "with its result first");
    }
    return *sitwRate_;
}

double
Harness::primeBudgetRate(const RunResult& sitwResult) const
{
    std::lock_guard<std::mutex> lock(budgetMutex_);
    if (!sitwRate_) {
        sitwRate_ = sitwResult.keepAliveSpend /
                    std::max(workload_.duration, 1.0);
    }
    return *sitwRate_;
}

core::CodeCrunchConfig
Harness::codecrunchConfig(double budgetMultiplier) const
{
    core::CodeCrunchConfig config;
    config.budgetRatePerSecond =
        sitwBudgetRate() * budgetMultiplier;
    return config;
}

policy::Oracle::Config
Harness::oracleConfig(double budgetMultiplier) const
{
    policy::Oracle::Config config;
    config.budgetRatePerSecond =
        sitwBudgetRate() * budgetMultiplier;
    return config;
}

std::vector<Seconds>
Harness::warmBaselines() const
{
    std::vector<Seconds> baselines;
    baselines.reserve(workload_.functions.size());
    for (const auto& f : workload_.functions)
        baselines.push_back(f.exec[static_cast<int>(NodeType::X86)]);
    return baselines;
}

} // namespace codecrunch::experiments
