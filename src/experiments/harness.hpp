/**
 * @file
 * Shared experiment harness: canonical workload/cluster configurations
 * and budget normalization for single policy runs (CodeCrunch and
 * Oracle receive exactly the keep-alive budget SitW spent — paper
 * Sec. 4, "Figures of Merit"). Multi-run orchestration — including the
 * headline Fig. 7 comparison — lives in runner/engine.hpp, which runs
 * a plan's jobs on threads of its own; a Harness is safely shareable
 * across those concurrent jobs.
 */
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/codecrunch.hpp"
#include "experiments/driver.hpp"
#include "policy/enhanced.hpp"
#include "policy/faascache.hpp"
#include "policy/fixed_keepalive.hpp"
#include "policy/icebreaker.hpp"
#include "policy/oracle.hpp"
#include "policy/sitw.hpp"
#include "trace/generator.hpp"

namespace codecrunch::experiments {

/**
 * One named policy run.
 */
struct PolicyRun {
    std::string name;
    RunResult result;
};

/**
 * The evaluation-scale scenario every figure bench shares: an
 * Azure-like trace plus the paper's 13 x86 + 18 ARM cluster with a 15%
 * keep-alive memory reservation (memory pressure regime).
 */
struct Scenario {
    trace::TraceConfig traceConfig;
    cluster::ClusterConfig clusterConfig;
    DriverConfig driverConfig;

    /** The default evaluation scenario. */
    static Scenario evaluationDefault();

    /** Smaller scenario for quick tests. */
    static Scenario small();

    /**
     * The seconds-scale preset behind every bench's `--golden-mode`:
     * the same memory-pressure regime as evaluationDefault() on a
     * workload small enough that a full bench finishes in seconds.
     * Golden regression artifacts under bench/golden/ are generated
     * from this preset, so changing it invalidates every golden.
     */
    static Scenario goldenPreset();
};

/**
 * Runs policies over a fixed workload.
 */
class Harness
{
  public:
    explicit Harness(Scenario scenario);

    /** Construct around an externally built workload. */
    Harness(trace::Workload workload, Scenario scenario);

    const trace::Workload& workload() const { return workload_; }
    const Scenario& scenario() const { return scenario_; }

    /** Run one policy over the workload. */
    RunResult run(policy::Policy& policy) const;

    /** Run and wrap with the policy's name. */
    PolicyRun runNamed(policy::Policy& policy) const;

    /**
     * Observed SitW keep-alive spend rate ($/s) — the budget every
     * budget-normalized policy receives. Thread-safe, so a harness may
     * be shared across concurrent runner jobs. Fatal unless
     * primeBudgetRate() ran first.
     */
    double sitwBudgetRate() const;

    /**
     * Derive and install the budget rate from an already-completed
     * SitW run: run SitW (as a plan stage or via run()), prime, then
     * build the budget-normalized policies. First caller wins; later
     * calls (and sitwBudgetRate()) observe the same value.
     * @return the effective cached rate.
     */
    double primeBudgetRate(const RunResult& sitwResult) const;

    /** CodeCrunch configured with the SitW-normalized budget. */
    core::CodeCrunchConfig
    codecrunchConfig(double budgetMultiplier = 1.0) const;

    /** Oracle configured with the SitW-normalized budget. */
    policy::Oracle::Config
    oracleConfig(double budgetMultiplier = 1.0) const;

    /**
     * Per-function uncompressed-warm x86 service baselines (for SLA
     * accounting).
     */
    std::vector<Seconds> warmBaselines() const;

  private:
    Scenario scenario_;
    trace::Workload workload_;
    /** Guards the first-caller-wins budget-rate priming. */
    mutable std::mutex budgetMutex_;
    mutable std::optional<double> sitwRate_;
};

} // namespace codecrunch::experiments
