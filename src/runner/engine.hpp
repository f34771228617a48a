/**
 * @file
 * RunPlan/RunEngine: express an experiment as a set of labelled jobs
 * and execute them concurrently on the engine's own threads while
 * staying bit-identical to serial execution.
 *
 * The determinism contract:
 *  - Every job carries its own seed, fixed at plan-build time. Seeds
 *    derive from the scenario configuration or from a stable job key
 *    (seedForKey) — NEVER from submission order, worker identity, or
 *    any shared RNG drawn from concurrently.
 *  - Each simulation job builds its own Driver, which owns a private
 *    EventQueue/Rng/Collector over a shared *immutable* workload, so
 *    jobs share no mutable state.
 *  - Results are collected into plan order regardless of completion
 *    order.
 *
 * Under that contract, RunEngine::run with N threads produces exactly
 * the bytes a serial loop over the same plan produces (wall-clock
 * observability fields like RunResult::decisionWallSeconds excepted).
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "experiments/harness.hpp"
#include "obs/profiler.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "runner/backend.hpp"
#include "runner/progress.hpp"
#include "runner/serial.hpp"

namespace codecrunch::runner {

/**
 * Stable 64-bit seed for a job key: FNV-1a over the key folded with a
 * SplitMix64 finalizer, mixed with `base`. Use this when a sweep needs
 * per-point seeds; the value depends only on (key, base), so plans can
 * be reordered, filtered, or extended without perturbing any job.
 */
std::uint64_t seedForKey(std::string_view key, std::uint64_t base = 0);

/**
 * Per-execution context handed to a job body.
 */
struct JobContext {
    /** The job's fixed seed (Job::seed). */
    std::uint64_t seed = 0;
    /** Optional sim-time heartbeat for progress reporting; may be null. */
    std::function<void(Seconds)> heartbeat;
    /**
     * The job's private trace buffer (null when tracing is off).
     * Allocated in plan order before the job runs, so the serialized
     * trace is byte-identical no matter how many threads execute it.
     */
    obs::TraceBuffer* trace = nullptr;
};

/**
 * One unit of work: a labelled, seeded body producing an R.
 */
template <typename R>
struct Job {
    /** Stable label: the job's key, display name, and report name. */
    std::string label;
    /** Seed forwarded to the body via JobContext. */
    std::uint64_t seed = 0;
    /** Expected simulated duration (progress/ETA hint; 0 = unknown). */
    Seconds simDuration = 0.0;
    std::function<R(const JobContext&)> body;
};

/**
 * An ordered list of jobs. Plan order defines result order.
 */
template <typename R>
class Plan
{
  public:
    explicit Plan(std::string name = "plan") : name_(std::move(name)) {}

    /** Append a job; returns it for further tweaking. */
    Job<R>&
    add(std::string label, std::uint64_t seed,
        std::function<R(const JobContext&)> body)
    {
        jobs_.push_back(
            Job<R>{std::move(label), seed, 0.0, std::move(body)});
        return jobs_.back();
    }

    const std::string& name() const { return name_; }
    const std::vector<Job<R>>& jobs() const { return jobs_; }
    std::size_t size() const { return jobs_.size(); }

  private:
    std::string name_;
    std::vector<Job<R>> jobs_;
};

/**
 * Executes each plan on min(threads, jobs) threads of its own that
 * claim jobs in plan order and exit when the plan is done; results
 * come back in plan order and the first job exception (in plan order)
 * is rethrown after every job has settled. These threads are the
 * simulator's only parallelism (SRE solves its sub-problems in order
 * on the job's thread), so `threads` bounds the whole process.
 */
struct RunEngineOptions {
    /** Threads per plan; 0 means hardware concurrency. */
    std::size_t threads = 0;
    /** Optional progress receiver (not owned). */
    ProgressSink* progress = nullptr;
    /**
     * Optional trace collection (not owned). When set, every job gets
     * a private buffer named "<plan>/<label>", allocated in plan order.
     */
    obs::TraceCollection* trace = nullptr;
    /**
     * Optional job-execution backend (not owned). Null runs jobs on
     * the engine's own threads with typed results (the default).
     * Set, every plan is lowered to serialized jobs and executed by
     * the backend — the distributed master/worker modes plug in
     * here. Requires the plan's result type to have a JobCodec
     * (serial.hpp); trace collection is unsupported in backend mode.
     */
    ExecBackend* backend = nullptr;
};

class RunEngine
{
  public:
    using Options = RunEngineOptions;

    explicit RunEngine(Options options = Options())
        : options_(options),
          threads_(options.threads > 0
                       ? options.threads
                       : std::max<std::size_t>(
                             1, std::thread::hardware_concurrency()))
    {
        auto& registry = obs::Registry::global();
        statPlans_ = &registry.counter("wall.runner.plans",
                                       obs::StatScope::Wall);
        statJobs_ = &registry.counter("wall.runner.jobs",
                                      obs::StatScope::Wall);
        statJobFailures_ =
            &registry.counter("wall.runner.job_failures",
                              obs::StatScope::Wall);
        statJobSeconds_ = &registry.histogram(
            "wall.runner.job_seconds",
            {0.01, 0.1, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
             600.0, 1800.0},
            obs::StatScope::Wall);
    }

    /** Resolved thread count (options.threads, or the core count). */
    std::size_t threads() const { return threads_; }

    /** Execute every job of `plan`; results in plan order. */
    template <typename R>
    std::vector<R>
    run(const Plan<R>& plan)
    {
        if (options_.backend)
            return runOnBackend(plan);
        const auto& jobs = plan.jobs();
        ProgressSink* sink = options_.progress;
        if (sink)
            sink->planStarted(plan.name(), jobs.size());
        statPlans_->add(1);

        // Buffers are allocated here, in plan order, before any job
        // runs, so they exist in the same order whichever thread fills
        // one first (trace determinism contract).
        std::vector<obs::TraceBuffer*> buffers(jobs.size(), nullptr);
        if (options_.trace) {
            for (std::size_t i = 0; i < jobs.size(); ++i)
                buffers[i] = options_.trace->add(plan.name() + "/" +
                                                 jobs[i].label);
        }

        std::vector<std::optional<R>> slots(jobs.size());
        std::vector<std::exception_ptr> errors(jobs.size());
        // Each thread claims the next unstarted job, so jobs start in
        // plan order.
        std::atomic<std::size_t> next{0};
        const auto runJobs = [&] {
            for (std::size_t i = next.fetch_add(1); i < jobs.size();
                 i = next.fetch_add(1)) {
                const Job<R>& job = jobs[i];
                if (sink)
                    sink->jobStarted(i, job.label, job.simDuration);
                statJobs_->add(1);
                JobContext context;
                context.seed = job.seed;
                context.trace = buffers[i];
                if (sink) {
                    context.heartbeat = [sink, i](Seconds simNow) {
                        sink->jobHeartbeat(i, simNow);
                    };
                }
                const auto wallStart =
                    std::chrono::steady_clock::now();
                try {
                    CC_PHASE("runner.job");
                    slots[i].emplace(job.body(context));
                } catch (...) {
                    errors[i] = std::current_exception();
                    statJobFailures_->add(1);
                }
                statJobSeconds_->observe(
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wallStart)
                        .count());
                if (sink)
                    sink->jobFinished(i, !errors[i]);
            }
        };
        const std::size_t threadCount = std::min(threads_, jobs.size());
        std::vector<std::thread> threads;
        threads.reserve(threadCount);
        try {
            while (threads.size() < threadCount)
                threads.emplace_back(runJobs);
        } catch (...) {
            // A thread that failed to start must not leave the ones
            // already running unjoined; they finish the jobs they
            // claimed and start no more.
            next.store(jobs.size());
            for (auto& thread : threads)
                thread.join();
            throw;
        }
        for (auto& thread : threads)
            thread.join();
        if (sink)
            sink->planFinished();

        for (auto& error : errors) {
            if (error)
                std::rethrow_exception(error);
        }
        std::vector<R> results;
        results.reserve(slots.size());
        for (auto& slot : slots)
            results.push_back(std::move(*slot));
        return results;
    }

  private:
    /**
     * Backend path: lower every job to a serialized thunk and hand the
     * plan to the configured backend. Results decode back in plan
     * order; the first failed job (in plan order) becomes an
     * exception after all jobs settle, mirroring the local path.
     */
    template <typename R>
    std::vector<R>
    runOnBackend(const Plan<R>& plan)
    {
        if constexpr (!kJobCodecAvailable<R>) {
            fatal("plan '", plan.name(),
                  "': result type has no JobCodec; distributed "
                  "execution unsupported (add visitFields to the "
                  "result struct)");
            return {};
        } else {
            const auto& jobs = plan.jobs();
            if (options_.trace)
                fatal("plan '", plan.name(),
                      "': --trace-out is unsupported in distributed "
                      "mode");
            statPlans_->add(1);
            std::vector<ExecBackend::SerializedJob> lowered;
            lowered.reserve(jobs.size());
            for (const Job<R>& job : jobs) {
                lowered.push_back(ExecBackend::SerializedJob{
                    job.label, job.seed, [&job] {
                        JobContext context;
                        context.seed = job.seed;
                        return JobCodec<R>::encode(job.body(context));
                    }});
            }
            std::vector<ExecBackend::JobOutcome> outcomes =
                options_.backend->executePlan(
                    plan.name(), std::move(lowered),
                    options_.progress);
            if (outcomes.size() != jobs.size())
                fatal("plan '", plan.name(), "': backend returned ",
                      outcomes.size(), " outcomes for ", jobs.size(),
                      " jobs");
            statJobs_->add(jobs.size());
            for (std::size_t i = 0; i < outcomes.size(); ++i) {
                if (!outcomes[i].ok()) {
                    statJobFailures_->add(1);
                    throw std::runtime_error(
                        "job '" + jobs[i].label + "' failed: " +
                        outcomes[i].error);
                }
            }
            std::vector<R> results;
            results.reserve(outcomes.size());
            for (auto& outcome : outcomes)
                results.push_back(
                    JobCodec<R>::decode(outcome.payload));
            return results;
        }
    }

    Options options_;
    std::size_t threads_;
    // Wall-scope instruments (never part of deterministic reports).
    obs::Counter* statPlans_ = nullptr;
    obs::Counter* statJobs_ = nullptr;
    obs::Counter* statJobFailures_ = nullptr;
    obs::Histogram* statJobSeconds_ = nullptr;
};

// --- Simulation-job layer ----------------------------------------------

/** A plan whose jobs are full simulation runs. */
using SimPlan = Plan<experiments::RunResult>;

/** Creates a fresh policy instance inside the executing job. */
using PolicyFactory =
    std::function<std::unique_ptr<policy::Policy>()>;

/**
 * Deterministic per-job adjustment of the driver configuration
 * (e.g. installing a fault plan for one sweep point). Applied inside
 * the job body after the scenario defaults and the seed; must depend
 * only on values captured at plan-build time.
 */
using DriverConfigTweak =
    std::function<void(experiments::DriverConfig&)>;

/**
 * Deterministic per-job adjustment of the cluster configuration
 * (e.g. defining failure domains for one sweep point). Same contract
 * as DriverConfigTweak: applied to a copy of the scenario's cluster
 * config inside the job body.
 */
using ClusterConfigTweak =
    std::function<void(cluster::ClusterConfig&)>;

/**
 * Append a simulation job over `harness`'s workload/scenario. The job
 * seed defaults to the scenario's driver seed (what a serial
 * `Harness::run` uses), so engine results reproduce serial results
 * bit-for-bit; override `Job::seed` afterwards for per-point sweeps
 * (see seedForKey). `harness` must outlive the plan's execution.
 */
Job<experiments::RunResult>&
addSimJob(SimPlan& plan, std::string label,
          const experiments::Harness& harness, PolicyFactory factory,
          DriverConfigTweak tweak = {},
          ClusterConfigTweak clusterTweak = {});

/**
 * The paper's headline comparison (Fig. 7) as an orchestrated plan:
 * SitW runs first (its observed spend is the explicit budget
 * dependency, primed into `harness`), then FaasCache, IceBreaker,
 * CodeCrunch and Oracle run concurrently. Returns the five runs in
 * canonical order with results bit-identical to the serial loop.
 */
std::vector<experiments::PolicyRun>
runMainComparison(const experiments::Harness& harness,
                  RunEngine& engine);

} // namespace codecrunch::runner
