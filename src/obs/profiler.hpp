/**
 * @file
 * Hierarchical wall-clock phase profiler: RAII scoped timers that build
 * a per-thread call tree, merged across threads on demand into a
 * Table 5-style per-phase overhead table.
 *
 * Design constraints:
 *  - Disabled (the default), a scope costs one relaxed atomic load and
 *    a branch — cheap enough to leave CC_PHASE() in per-invocation
 *    simulator paths.
 *  - Enabled, a scope costs two steady_clock reads plus a child lookup
 *    in a small vector; no locks on the hot path. The profiler
 *    measures its own cost: report() calibrates the per-scope overhead
 *    and the table prints the projected total, so "with all sinks
 *    disabled" regressions can be bounded from the enabled run.
 *  - Threads register their tree on first use and merge it into a
 *    retired aggregate at thread exit. RunEngine's threads exit when
 *    their plan is done, so a plan's phases survive into every later
 *    report.
 *  - Phase names must have static storage duration (string literals):
 *    nodes keep the pointer.
 *
 * report() must only be called from quiescent points (after
 * RunEngine::run returned, which joins the plan's threads); the join
 * makes their scope updates visible.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace codecrunch::obs {

class Profiler
{
  public:
    static Profiler& global();

    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** RAII phase scope; see the CC_PHASE macro. */
    class Scope
    {
      public:
        explicit Scope(const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        void* node_ = nullptr; // null when the profiler is disabled
        std::chrono::steady_clock::time_point start_;
    };

    /** Merged view of one phase across every thread. */
    struct PhaseReport {
        std::string name;
        std::uint64_t calls = 0;
        double seconds = 0.0;
        /** Sorted by name (thread merge order is not deterministic). */
        std::vector<PhaseReport> children;
    };

    /**
     * Merge live and retired trees. The root is synthetic (name "",
     * zero time); top-level phases are its children.
     */
    PhaseReport report() const;

    /**
     * Measured cost of one enabled scope enter/exit pair in seconds
     * (median-free single calibration; good to ~2x).
     */
    double calibratePerScopeSeconds() const;

    /** Hierarchical phase table plus the self-overhead footer. */
    void printTable(std::FILE* out) const;

    /** Drop all recorded data (live tree contents and retired). */
    void reset();

  private:
    std::atomic<bool> enabled_{false};
};

} // namespace codecrunch::obs

// Two-step concat so __LINE__ expands before pasting.
#define CC_PHASE_CONCAT2(a, b) a##b
#define CC_PHASE_CONCAT(a, b) CC_PHASE_CONCAT2(a, b)
/** Times the enclosing block as phase `name` (a string literal). */
#define CC_PHASE(name)                                                 \
    ::codecrunch::obs::Profiler::Scope CC_PHASE_CONCAT(               \
        ccPhaseScope_, __LINE__)(name)
