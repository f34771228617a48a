/**
 * @file
 * The discrete optimization problem CodeCrunch solves every interval
 * (paper Sec. 3.1): choose, for every function invoked in the interval,
 * a compression choice, a processor type, and a keep-alive time so that
 * the estimated mean service time is minimized subject to the keep-alive
 * budget inequality.
 */
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace codecrunch::opt {

/**
 * Per-function decision tuple — one point on the axes the paper
 * optimizes (plus the snapshot extension). Keep-alive time is
 * discretized to the levels commercial platforms use (0..60 minutes).
 */
struct Choice {
    /** Compress the kept-alive container. */
    bool compress = false;
    /** Architecture to execute / keep warm on. */
    NodeType arch = NodeType::X86;
    /** Index into keepAliveLevels(). */
    int keepAliveLevel = 0;
    /**
     * Keep a resident snapshot on the chosen architecture. Orthogonal
     * to keep-alive: snapshot with level 0 is the cheap snapshot-only
     * residency mode (disk instead of memory).
     */
    bool snapshot = false;

    bool
    operator==(const Choice& other) const
    {
        return compress == other.compress && arch == other.arch &&
               keepAliveLevel == other.keepAliveLevel &&
               snapshot == other.snapshot;
    }
};

/** Number of levels on the keep-alive grid. */
inline constexpr std::size_t kKeepAliveLevels = 8;

/** The discrete keep-alive grid in seconds (0 .. 60 minutes). */
inline const std::array<Seconds, kKeepAliveLevels>&
keepAliveLevels()
{
    static constexpr std::array<Seconds, kKeepAliveLevels> levels = {
        0.0, 60.0, 120.0, 300.0, 600.0, 1200.0, 2400.0, 3600.0};
    return levels;
}

/**
 * Number of distinct (compress, arch, keep-alive, snapshot) tuples per
 * function.
 */
inline constexpr std::size_t
choicesPerFunction()
{
    return 2 * 2 * 2 * kKeepAliveLevels;
}

/** A full assignment: one Choice per optimized function. */
using Assignment = std::vector<Choice>;

/**
 * Abstract objective over Assignments.
 *
 * evaluate() returns the estimated mean service time; cost() the
 * keep-alive dollars the assignment would commit; budget() the cap.
 * Optimizers must treat cost() > budget() as infeasible.
 */
class Objective
{
  public:
    virtual ~Objective() = default;

    /** Number of functions (assignment length). */
    virtual std::size_t size() const = 0;

    /** Estimated mean service time of the assignment (seconds). */
    virtual double evaluate(const Assignment& assignment) const = 0;

    /** Keep-alive cost the assignment commits (dollars). */
    virtual double cost(const Assignment& assignment) const = 0;

    /** Keep-alive budget for this interval (dollars). */
    virtual double budget() const = 0;

    /**
     * Scalar score optimizers minimize: the service-time estimate with
     * an infeasibility penalty, plus a tiny cost tie-breaker
     * implementing the paper's rule that among near-equal solutions the
     * cheaper one wins (the saved budget is credited forward).
     */
    double
    score(const Assignment& assignment) const
    {
        const double service = evaluate(assignment);
        const double spend = cost(assignment);
        const double over = spend - budget();
        double penalty = 0.0;
        if (over > 0.0)
            penalty = 1e6 + 1e6 * over / std::max(budget(), 1e-9);
        return service + penalty + 1e-7 * spend;
    }
};

} // namespace codecrunch::opt
