/**
 * @file
 * Capped exponential backoff, shared by every retry loop in the tree.
 *
 * The simulated invocation-retry path (experiments/driver.cpp) and the
 * real worker-reconnect path (dist/worker.cpp) intentionally use the
 * SAME delay shape: min(cap, base x 2^(attempt-1)) for attempt >= 1.
 * Keeping one definition means a tuning change (or a bug fix in the
 * doubling) cannot silently diverge between the simulator and the
 * distributed runner.
 */
#pragma once

#include <algorithm>

namespace codecrunch::faults {

/**
 * Delay in seconds before retry number `attempt` + 1: capped
 * exponential backoff min(cap, base x 2^(attempt-1)) for attempt >= 1.
 * attempt <= 1 returns `base`.
 */
inline double
retryBackoff(int attempt, double base, double cap)
{
    double delay = base;
    for (int i = 1; i < attempt && delay < cap; ++i)
        delay *= 2.0;
    return std::min(cap, delay);
}

} // namespace codecrunch::faults
