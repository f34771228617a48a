/**
 * @file
 * The keep-alive budget creditor (paper Sec. 3.1 / Fig. 10).
 *
 * The provider sets an *average* keep-alive budget rate. Each interval
 * receives that pro-rata allocation plus whatever previous intervals
 * left unspent ("the keep-alive cost saved up from the previous rounds
 * of optimization") — quiet periods bank budget that peak periods can
 * draw on, the mechanism behind CodeCrunch's higher warm-start rate
 * under peak load. Credit is measured against *actual* spend, so
 * keep-alive commitments that end early (the container is consumed by
 * a warm start) automatically return their unspent remainder.
 */
#pragma once

#include <algorithm>

#include "common/types.hpp"

namespace codecrunch::core {

/**
 * Per-interval budget allocator with carry-over credit.
 */
class BudgetCreditor
{
  public:
    /**
     * @param ratePerSecond average budget in dollars per second.
     * @param intervalSeconds optimization interval length.
     */
    BudgetCreditor(double ratePerSecond, Seconds intervalSeconds)
        : ratePerSecond_(ratePerSecond), interval_(intervalSeconds)
    {
    }

    /**
     * Start a new interval: add the pro-rata allocation and return the
     * budget available to this interval's optimization —
     * everything allocated so far minus everything actually spent.
     * @param spentSoFar cumulative keep-alive dollars spent (from the
     *        cluster cost meter).
     */
    Dollars
    allocate(Dollars spentSoFar)
    {
        const Dollars perInterval = ratePerSecond_ * interval_;
        allocated_ += perInterval;
        // Floor at a fraction of the pro-rata allocation: transient
        // overspend (cost-model estimation error) throttles the next
        // interval instead of zeroing it, which would trigger a mass
        // eviction / re-warm oscillation.
        const Dollars natural = allocated_ - spentSoFar;
        const Dollars grant = std::max(0.25 * perInterval, natural);
        // The floor can hand out more than the books cover; record the
        // excess so the grant ledger stays honest: after every call,
        // grantedTotal() == spentSoFar + grant, and grantedTotal()
        // exceeds allocatedTotal() by exactly the recorded floor
        // grants (overspend is visible, not silently forgiven).
        if (grant > natural)
            floorGranted_ += grant - natural;
        granted_ = spentSoFar + grant;
        return grant;
    }

    /** Total dollars allocated across all intervals so far. */
    Dollars allocatedTotal() const { return allocated_; }

    /**
     * Total dollars actually handed out: the spend covered plus the
     * credit still outstanding as of the last allocate(). Equals
     * allocatedTotal() until the floor fires; then exceeds it by the
     * floor excess.
     */
    Dollars grantedTotal() const { return granted_; }

    /** Cumulative excess handed out by the 0.25 floor. */
    Dollars floorGrantedTotal() const { return floorGranted_; }

    double ratePerSecond() const { return ratePerSecond_; }
    Seconds interval() const { return interval_; }

  private:
    double ratePerSecond_;
    Seconds interval_;
    Dollars allocated_ = 0.0;
    Dollars granted_ = 0.0;
    Dollars floorGranted_ = 0.0;
};

} // namespace codecrunch::core
