/**
 * @file
 * Simulation metrics: per-invocation records, per-minute timelines, and
 * the aggregates the paper reports (mean service time, warm-start
 * fraction, keep-alive spend, SLA violations).
 */
#pragma once

#include <cstddef>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/stats.hpp"

namespace codecrunch::metrics {

/**
 * Outcome of one invocation.
 */
struct InvocationRecord {
    FunctionId function = kInvalidFunction;
    Seconds arrival = 0.0;
    /** Queueing delay before a node was available. */
    Seconds wait = 0.0;
    /** Cold-start or decompression latency (zero for plain warm). */
    Seconds startup = 0.0;
    /** Pure execution time. */
    Seconds exec = 0.0;
    StartType start = StartType::Cold;
    NodeType nodeType = NodeType::X86;

    /** Service time = wait + startup + exec (paper Sec. 4). */
    Seconds
    service() const
    {
        return wait + startup + exec;
    }

    /** Exact binary round trip (runner/serial.hpp). */
    template <typename V>
    void
    visitFields(V&& v)
    {
        v(function);
        v(arrival);
        v(wait);
        v(startup);
        v(exec);
        v(start);
        v(nodeType);
    }
};

/**
 * Per-minute aggregate bin.
 */
struct MinuteBin {
    std::size_t invocations = 0;
    std::size_t warmStarts = 0;           // includes compressed
    std::size_t compressedStarts = 0;
    std::size_t coldStarts = 0;
    std::size_t snapshotStarts = 0;
    /** Total warm memory at the minute boundary (MB). */
    MegaBytes warmMemoryMb = 0;
    /** Keep-alive dollars spent within this minute. */
    Dollars keepAliveSpend = 0;
    /** Number of functions compressed during this minute. */
    std::size_t compressions = 0;
    /** Execution attempts that failed (fault injection) this minute. */
    std::size_t failedAttempts = 0;
    /** Mean service time of invocations arriving this minute. */
    double meanService = 0;

    /** Exact binary round trip (runner/serial.hpp). */
    template <typename V>
    void
    visitFields(V&& v)
    {
        v(invocations);
        v(warmStarts);
        v(compressedStarts);
        v(coldStarts);
        v(snapshotStarts);
        v(warmMemoryMb);
        v(keepAliveSpend);
        v(compressions);
        v(failedAttempts);
        v(meanService);
    }
};

/**
 * Collects and aggregates everything a simulation run produces.
 */
class Collector
{
  public:
    explicit Collector(Seconds duration = 0.0)
    {
        if (duration > 0.0)
            bins_.resize(
                static_cast<std::size_t>(duration / kSecondsPerMinute) +
                1);
    }

    /** Record one completed invocation. */
    void
    record(const InvocationRecord& record)
    {
        records_.push_back(record);
        service_.add(record.service());
        serviceDigest_.add(record.service());
        wait_.add(record.wait);
        localService_.observe(record.service());
        localWait_.observe(record.wait);
        auto& bin = binFor(record.arrival);
        ++bin.invocations;
        bin.meanService +=
            (record.service() - bin.meanService) /
            static_cast<double>(bin.invocations);
        switch (record.start) {
          case StartType::Cold:
            ++bin.coldStarts;
            ++coldStarts_;
            break;
          case StartType::Warm:
            ++bin.warmStarts;
            ++warmStarts_;
            break;
          case StartType::WarmCompressed:
            ++bin.warmStarts;
            ++bin.compressedStarts;
            ++warmStarts_;
            ++compressedStarts_;
            break;
          case StartType::Snapshot:
            ++bin.snapshotStarts;
            ++snapshotStarts_;
            break;
        }
    }

    /** Record the cluster state snapshot at a minute boundary. */
    void
    snapshotMinute(Seconds now, MegaBytes warmMemoryMb,
                   Dollars cumulativeSpend)
    {
        auto& bin = binFor(now);
        bin.warmMemoryMb = warmMemoryMb;
        bin.keepAliveSpend =
            cumulativeSpend - lastCumulativeSpend_;
        lastCumulativeSpend_ = cumulativeSpend;
    }

    /** Record a compression action (for the Fig. 11 activity series). */
    void
    recordCompression(Seconds now)
    {
        ++binFor(now).compressions;
        ++compressions_;
    }

    // --- fault accounting ----------------------------------------------

    /** One execution attempt failed (transient fault or node crash). */
    void
    recordFailedAttempt(Seconds now)
    {
        ++binFor(now).failedAttempts;
        ++failedAttempts_;
    }

    /** A failed invocation was re-queued with backoff. */
    void
    recordRetry()
    {
        ++retries_;
    }

    /** An invocation exhausted its retries and was dropped. */
    void
    recordPermanentFailure()
    {
        ++permanentFailures_;
    }

    /**
     * A warm container was removed before its keep-alive commitment
     * expired; the unspent remainder of the commitment is refunded.
     * `byFault` marks refunds caused by crash/shock evictions.
     */
    void
    recordRefund(Seconds now, Dollars amount, bool byFault)
    {
        (void)now;
        if (amount <= 0.0)
            return;
        refundedDollars_ += amount;
        if (byFault)
            faultRefundedDollars_ += amount;
    }

    /** A finished prewarm was dropped (no warm headroom left). */
    void
    recordPrewarmDropped()
    {
        ++prewarmsDropped_;
    }

    /**
     * Push this run's totals into the process-global stats registry in
     * one batch (the driver calls this when its simulation completes).
     * Per-event updates stay run-local, so the sim hot path never
     * touches registry cache lines shared across worker threads.
     */
    void
    flushStats()
    {
        auto& registry = obs::Registry::global();
        const auto& bounds = obs::defaultLatencyBoundsSeconds();
        registry.histogram("sim.service_seconds", bounds)
            .add(localService_.snapshot());
        registry.histogram("sim.wait_seconds", bounds)
            .add(localWait_.snapshot());
        registry.counter("sim.invocations").add(records_.size());
        registry.counter("sim.starts.cold").add(coldStarts_);
        registry.counter("sim.starts.warm").add(warmStarts_);
        registry.counter("sim.starts.compressed")
            .add(compressedStarts_);
        registry.counter("sim.starts.snapshot").add(snapshotStarts_);
        registry.counter("sim.compressions").add(compressions_);
        registry.counter("sim.faults.failed_attempts")
            .add(failedAttempts_);
        registry.counter("sim.faults.retries").add(retries_);
        registry.counter("sim.faults.permanent_failures")
            .add(permanentFailures_);
        registry.counter("sim.driver.prewarms_dropped")
            .add(prewarmsDropped_);
    }

    /**
     * A node transitioned down/up at `now`. The collector integrates
     * down node-seconds between transitions; availability() is valid
     * after finalizeAvailability().
     */
    void
    noteNodeDown(Seconds now, int domain = -1)
    {
        integrateDowntime(now);
        ++nodesDownNow_;
        if (domain >= 0) {
            ensureDomain(domain);
            ++domainDownNow_[static_cast<std::size_t>(domain)];
        }
    }

    void
    noteNodeUp(Seconds now, int domain = -1)
    {
        integrateDowntime(now);
        if (nodesDownNow_ == 0)
            return; // recovery with no matching crash: ignore
        --nodesDownNow_;
        if (domain >= 0) {
            ensureDomain(domain);
            auto& down =
                domainDownNow_[static_cast<std::size_t>(domain)];
            if (down > 0)
                --down;
        }
    }

    /**
     * Close the downtime integral at the end of the run and compute
     * availability = 1 - down node-seconds / (totalNodes x end).
     * When the cluster partitions its nodes into failure domains,
     * pass their sizes (`nodesPerDomain`, indexed by domain id) to
     * additionally get per-domain availability; an empty vector (the
     * default) leaves domainAvailability() empty.
     */
    void
    finalizeAvailability(Seconds end, std::size_t totalNodes,
                         const std::vector<std::size_t>&
                             nodesPerDomain = {})
    {
        integrateDowntime(end);
        const double nodeSeconds =
            static_cast<double>(totalNodes) * end;
        availability_ = nodeSeconds > 0.0
            ? 1.0 - downNodeSeconds_ / nodeSeconds
            : 1.0;
        domainAvailability_.clear();
        for (std::size_t d = 0; d < nodesPerDomain.size(); ++d) {
            const double domainSeconds =
                static_cast<double>(nodesPerDomain[d]) * end;
            const double downSec = d < domainDownSeconds_.size()
                ? domainDownSeconds_[d]
                : 0.0;
            domainAvailability_.push_back(
                domainSeconds > 0.0 ? 1.0 - downSec / domainSeconds
                                    : 1.0);
        }
    }

    /**
     * Warm-pool recovery: seconds from a crash until the cluster-wide
     * warm memory regained its pre-crash level.
     */
    void recordWarmRecovery(Seconds duration)
    {
        warmRecovery_.add(duration);
    }

    std::size_t failedAttempts() const { return failedAttempts_; }
    std::size_t retries() const { return retries_; }
    std::size_t permanentFailures() const { return permanentFailures_; }

    /** Fraction of node-seconds the fleet was up (1.0 = no faults). */
    double availability() const { return availability_; }

    /**
     * Per-failure-domain availability, indexed by domain id. Empty
     * unless finalizeAvailability() was given domain sizes.
     */
    const std::vector<double>&
    domainAvailability() const
    {
        return domainAvailability_;
    }

    /** The crash/shock-attributed share of refunded keep-alive
     *  commitment dollars. */
    Dollars
    faultRefundedDollars() const
    {
        return faultRefundedDollars_;
    }

    /** Finished prewarms dropped for lack of warm headroom. */
    std::size_t prewarmsDropped() const { return prewarmsDropped_; }

    std::size_t warmRecoveries() const { return warmRecovery_.count(); }

    double
    meanWarmRecoverySeconds() const
    {
        return warmRecovery_.count() ? warmRecovery_.mean() : 0.0;
    }

    // --- aggregates ----------------------------------------------------

    std::size_t invocations() const { return records_.size(); }
    double meanServiceTime() const { return service_.mean(); }
    double meanWaitTime() const { return wait_.mean(); }

    double
    warmStartFraction() const
    {
        const std::size_t total =
            warmStarts_ + coldStarts_ + snapshotStarts_;
        return total
            ? static_cast<double>(warmStarts_) /
                  static_cast<double>(total)
            : 0.0;
    }

    std::size_t warmStarts() const { return warmStarts_; }
    std::size_t coldStarts() const { return coldStarts_; }
    std::size_t compressedStarts() const { return compressedStarts_; }
    std::size_t snapshotStarts() const { return snapshotStarts_; }
    std::size_t compressions() const { return compressions_; }

    /** Service-time quantile over all invocations. */
    double
    serviceQuantile(double q) const
    {
        return serviceDigest_.quantile(q);
    }

    const std::vector<InvocationRecord>& records() const
    {
        return records_;
    }

    const std::vector<MinuteBin>& timeline() const { return bins_; }

    /**
     * Fraction of *functions* whose mean service time exceeds
     * (1 + slack) x their uncompressed-warm x86 service baseline —
     * the paper's Fig. 9 accounting ("violates the SLA for only 1.8%
     * of the functions"). `warmBaseline[f]` must hold the baseline per
     * function.
     */
    double
    slaViolationFraction(const std::vector<Seconds>& warmBaseline,
                         double slack) const
    {
        std::vector<double> serviceSum(warmBaseline.size(), 0.0);
        std::vector<std::size_t> count(warmBaseline.size(), 0);
        for (const auto& r : records_) {
            // Records outside the baseline table (foreign or sentinel
            // function ids) have no SLA to violate; skip rather than
            // index out of bounds.
            if (r.function >= warmBaseline.size())
                continue;
            serviceSum[r.function] += r.service();
            ++count[r.function];
        }
        std::size_t invoked = 0, violations = 0;
        for (std::size_t f = 0; f < warmBaseline.size(); ++f) {
            if (count[f] == 0)
                continue;
            ++invoked;
            const double mean =
                serviceSum[f] / static_cast<double>(count[f]);
            if (mean > warmBaseline[f] * (1.0 + slack))
                ++violations;
        }
        return invoked ? static_cast<double>(violations) /
                             static_cast<double>(invoked)
                       : 0.0;
    }

    /**
     * Exact binary round trip of the complete collector state (see
     * runner/serial.hpp): a decoded collector answers every aggregate,
     * quantile, timeline, and SLA query bit-identically to the
     * original. This is what lets distributed workers ship finished
     * runs to the master without perturbing artifacts. Every field
     * below must be listed here — additions to the collector state
     * must extend this visitor (dist_test's codec round trip catches
     * forgotten aggregates).
     */
    template <typename V>
    void
    visitFields(V&& v)
    {
        v(records_);
        v(bins_);
        v(service_);
        v(wait_);
        v(serviceDigest_);
        v(warmStarts_);
        v(coldStarts_);
        v(compressedStarts_);
        v(snapshotStarts_);
        v(compressions_);
        v(lastCumulativeSpend_);
        v(failedAttempts_);
        v(retries_);
        v(permanentFailures_);
        v(nodesDownNow_);
        v(lastDownTransition_);
        v(downNodeSeconds_);
        v(availability_);
        v(domainDownNow_);
        v(domainDownSeconds_);
        v(domainAvailability_);
        v(refundedDollars_);
        v(faultRefundedDollars_);
        v(prewarmsDropped_);
        v(warmRecovery_);
        v(localService_);
        v(localWait_);
    }

  private:
    /** Accumulate down node-seconds since the last transition. */
    void
    integrateDowntime(Seconds now)
    {
        if (now > lastDownTransition_) {
            const Seconds dt = now - lastDownTransition_;
            downNodeSeconds_ +=
                static_cast<double>(nodesDownNow_) * dt;
            for (std::size_t d = 0; d < domainDownNow_.size(); ++d)
                domainDownSeconds_[d] +=
                    static_cast<double>(domainDownNow_[d]) * dt;
            lastDownTransition_ = now;
        }
    }

    /** Grow the per-domain integrals to cover domain id `domain`. */
    void
    ensureDomain(int domain)
    {
        const auto needed = static_cast<std::size_t>(domain) + 1;
        if (domainDownNow_.size() < needed) {
            domainDownNow_.resize(needed, 0);
            domainDownSeconds_.resize(needed, 0.0);
        }
    }

    MinuteBin&
    binFor(Seconds t)
    {
        const std::size_t idx =
            static_cast<std::size_t>(t / kSecondsPerMinute);
        if (idx >= bins_.size())
            bins_.resize(idx + 1);
        return bins_[idx];
    }

    std::vector<InvocationRecord> records_;
    std::vector<MinuteBin> bins_;
    RunningStat service_;
    RunningStat wait_;
    PercentileDigest serviceDigest_;
    std::size_t warmStarts_ = 0;
    std::size_t coldStarts_ = 0;
    std::size_t compressedStarts_ = 0;
    std::size_t snapshotStarts_ = 0;
    std::size_t compressions_ = 0;
    Dollars lastCumulativeSpend_ = 0.0;
    std::size_t failedAttempts_ = 0;
    std::size_t retries_ = 0;
    std::size_t permanentFailures_ = 0;
    int nodesDownNow_ = 0;
    Seconds lastDownTransition_ = 0.0;
    double downNodeSeconds_ = 0.0;
    double availability_ = 1.0;
    std::vector<int> domainDownNow_;
    std::vector<double> domainDownSeconds_;
    std::vector<double> domainAvailability_;
    Dollars refundedDollars_ = 0.0;
    Dollars faultRefundedDollars_ = 0.0;
    std::size_t prewarmsDropped_ = 0;
    RunningStat warmRecovery_;
    /** Run-local latency accumulation; flushStats() batches it out. */
    obs::LocalHistogram localService_{
        obs::defaultLatencyBoundsSeconds()};
    obs::LocalHistogram localWait_{obs::defaultLatencyBoundsSeconds()};
};

} // namespace codecrunch::metrics
