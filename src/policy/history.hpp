/**
 * @file
 * Shared invocation-history bookkeeping for prediction-based policies:
 * inter-arrival time (IAT) statistics, idle-time histograms, and
 * per-minute count series (for spectral analysis).
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/logging.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace codecrunch::policy {

/**
 * Per-function invocation history.
 */
class FunctionHistory
{
  public:
    explicit FunctionHistory(std::size_t localWindow = 10,
                             std::size_t minuteWindow = 256)
        : localWindow_(localWindow), minuteWindow_(minuteWindow)
    {
    }

    /** Record an invocation at time `now`. */
    void
    record(Seconds now)
    {
        if (count_ > 0) {
            const Seconds iat = now - lastArrival_;
            global_.add(iat);
            local_.push_back(iat);
            if (local_.size() > localWindow_)
                local_.pop_front();
            histogramAdd(iat);
        }
        lastArrival_ = now;
        ++count_;
        minuteAdd(now);
    }

    std::size_t count() const { return count_; }
    Seconds lastArrival() const { return lastArrival_; }

    /** Mean of the last `localWindow` IATs. */
    double
    localMean() const
    {
        if (local_.empty())
            return 0.0;
        double total = 0.0;
        for (double v : local_)
            total += v;
        return total / static_cast<double>(local_.size());
    }

    /** Stddev of the last `localWindow` IATs. */
    double
    localStddev() const
    {
        if (local_.size() < 2)
            return 0.0;
        const double mean = localMean();
        double m2 = 0.0;
        for (double v : local_)
            m2 += (v - mean) * (v - mean);
        return std::sqrt(m2 / static_cast<double>(local_.size()));
    }

    double globalMean() const { return global_.mean(); }
    double globalStddev() const { return global_.stddev(); }
    std::size_t globalCount() const { return global_.count(); }

    /** Reset the global statistics (the paper resets every 1000). */
    void resetGlobal() { global_ = RunningStat(); }

    /**
     * Quantile of the idle-time histogram (1-min bins, 0..240 min).
     */
    Seconds
    idleQuantile(double q) const
    {
        const std::size_t total = histTotal_;
        if (total == 0)
            return 0.0;
        const std::size_t target = static_cast<std::size_t>(
            q * static_cast<double>(total));
        std::size_t seen = 0;
        for (std::size_t bin = 0; bin < kHistBins; ++bin) {
            seen += histogram_[bin];
            if (seen > target) {
                return static_cast<Seconds>(bin + 1) *
                       kSecondsPerMinute;
            }
        }
        return kHistBins * kSecondsPerMinute;
    }

    /** Coefficient of variation of all recorded IATs. */
    double
    iatCv() const
    {
        const double mean = global_.mean();
        return mean > 0.0 ? global_.stddev() / mean : 0.0;
    }

    /**
     * Per-minute invocation counts for the `window` minutes ending at
     * minute `nowMinute`, written to the front of `out` (zero where
     * nothing was recorded). The rest of `out` is zeroed, so a
     * power-of-two `out` is a zero-padded FFT input.
     */
    void
    minuteSeries(std::int64_t nowMinute, std::size_t window,
                 std::span<double> out) const
    {
        if (out.size() < window) {
            panic("FunctionHistory: ", out.size(),
                  "-entry series is shorter than its ", window,
                  "-minute window");
        }
        std::fill(out.begin(), out.end(), 0.0);
        for (const auto& [minute, count] : minuteCounts_) {
            const std::int64_t offset =
                minute - (nowMinute - static_cast<std::int64_t>(window) +
                          1);
            if (offset >= 0 &&
                offset < static_cast<std::int64_t>(window)) {
                out[static_cast<std::size_t>(offset)] =
                    static_cast<double>(count);
            }
        }
    }

    /** Invocations within the trailing `window` minutes. */
    std::size_t
    recentCount(std::int64_t nowMinute, std::size_t window) const
    {
        std::size_t total = 0;
        for (const auto& [minute, count] : minuteCounts_) {
            if (minute > nowMinute - static_cast<std::int64_t>(window))
                total += count;
        }
        return total;
    }

  private:
    static constexpr std::size_t kHistBins = 240;

    void
    histogramAdd(Seconds iat)
    {
        std::size_t bin = static_cast<std::size_t>(
            iat / kSecondsPerMinute);
        if (bin >= kHistBins)
            bin = kHistBins - 1;
        ++histogram_[bin];
        ++histTotal_;
    }

    void
    minuteAdd(Seconds now)
    {
        const std::int64_t minute =
            static_cast<std::int64_t>(now / kSecondsPerMinute);
        if (!minuteCounts_.empty() &&
            minuteCounts_.back().first == minute) {
            ++minuteCounts_.back().second;
        } else {
            minuteCounts_.emplace_back(minute, 1);
        }
        while (minuteCounts_.size() > minuteWindow_)
            minuteCounts_.pop_front();
    }

    std::size_t localWindow_;
    std::size_t minuteWindow_;
    std::size_t count_ = 0;
    Seconds lastArrival_ = 0.0;
    std::deque<double> local_;
    RunningStat global_;
    std::vector<std::size_t> histogram_ =
        std::vector<std::size_t>(kHistBins, 0);
    std::size_t histTotal_ = 0;
    std::deque<std::pair<std::int64_t, std::size_t>> minuteCounts_;
};

} // namespace codecrunch::policy
