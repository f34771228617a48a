/**
 * @file
 * Statistical accumulators used by the metrics and trace modules.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace codecrunch {

/**
 * Streaming mean / variance / min / max accumulator (Welford's method).
 */
class RunningStat
{
  public:
    /** Add one observation. */
    void
    add(double x)
    {
        ++count_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (x - mean_);
        min_ = count_ == 1 ? x : std::min(min_, x);
        max_ = count_ == 1 ? x : std::max(max_, x);
        sum_ += x;
    }

    /** Merge another accumulator into this one. */
    void
    merge(const RunningStat& other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        const double total =
            static_cast<double>(count_ + other.count_);
        const double delta = other.mean_ - mean_;
        m2_ += other.m2_ + delta * delta *
               static_cast<double>(count_) *
               static_cast<double>(other.count_) / total;
        mean_ = (mean_ * static_cast<double>(count_) +
                 other.mean_ * static_cast<double>(other.count_)) / total;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
        sum_ += other.sum_;
        count_ += other.count_;
    }

    std::size_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Population variance. */
    double
    variance() const
    {
        return count_ ? m2_ / static_cast<double>(count_) : 0.0;
    }

    /** Population standard deviation. */
    double stddev() const { return std::sqrt(variance()); }

    /**
     * Field-wise visitation for exact binary round trips (see
     * runner/serial.hpp). The visitor sees every field by reference,
     * in a fixed order, so encode and decode share one definition.
     */
    template <typename V>
    void
    visitFields(V&& v)
    {
        v(count_);
        v(mean_);
        v(m2_);
        v(sum_);
        v(min_);
        v(max_);
    }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Exact percentile digest: stores all samples and sorts on demand.
 *
 * The evaluation traces produce at most a few million invocation records,
 * which fits comfortably in memory; exactness matters more here than
 * sketching because the paper reports specific percentiles (75th, max).
 */
class PercentileDigest
{
  public:
    void
    add(double x)
    {
        samples_.push_back(x);
        sorted_ = false;
    }

    std::size_t count() const { return samples_.size(); }

    /** Value at quantile q in [0, 1] (linear interpolation). */
    double
    quantile(double q) const
    {
        if (samples_.empty())
            return 0.0;
        sortIfNeeded();
        const double clamped = std::clamp(q, 0.0, 1.0);
        const double pos =
            clamped * static_cast<double>(samples_.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
    }

    double median() const { return quantile(0.5); }
    double max() const { return quantile(1.0); }
    double min() const { return quantile(0.0); }

    double
    mean() const
    {
        if (samples_.empty())
            return 0.0;
        double total = 0.0;
        for (double s : samples_)
            total += s;
        return total / static_cast<double>(samples_.size());
    }

    /** Fraction of samples <= x (empirical CDF). */
    double
    cdf(double x) const
    {
        if (samples_.empty())
            return 0.0;
        sortIfNeeded();
        const auto it =
            std::upper_bound(samples_.begin(), samples_.end(), x);
        return static_cast<double>(it - samples_.begin()) /
               static_cast<double>(samples_.size());
    }

    /**
     * Exact binary round trip (runner/serial.hpp). Samples travel in
     * their current order along with the sorted flag, so a decoded
     * digest reproduces the source digest's behavior bit-for-bit.
     */
    template <typename V>
    void
    visitFields(V&& v)
    {
        v(samples_);
        v(sorted_);
    }

  private:
    void
    sortIfNeeded() const
    {
        if (!sorted_) {
            std::sort(samples_.begin(), samples_.end());
            sorted_ = true;
        }
    }

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * Fixed-width histogram over [lo, hi) with overflow/underflow bins.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins)
        : lo_(lo), hi_(hi), counts_(bins, 0)
    {
    }

    void
    add(double x)
    {
        ++total_;
        if (x < lo_) {
            ++underflow_;
        } else if (x >= hi_) {
            ++overflow_;
        } else {
            const double frac = (x - lo_) / (hi_ - lo_);
            const std::size_t bin = std::min(
                counts_.size() - 1,
                static_cast<std::size_t>(
                    frac * static_cast<double>(counts_.size())));
            ++counts_[bin];
        }
    }

    std::size_t bins() const { return counts_.size(); }
    std::size_t count(std::size_t bin) const { return counts_[bin]; }
    std::size_t total() const { return total_; }
    std::size_t underflow() const { return underflow_; }
    std::size_t overflow() const { return overflow_; }

    /** Lower edge of the given bin. */
    double
    binLow(std::size_t bin) const
    {
        return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
               static_cast<double>(counts_.size());
    }

    /** Upper edge of the given bin. */
    double
    binHigh(std::size_t bin) const
    {
        return binLow(bin + 1);
    }

  private:
    double lo_;
    double hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
    std::size_t underflow_ = 0;
    std::size_t overflow_ = 0;
};

} // namespace codecrunch
