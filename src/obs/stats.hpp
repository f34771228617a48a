/**
 * @file
 * Stats registry: named counters, gauges, and fixed-bucket histograms
 * that any subsystem (Collector, driver, fault path, RunEngine) can
 * register into and that run reports snapshot.
 *
 * Concurrency and determinism contract:
 *  - Counters and histogram buckets are lock-free relaxed atomics;
 *    integer adds commute, so totals are identical for any interleaving
 *    of the same set of operations — serial and threaded runs of the
 *    same plan snapshot to identical values.
 *  - Gauges are max-gauges over doubles. max() is commutative and
 *    exact (no rounding), so it shares the determinism guarantee.
 *  - Histogram sums are floating-point accumulations whose value
 *    depends on addition order under concurrency. They are kept for
 *    interactive inspection (--stats-out) but MUST NOT be exported
 *    into deterministic artifacts; snapshots carry them separately so
 *    writers can exclude them (see runner/report.hpp).
 *  - Scope::Sim marks instruments fed exclusively by simulated-time
 *    quantities (safe for diffable run reports); Scope::Wall marks
 *    wall-clock observables (runner job timings) that vary run to run.
 *
 * Instruments live for the process lifetime: registration hands out a
 * stable pointer, so hot paths pay one relaxed atomic op per event and
 * no lookup.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace codecrunch::obs {

/** Determinism scope of an instrument (see file comment). */
enum class StatScope : std::uint8_t { Sim, Wall };

/** Monotone event counter. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * Max-gauge: tracks the largest observed value. Exact and commutative
 * (unlike a sum of doubles), so it stays deterministic under threads.
 */
class Gauge
{
  public:
    void
    observe(double v)
    {
        double current = value_.load(std::memory_order_relaxed);
        while (v > current &&
               !value_.compare_exchange_weak(
                   current, v, std::memory_order_relaxed))
            ;
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram, Prometheus-style: bucket i counts values
 * <= bounds[i] and > bounds[i-1]; values above the last bound land in
 * the overflow bucket. Bucket counts are relaxed atomics.
 */
class Histogram
{
  public:
    struct Snapshot {
        std::vector<double> bounds;
        /** counts.size() == bounds.size() + 1 (last = overflow). */
        std::vector<std::uint64_t> counts;
        std::uint64_t count = 0;
        /** Order-dependent under threads; excluded from Sim exports. */
        double sum = 0.0;

        /** Exact binary round trip (runner/serial.hpp). */
        template <typename V>
        void
        visitFields(V&& v)
        {
            v(bounds);
            v(counts);
            v(count);
            v(sum);
        }
    };

    /** `bounds` must be non-empty and strictly ascending. */
    explicit Histogram(std::vector<double> bounds);

    void
    observe(double v)
    {
        buckets_[bucketFor(v)].fetch_add(1,
                                         std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        double current = sum_.load(std::memory_order_relaxed);
        while (!sum_.compare_exchange_weak(
            current, current + v, std::memory_order_relaxed))
            ;
    }

    const std::vector<double>& bounds() const { return bounds_; }

    Snapshot snapshot() const;

    /** Merge two snapshots; panics when bucket bounds differ. */
    static Snapshot merge(const Snapshot& a, const Snapshot& b);

    /**
     * Add a snapshot's contents into this live histogram in one batch
     * (~20 atomic adds). Used to flush a per-run LocalHistogram, so
     * per-event paths never touch these shared cache lines. Panics
     * when bucket bounds differ.
     */
    void add(const Snapshot& delta);

    void reset();

  private:
    std::size_t
    bucketFor(double v) const
    {
        // Linear scan: bucket counts are small (~20) and the common
        // case exits early; a branchy binary search buys nothing here.
        for (std::size_t i = 0; i < bounds_.size(); ++i) {
            if (v <= bounds_[i])
                return i;
        }
        return bounds_.size(); // overflow
    }

    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/**
 * Plain (non-atomic) histogram accumulator for single-threaded hot
 * paths. Per-run code observes into a local instance and flushes the
 * whole thing into the shared registry Histogram once at end of run
 * (Histogram::add), keeping contended atomics off per-event paths.
 * Bucket semantics match Histogram exactly.
 */
class LocalHistogram
{
  public:
    explicit LocalHistogram(std::vector<double> bounds)
    {
        snap_.bounds = std::move(bounds);
        snap_.counts.assign(snap_.bounds.size() + 1, 0);
    }

    void
    observe(double v)
    {
        std::size_t i = 0;
        while (i < snap_.bounds.size() && v > snap_.bounds[i])
            ++i;
        ++snap_.counts[i];
        ++snap_.count;
        snap_.sum += v;
    }

    const Histogram::Snapshot& snapshot() const { return snap_; }

    /** Exact binary round trip (runner/serial.hpp). */
    template <typename V>
    void
    visitFields(V&& v)
    {
        v(snap_);
    }

  private:
    Histogram::Snapshot snap_;
};

/** Default latency bucket bounds in seconds (sub-ms to ~17 min). */
const std::vector<double>& defaultLatencyBoundsSeconds();

/**
 * Process-global instrument registry. Registration is idempotent by
 * name: the first call creates the instrument, later calls return the
 * same one (kind and scope must match, else panic). Names should be
 * dot-separated "subsystem.metric" with "sim."/"wall." prefixes
 * matching their scope by convention.
 */
class Registry
{
  public:
    static Registry& global();

    Counter& counter(std::string_view name,
                     StatScope scope = StatScope::Sim);
    Gauge& gauge(std::string_view name,
                 StatScope scope = StatScope::Sim);
    Histogram& histogram(std::string_view name,
                         std::vector<double> bounds,
                         StatScope scope = StatScope::Sim);

    struct StatsSnapshot {
        std::vector<std::pair<std::string, std::uint64_t>> counters;
        std::vector<std::pair<std::string, double>> gauges;
        std::vector<std::pair<std::string, Histogram::Snapshot>>
            histograms;
    };

    /** Sorted by name; optionally filtered to one scope. */
    StatsSnapshot snapshot() const;
    StatsSnapshot snapshot(StatScope scope) const;

    enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

    /** How a name is registered (bounds: histograms only). */
    struct Registration {
        Kind kind;
        StatScope scope;
        std::vector<double> bounds;
    };

    /**
     * The registration under `name`, if any. Lets a caller refuse an
     * untrusted name before registering it would panic.
     */
    std::optional<Registration> find(std::string_view name) const;

    /** Zero every instrument (keeps registrations). Test helper. */
    void reset();

  private:
    struct Instrument {
        Kind kind;
        StatScope scope;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Instrument& lookup(std::string_view name, Kind kind,
                       StatScope scope);

    mutable std::mutex mutex_;
    /** Ordered so snapshots come out name-sorted with no extra sort. */
    std::map<std::string, Instrument, std::less<>> instruments_;
};

} // namespace codecrunch::obs
