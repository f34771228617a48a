#include "obs/stats.hpp"

#include "common/logging.hpp"

namespace codecrunch::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds))
{
    if (bounds_.empty())
        fatal("Histogram: needs at least one bucket bound");
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
        if (!(bounds_[i] > bounds_[i - 1]))
            fatal("Histogram: bounds must be strictly ascending (",
                  bounds_[i - 1], " then ", bounds_[i], ")");
    }
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot snap;
    snap.bounds = bounds_;
    snap.counts.resize(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        snap.counts[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sum = sum_.load(std::memory_order_relaxed);
    return snap;
}

Histogram::Snapshot
Histogram::merge(const Snapshot& a, const Snapshot& b)
{
    if (a.bounds != b.bounds)
        panic("Histogram::merge: bucket bounds differ (",
              a.bounds.size(), " vs ", b.bounds.size(), " bounds)");
    Snapshot out = a;
    for (std::size_t i = 0; i < out.counts.size(); ++i)
        out.counts[i] += b.counts[i];
    out.count += b.count;
    out.sum += b.sum;
    return out;
}

void
Histogram::add(const Snapshot& delta)
{
    if (delta.bounds != bounds_)
        panic("Histogram::add: bucket bounds differ (",
              delta.bounds.size(), " vs ", bounds_.size(),
              " bounds)");
    for (std::size_t i = 0; i < delta.counts.size(); ++i) {
        if (delta.counts[i])
            buckets_[i].fetch_add(delta.counts[i],
                                  std::memory_order_relaxed);
    }
    count_.fetch_add(delta.count, std::memory_order_relaxed);
    double current = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(current, current + delta.sum,
                                       std::memory_order_relaxed))
        ;
}

void
Histogram::reset()
{
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>&
defaultLatencyBoundsSeconds()
{
    static const std::vector<double> bounds = {
        0.0005, 0.001, 0.0025, 0.005, 0.01,  0.025, 0.05,
        0.1,    0.25,  0.5,    1.0,   2.5,   5.0,   10.0,
        25.0,   50.0,  100.0,  250.0, 500.0, 1000.0};
    return bounds;
}

Registry&
Registry::global()
{
    static Registry registry;
    return registry;
}

Registry::Instrument&
Registry::lookup(std::string_view name, Kind kind, StatScope scope)
{
    auto it = instruments_.find(name);
    if (it == instruments_.end()) {
        Instrument instrument;
        instrument.kind = kind;
        instrument.scope = scope;
        it = instruments_
                 .emplace(std::string(name), std::move(instrument))
                 .first;
    } else {
        if (it->second.kind != kind)
            panic("Registry: '", std::string(name),
                  "' re-registered as a different instrument kind");
        if (it->second.scope != scope)
            panic("Registry: '", std::string(name),
                  "' re-registered with a different scope");
    }
    return it->second;
}

Counter&
Registry::counter(std::string_view name, StatScope scope)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Instrument& instrument = lookup(name, Kind::Counter, scope);
    if (!instrument.counter)
        instrument.counter = std::make_unique<Counter>();
    return *instrument.counter;
}

Gauge&
Registry::gauge(std::string_view name, StatScope scope)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Instrument& instrument = lookup(name, Kind::Gauge, scope);
    if (!instrument.gauge)
        instrument.gauge = std::make_unique<Gauge>();
    return *instrument.gauge;
}

Histogram&
Registry::histogram(std::string_view name, std::vector<double> bounds,
                    StatScope scope)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Instrument& instrument = lookup(name, Kind::Histogram, scope);
    if (!instrument.histogram) {
        instrument.histogram =
            std::make_unique<Histogram>(std::move(bounds));
    } else if (instrument.histogram->bounds() != bounds) {
        panic("Registry: '", std::string(name),
              "' re-registered with different histogram bounds");
    }
    return *instrument.histogram;
}

Registry::StatsSnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    StatsSnapshot snap;
    for (const auto& [name, instrument] : instruments_) {
        switch (instrument.kind) {
          case Kind::Counter:
            snap.counters.emplace_back(name,
                                       instrument.counter->value());
            break;
          case Kind::Gauge:
            snap.gauges.emplace_back(name, instrument.gauge->value());
            break;
          case Kind::Histogram:
            snap.histograms.emplace_back(
                name, instrument.histogram->snapshot());
            break;
        }
    }
    return snap;
}

Registry::StatsSnapshot
Registry::snapshot(StatScope scope) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    StatsSnapshot snap;
    for (const auto& [name, instrument] : instruments_) {
        if (instrument.scope != scope)
            continue;
        switch (instrument.kind) {
          case Kind::Counter:
            snap.counters.emplace_back(name,
                                       instrument.counter->value());
            break;
          case Kind::Gauge:
            snap.gauges.emplace_back(name, instrument.gauge->value());
            break;
          case Kind::Histogram:
            snap.histograms.emplace_back(
                name, instrument.histogram->snapshot());
            break;
        }
    }
    return snap;
}

std::optional<Registry::Registration>
Registry::find(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = instruments_.find(name);
    if (it == instruments_.end())
        return std::nullopt;
    const Instrument& instrument = it->second;
    Registration registration{instrument.kind, instrument.scope, {}};
    if (instrument.kind == Kind::Histogram)
        registration.bounds = instrument.histogram->bounds();
    return registration;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, instrument] : instruments_) {
        switch (instrument.kind) {
          case Kind::Counter:
            instrument.counter->reset();
            break;
          case Kind::Gauge:
            instrument.gauge->reset();
            break;
          case Kind::Histogram:
            instrument.histogram->reset();
            break;
        }
    }
}

} // namespace codecrunch::obs
