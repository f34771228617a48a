#include "dist/protocol.hpp"

#include <cmath>
#include <set>

#include "common/bytes.hpp"
#include "common/logging.hpp"

namespace codecrunch::dist {

namespace {

/** FNV-1a 64-bit over a byte string, continuing from `h`. */
std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h)
{
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
fnv1aU64(std::uint64_t v, std::uint64_t h)
{
    char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    return fnv1a(std::string_view(bytes, 8), h);
}

/** Throws DecodeError unless applying `delta` could not panic. */
void
checkStatsDelta(const StatsDelta& delta, const obs::Registry& registry)
{
    using Kind = obs::Registry::Kind;
    std::set<std::string_view> names;
    const auto admit = [&](const std::string& name, Kind kind,
                           const std::vector<double>& bounds) {
        if (!names.insert(name).second)
            throw DecodeError("stats delta sends '" + name +
                              "' twice");
        const auto held = registry.find(name);
        if (held &&
            (held->kind != kind ||
             held->scope != obs::StatScope::Sim ||
             held->bounds != bounds))
            throw DecodeError("stats delta sends '" + name +
                              "' as another kind, scope or bounds "
                              "than the registry holds");
    };
    for (const auto& counter : delta.counters)
        admit(counter.name, Kind::Counter, {});
    for (const auto& gauge : delta.gauges)
        admit(gauge.name, Kind::Gauge, {});
    for (const auto& histogram : delta.histograms) {
        const auto& bounds = histogram.value.bounds;
        bool ascending = !bounds.empty();
        for (std::size_t i = 0; i < bounds.size() && ascending; ++i)
            ascending = std::isfinite(bounds[i]) &&
                (i == 0 || bounds[i] > bounds[i - 1]);
        if (!ascending)
            throw DecodeError("stats delta histogram '" +
                              histogram.name +
                              "' has bounds that are empty, not "
                              "finite or not strictly ascending");
        if (histogram.value.counts.size() != bounds.size() + 1)
            throw DecodeError("stats delta histogram '" +
                              histogram.name + "' has " +
                              std::to_string(
                                  histogram.value.counts.size()) +
                              " counts for " +
                              std::to_string(bounds.size()) +
                              " bounds");
        admit(histogram.name, Kind::Histogram, bounds);
    }
}

} // namespace

std::uint64_t
planFingerprint(
    std::string_view planName,
    const std::vector<runner::ExecBackend::SerializedJob>& jobs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a(planName, h);
    h = fnv1aU64(jobs.size(), h);
    for (const auto& job : jobs) {
        h = fnv1a(job.label, h);
        h = fnv1aU64(job.seed, h);
    }
    return h;
}

StatsDelta
diffStats(const obs::Registry::StatsSnapshot& before,
          const obs::Registry::StatsSnapshot& after)
{
    // Snapshots are name-sorted (Registry uses an ordered map), so a
    // merge walk finds each instrument's prior value in linear time.
    StatsDelta delta;
    std::size_t b = 0;
    for (const auto& [name, value] : after.counters) {
        while (b < before.counters.size() &&
               before.counters[b].first < name)
            ++b;
        std::uint64_t prior = 0;
        if (b < before.counters.size() &&
            before.counters[b].first == name)
            prior = before.counters[b].second;
        delta.counters.push_back({name, value - prior});
    }

    // Gauges are max-merged on apply, so shipping the full after-value
    // is both exact and idempotent; no need to diff against before.
    for (const auto& [name, value] : after.gauges)
        delta.gauges.push_back({name, value});

    b = 0;
    for (const auto& [name, snap] : after.histograms) {
        while (b < before.histograms.size() &&
               before.histograms[b].first < name)
            ++b;
        obs::Histogram::Snapshot increment = snap;
        if (b < before.histograms.size() &&
            before.histograms[b].first == name) {
            const auto& prior = before.histograms[b].second;
            if (prior.bounds != snap.bounds)
                fatal("dist: histogram '", name,
                      "' changed bounds between snapshots");
            for (std::size_t i = 0; i < increment.counts.size(); ++i)
                increment.counts[i] -= prior.counts[i];
            increment.count -= prior.count;
            increment.sum -= prior.sum;
        }
        delta.histograms.push_back({name, std::move(increment)});
    }
    return delta;
}

void
applyStatsDelta(const StatsDelta& delta, obs::Registry& registry)
{
    checkStatsDelta(delta, registry);
    for (const auto& counter : delta.counters)
        registry.counter(counter.name, obs::StatScope::Sim)
            .add(counter.value);
    for (const auto& gauge : delta.gauges)
        registry.gauge(gauge.name, obs::StatScope::Sim)
            .observe(gauge.value);
    for (const auto& histogram : delta.histograms)
        registry
            .histogram(histogram.name, histogram.value.bounds,
                       obs::StatScope::Sim)
            .add(histogram.value);
}

} // namespace codecrunch::dist
