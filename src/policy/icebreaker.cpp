#include "policy/icebreaker.hpp"

#include <cmath>

#include "obs/trace.hpp"

namespace codecrunch::policy {

FunctionHistory&
IceBreaker::history(FunctionId function)
{
    return histories_
        .try_emplace(function, 10, config_.windowMinutes)
        .first->second;
}

void
IceBreaker::onArrival(FunctionId function, Seconds now)
{
    history(function).record(now);
}

KeepAliveDecision
IceBreaker::onFinish(const metrics::InvocationRecord&)
{
    KeepAliveDecision decision;
    // Short window only: IceBreaker relies on pre-warming, not on long
    // keep-alive tails.
    decision.keepAliveSeconds = config_.postExecKeepAlive;
    return decision;
}

Seconds
IceBreaker::dominantPeriod(const FunctionHistory& h, Seconds now,
                           double& confidence)
{
    const std::int64_t nowMinute =
        static_cast<std::int64_t>(now / kSecondsPerMinute);
    const auto spectrum = fft_.data();
    h.minuteSeries(nowMinute, config_.windowMinutes, spectrum);
    fft_.forward();
    const std::size_t bin = fft_.dominantBin();
    confidence = 0.0;
    if (bin == 0)
        return -1.0;
    // Confidence: dominant peak's share of the non-DC spectral energy.
    double energy = 0.0;
    for (std::size_t i = 1; i < spectrum.size() / 2; ++i)
        energy += std::norm(spectrum[i]);
    if (energy <= 0.0)
        return -1.0;
    confidence = std::norm(spectrum[bin]) / energy;
    const double periodMinutes =
        static_cast<double>(spectrum.size()) / static_cast<double>(bin);
    return periodMinutes * kSecondsPerMinute;
}

void
IceBreaker::onTick(Seconds now)
{
    const std::int64_t nowMinute =
        static_cast<std::int64_t>(now / kSecondsPerMinute);
    for (auto& [function, h] : histories_) {
        if (h.recentCount(nowMinute, config_.windowMinutes) <
            config_.minSamples) {
            continue;
        }
        // Checked before the spectrum, which only this function's
        // prewarm decision reads.
        if (context_->clusterState().warmCount(function) > 0)
            continue; // already warm
        double confidence = 0.0;
        const Seconds period = dominantPeriod(h, now, confidence);
        if (period <= 0.0)
            continue;
        // Predicted next invocation: last arrival plus the dominant
        // period, advanced into the future if already stale.
        Seconds predicted = h.lastArrival() + period;
        while (predicted <= now)
            predicted += period;
        const Seconds lead = predicted - now;
        if (lead > config_.prewarmLead + kSecondsPerMinute)
            continue; // not due yet; re-examined next tick
        // High re-invocation probability -> fast (x86) node; low ->
        // cheap (ARM) node. This is IceBreaker's probability split.
        const NodeType target = confidence >= config_.fastNodeThreshold
            ? NodeType::X86
            : NodeType::ARM;
        if (auto* trace = context_->traceSink()) {
            obs::TraceEvent event;
            event.kind = obs::TraceEvent::Kind::Predict;
            event.u8 = target == NodeType::X86 ? 0 : 1;
            event.tid = obs::kControllerTrack;
            event.a = function;
            event.x = confidence;
            event.dur = period;
            event.ts = now;
            trace->emit(event);
        }
        context_->requestPrewarm(function, target,
                                 config_.prewarmKeepAlive);
    }
}

} // namespace codecrunch::policy
