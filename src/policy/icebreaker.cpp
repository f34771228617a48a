#include "policy/icebreaker.hpp"

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
        h.minuteSeries(nowMinute, config_.windowMinutes, fft_.series());
        fft_.forward();
        const std::size_t bin = fft_.dominantBin();
        if (bin == 0)
            continue; // no peak to take a period from
        const double periodMinutes =
            static_cast<double>(fft_.size()) / static_cast<double>(bin);
        const Seconds period = periodMinutes * kSecondsPerMinute;
        // Predicted next invocation: last arrival plus the dominant
        // period, advanced into the future if already stale.
        Seconds predicted = h.lastArrival() + period;
        while (predicted <= now)
            predicted += period;
        const Seconds lead = predicted - now;
        if (lead > config_.prewarmLead + kSecondsPerMinute)
            continue; // not due yet; re-examined next tick
        // Confidence: the dominant peak's share of the non-DC spectral
        // energy. Only a due prediction reads it, so only it sums the
        // energy.
        const double energy = fft_.energy();
        if (energy <= 0.0)
            continue;
        const double confidence = fft_.norm(bin) / energy;
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
