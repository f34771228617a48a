/**
 * @file
 * IceBreaker (Roy, Patel, Tiwari, ASPLOS'22): FFT-based invocation
 * prediction with heterogeneous pre-warming.
 *
 * Per function, IceBreaker analyses the spectrum of its per-minute
 * invocation counts (a real radix-2 FFT over a trailing window), takes
 * the dominant period, and predicts the next invocation. Functions are
 * pre-warmed shortly before their predicted time: on the "fast" node
 * class when the re-invocation probability is high, on the cheaper
 * class otherwise. In IceBreaker's setting the fast class is strictly
 * faster for every function (its key limitation versus CodeCrunch —
 * paper Sec. 2 Finding II); we map fast=x86, cheap=ARM.
 *
 * The per-tick spectral analysis of every active function is what gives
 * IceBreaker its high decision overhead (paper Sec. 5 reports ~30% of
 * service time). Every tick still computes a full spectrum for every
 * function that has at least `minSamples` invocations in its window
 * and no warm container, so the overhead stays an O(pool) sweep per
 * tick; only the constant factor is cut, by one reusable FFT plan
 * whose buffer the minute series is written into and a dominant-bin
 * search that takes a magnitude only of bins that can hold the peak.
 */
#pragma once

#include <unordered_map>

#include "opt/fft.hpp"
#include "policy/history.hpp"
#include "policy/policy.hpp"

namespace codecrunch::policy {

/**
 * FFT-prediction pre-warming baseline.
 */
class IceBreaker : public Policy
{
  public:
    struct Config {
        /** Spectral window (minutes; power of two). */
        std::size_t windowMinutes = 256;
        /** Minimum invocations in the window before predicting. */
        std::size_t minSamples = 6;
        /** Keep-alive after an ordinary execution. */
        Seconds postExecKeepAlive = 2.0 * kSecondsPerMinute;
        /** Keep-alive granted to a pre-warmed container. */
        Seconds prewarmKeepAlive = 4.0 * kSecondsPerMinute;
        /** Lead time before the predicted invocation. */
        Seconds prewarmLead = kSecondsPerMinute;
        /**
         * Re-invocation probability above which the fast (x86) class
         * is used for the pre-warm.
         */
        double fastNodeThreshold = 0.5;
    };

    IceBreaker() : IceBreaker(Config()) {}

    explicit IceBreaker(Config config)
        : config_(config), fft_(opt::Fft::nextPow2(config.windowMinutes))
    {
    }

    std::string name() const override { return "IceBreaker"; }

    void onArrival(FunctionId function, Seconds now) override;

    KeepAliveDecision
    onFinish(const metrics::InvocationRecord& record) override;

    void onTick(Seconds now) override;

  private:
    FunctionHistory& history(FunctionId function);

    /**
     * Dominant invocation period (seconds) from the FFT of the
     * function's minute series, or <= 0 when no reliable peak exists.
     * Also outputs a crude periodicity confidence in [0, 1].
     */
    Seconds dominantPeriod(const FunctionHistory& h, Seconds now,
                           double& confidence);

    Config config_;
    /** Every function's spectrum is computed in this plan's buffer. */
    opt::Fft fft_;
    std::unordered_map<FunctionId, FunctionHistory> histories_;
};

} // namespace codecrunch::policy
