/**
 * @file
 * Iterative radix-2 Cooley-Tukey FFT of a real series.
 *
 * Used by the IceBreaker baseline, which learns function invocation
 * periodicities from the Fourier spectrum of per-minute invocation
 * counts.
 */
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace codecrunch::opt {

using Complex = std::complex<double>;

/**
 * A reusable forward FFT plan for one power-of-two length n and a real
 * input series. The bit-reversal table and per-stage twiddles are
 * computed once, and every transform runs on the plan's own buffers,
 * so a caller that transforms many series allocates nothing per
 * series.
 *
 * Only bins [0, n/2) are produced: the upper half of a real series'
 * spectrum mirrors the lower one. Each bin has the bits of the complex
 * radix-2 transform of the series with zero imaginary parts
 * (tests/legacy_fft.hpp keeps that transform), because every butterfly
 * is the same (ac - bd, ad + bc) followed by u +- v, and the build's
 * -ffp-contract=off keeps those products unfused.
 *
 * A plan is not thread-safe; give each thread (or policy) its own.
 */
class Fft
{
  public:
    /** Plan for length `n`; panics unless `n` is a power of two. */
    explicit Fft(std::size_t n);

    std::size_t size() const { return series_.size(); }

    /** The n-entry real series forward() transforms; set every entry. */
    std::span<double> series() { return series_; }

    /** Forward FFT of series() into bins [0, n/2). */
    void forward();

    /** Bin `k` < n/2 of the last forward(). */
    Complex bin(std::size_t k) const { return {re_[k], im_[k]}; }

    /** std::norm of bin `k` < n/2. */
    double norm(std::size_t k) const { return std::norm(bin(k)); }

    /** Sum of the norms of the non-DC bins 1 ... n/2-1, in that order. */
    double energy() const;

    /**
     * The strongest non-DC bin of the last forward(), or 0 when there
     * is none (fewer than 4 points).
     */
    std::size_t
    dominantBin()
    {
        return dominantBin({re_.data(), size() / 2},
                           {im_.data(), size() / 2});
    }

    /**
     * The strongest non-DC bin of a caller-supplied spectrum, given as
     * the real and imaginary parts of its bins [0, n/2). Strength is
     * std::abs of the complex bin, but std::abs is taken only for bins
     * whose squared magnitude comes close enough to the largest to hold
     * the maximum. An exact tie at the top goes to the bin that
     * std::sort, ordering the bins by descending magnitude, puts first;
     * the goldens were generated with that pick.
     */
    std::size_t dominantBin(std::span<const double> re,
                            std::span<const double> im);

    /** Smallest power of two >= n (and >= 1). */
    static std::size_t nextPow2(std::size_t n);

  private:
    std::vector<double> series_;
    /** Bit-reversed index of every position. */
    std::vector<std::size_t> reversed_;
    /**
     * Twiddles of the stage with half-length h, at [h - 1, 2h - 1),
     * split into real and imaginary parts. They are the running
     * product w *= wlen rather than cos/sin per index, because the
     * goldens were computed with the recurrence's bits.
     */
    std::vector<double> twiddleRe_;
    std::vector<double> twiddleIm_;
    /** The transform's working arrays; bins [0, n/2) hold the result. */
    std::vector<double> re_;
    std::vector<double> im_;
    /**
     * dominantBin() scratch: std::norm of every bin, std::abs of the
     * bins that pass the norm screen (of every bin on a tie), and the
     * tie-break order.
     */
    std::vector<double> norm_;
    std::vector<double> magnitude_;
    std::vector<std::size_t> order_;
};

} // namespace codecrunch::opt
