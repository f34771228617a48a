/**
 * @file
 * Iterative radix-2 Cooley-Tukey FFT.
 *
 * Used by the IceBreaker baseline, which learns function invocation
 * periodicities from the Fourier spectrum of per-minute invocation
 * counts.
 */
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace codecrunch::opt {

using Complex = std::complex<double>;

/**
 * A reusable FFT plan for one power-of-two length: the bit-reversal
 * swaps and per-stage twiddles are computed once, and every transform
 * runs in place on the plan's own buffer, so a caller that transforms
 * many series allocates nothing per series.
 *
 * A plan is not thread-safe; give each thread (or policy) its own.
 */
class Fft
{
  public:
    /** Plan for length `n`; panics unless `n` is a power of two. */
    explicit Fft(std::size_t n);

    /** The buffer forward() and inverse() transform in place. */
    std::span<Complex> data() { return data_; }

    /** In-place forward FFT of data(). */
    void forward() { transform(false); }

    /** In-place inverse FFT of data(), scaled by 1/n. */
    void inverse() { transform(true); }

    /**
     * The strongest non-DC bin in the first half of the spectrum held
     * in data(), or 0 when there is none (fewer than 4 points).
     * Strength is std::abs, but std::abs is taken only for bins whose
     * squared magnitude comes close enough to the largest to hold the
     * maximum. An exact tie at the top goes to the bin that std::sort,
     * ordering the bins by descending magnitude, puts first; the
     * goldens were generated with that pick.
     */
    std::size_t dominantBin();

    /** Smallest power of two >= n (and >= 1). */
    static std::size_t nextPow2(std::size_t n);

  private:
    void transform(bool invert);

    std::vector<Complex> data_;
    /** Index pairs the bit-reversal permutation exchanges. */
    std::vector<std::pair<std::size_t, std::size_t>> swaps_;
    /**
     * Twiddles of the stage with half-length h, at [h - 1, 2h - 1).
     * They are the running product w *= wlen rather than cos/sin per
     * index, because the goldens were computed with the recurrence's
     * bits.
     */
    std::vector<Complex> forwardTwiddles_;
    std::vector<Complex> inverseTwiddles_;
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
