/**
 * @file
 * Test-only copy of the allocating complex FFT that opt::Fft replaced.
 *
 * The real-input forward plan in src/opt/fft.hpp (bit-reversal and
 * twiddle tables, real first stages, fused stage pairs, a screened
 * dominant bin) is proven to produce the same bits by running this
 * implementation side by side with it over a large seeded set of
 * invocation-count series (opt_test.cpp, FftDifferential*) and
 * asserting bit-equal lower-half spectra, equal dominant bins and
 * bit-equal confidences. transform(), forwardReal and dominantBins are
 * the old functions kept verbatim, and confidence() is the formula
 * IceBreaker applied to their output, so the oracle's semantics are
 * exactly what every golden artifact was generated against. It lives
 * under tests/ and is not linked into the simulator.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/logging.hpp"
#include "obs/profiler.hpp"

namespace codecrunch::opt::legacy {

using Complex = std::complex<double>;

inline bool
isPow2(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

inline std::size_t
nextPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

inline void
transform(std::vector<Complex>& data, bool invert)
{
    CC_PHASE("fft.transform");
    const std::size_t n = data.size();
    if (!isPow2(n))
        panic("Fft: size ", n, " is not a power of two");

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(data[i], data[j]);
    }

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle =
            2.0 * M_PI / static_cast<double>(len) * (invert ? 1 : -1);
        const Complex wlen(std::cos(angle), std::sin(angle));
        for (std::size_t i = 0; i < n; i += len) {
            Complex w(1.0, 0.0);
            for (std::size_t j = 0; j < len / 2; ++j) {
                const Complex u = data[i + j];
                const Complex v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w *= wlen;
            }
        }
    }
    if (invert) {
        for (auto& x : data)
            x /= static_cast<double>(n);
    }
}

inline std::vector<Complex>
forwardReal(const std::vector<double>& series)
{
    std::vector<Complex> data(nextPow2(series.size()), Complex(0, 0));
    for (std::size_t i = 0; i < series.size(); ++i)
        data[i] = Complex(series[i], 0.0);
    transform(data, false);
    return data;
}

inline std::vector<std::size_t>
dominantBins(const std::vector<Complex>& spectrum, std::size_t k)
{
    const std::size_t half = spectrum.size() / 2;
    std::vector<std::size_t> bins;
    for (std::size_t i = 1; i < half; ++i)
        bins.push_back(i);
    std::sort(bins.begin(), bins.end(),
              [&](std::size_t a, std::size_t b) {
                  return std::abs(spectrum[a]) > std::abs(spectrum[b]);
              });
    if (bins.size() > k)
        bins.resize(k);
    return bins;
}

/**
 * IceBreaker's periodicity confidence for `bin` of `spectrum`: the
 * bin's norm over the norms of bins 1 ... n/2-1 summed in index order,
 * or nullopt when that energy is not positive (then no prediction was
 * made).
 */
inline std::optional<double>
confidence(const std::vector<Complex>& spectrum, std::size_t bin)
{
    double energy = 0.0;
    for (std::size_t i = 1; i < spectrum.size() / 2; ++i)
        energy += std::norm(spectrum[i]);
    if (energy <= 0.0)
        return std::nullopt;
    return std::norm(spectrum[bin]) / energy;
}

} // namespace codecrunch::opt::legacy
