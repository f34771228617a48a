#include "opt/fft.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.hpp"
#include "obs/profiler.hpp"

namespace codecrunch::opt {

namespace {

/**
 * dominantBin() takes std::abs only of bins whose norm is at least
 * (1 - kScreenMargin) times the largest; 2^-40 is about 4,500 ulp.
 */
constexpr double kScreenMargin = 0x1p-40;

/**
 * Below this largest norm the screen is off: norms near the subnormal
 * range lose the relative accuracy its margin relies on.
 */
constexpr double kScreenMinNorm = 0x1p-900;

bool
isPow2(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

std::vector<Complex>
stageTwiddles(std::size_t n, bool invert)
{
    std::vector<Complex> twiddles;
    twiddles.reserve(n - 1);
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle =
            2.0 * M_PI / static_cast<double>(len) * (invert ? 1 : -1);
        const Complex wlen(std::cos(angle), std::sin(angle));
        Complex w(1.0, 0.0);
        for (std::size_t j = 0; j < len / 2; ++j) {
            twiddles.push_back(w);
            w *= wlen;
        }
    }
    return twiddles;
}

} // namespace

Fft::Fft(std::size_t n) : data_(n)
{
    if (!isPow2(n))
        panic("Fft: size ", n, " is not a power of two");
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            swaps_.emplace_back(i, j);
    }
    forwardTwiddles_ = stageTwiddles(n, false);
    inverseTwiddles_ = stageTwiddles(n, true);
    norm_.resize(n / 2);
    magnitude_.resize(n / 2);
    order_.resize(n / 2 > 1 ? n / 2 - 1 : 0);
}

void
Fft::transform(bool invert)
{
    CC_PHASE("fft.transform");
    const std::size_t n = data_.size();
    Complex* a = data_.data();
    for (const auto& [i, j] : swaps_)
        std::swap(a[i], a[j]);

    const Complex* twiddles =
        invert ? inverseTwiddles_.data() : forwardTwiddles_.data();
    for (std::size_t half = 1; half < n; half <<= 1) {
        const Complex* w = twiddles + (half - 1);
        for (std::size_t i = 0; i < n; i += 2 * half) {
            for (std::size_t j = 0; j < half; ++j) {
                // x * w written out: the (ac - bd, ad + bc) that
                // std::complex computes, without its NaN-recovery
                // branch, which only changes non-finite products.
                const Complex u = a[i + j];
                const Complex x = a[i + j + half];
                const Complex v(
                    x.real() * w[j].real() - x.imag() * w[j].imag(),
                    x.real() * w[j].imag() + x.imag() * w[j].real());
                a[i + j] = u + v;
                a[i + j + half] = u - v;
            }
        }
    }
    if (invert) {
        for (auto& x : data_)
            x /= static_cast<double>(n);
    }
}

std::size_t
Fft::dominantBin()
{
    const std::size_t half = data_.size() / 2;
    if (half < 2)
        return 0;
    // Squared magnitudes cost two multiplies where std::abs costs a
    // hypot, so they screen which bins need one.
    double top = 0.0;
    bool finite = true;
    for (std::size_t i = 1; i < half; ++i) {
        norm_[i] = std::norm(data_[i]);
        top = std::max(top, norm_[i]);
        finite = finite && std::isfinite(norm_[i]);
    }
    if (finite) {
        // A norm is within ~3 ulp of |z|^2 and glibc's hypot within
        // 1 ulp of |z|, so every bin that std::abs ranks first, or
        // ties with it, has a norm within ~16 ulp of the largest: far
        // inside the margin. Norms near the subnormal range lose that
        // accuracy, so then no bin is screened out.
        const double floor = top >= kScreenMinNorm
            ? top * (1.0 - kScreenMargin)
            : -std::numeric_limits<double>::infinity();
        // The pick is made on std::abs values. A strict maximum is
        // what a sort by descending magnitude puts first, so only a
        // tie needs the sort.
        std::size_t best = 0;
        bool tied = false;
        for (std::size_t i = 1; i < half; ++i) {
            if (norm_[i] < floor)
                continue;
            magnitude_[i] = std::abs(data_[i]);
            if (best == 0 || magnitude_[i] > magnitude_[best]) {
                best = i;
                tied = false;
            } else if (magnitude_[i] == magnitude_[best]) {
                tied = true;
            }
        }
        if (!tied)
            return best;
    }
    // A tie, or a non-finite norm: a NaN magnitude leaves the pick to
    // the sort's own sequence of comparisons. Sorting the magnitudes
    // of every bin makes the same comparisons as a sort with a
    // std::abs comparator, so it picks the same bin.
    for (std::size_t i = 1; i < half; ++i)
        magnitude_[i] = std::abs(data_[i]);
    std::iota(order_.begin(), order_.end(), std::size_t{1});
    std::sort(order_.begin(), order_.end(),
              [&](std::size_t a, std::size_t b) {
                  return magnitude_[a] > magnitude_[b];
              });
    return order_[0];
}

std::size_t
Fft::nextPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace codecrunch::opt
