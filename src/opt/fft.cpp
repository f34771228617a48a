#include "opt/fft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
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

/** Two doubles, one butterfly each (SSE2 registers on x86-64). */
using Lanes = double __attribute__((vector_size(16)));

Lanes
load(const double* p)
{
    Lanes lanes;
    std::memcpy(&lanes, p, sizeof lanes);
    return lanes;
}

void
store(double* p, Lanes lanes)
{
    std::memcpy(p, &lanes, sizeof lanes);
}

bool
isPow2(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

void
stageTwiddles(std::size_t n, std::vector<double>& re,
              std::vector<double>& im)
{
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle = -2.0 * M_PI / static_cast<double>(len);
        const Complex wlen(std::cos(angle), std::sin(angle));
        Complex w(1.0, 0.0);
        for (std::size_t j = 0; j < len / 2; ++j) {
            re.push_back(w.real());
            im.push_back(w.imag());
            w *= wlen;
        }
    }
}

/**
 * The radix-2 butterfly (u, x) -> (u + v, u - v) with v = x * w, in
 * one lane or two. The product is the (ac - bd, ad + bc) that
 * std::complex computes, without its NaN-recovery branch, which only
 * changes non-finite products.
 */
template <typename T>
void
butterfly(T& ur, T& ui, T& xr, T& xi, T wr, T wi)
{
    const T vr = xr * wr - xi * wi;
    const T vi = xr * wi + xi * wr;
    xr = ur - vr;
    xi = ui - vi;
    ur = ur + vr;
    ui = ui + vi;
}

/** The stage with half-length `h`, one butterfly at a time. */
void
stage(double* re, double* im, std::size_t n, std::size_t h,
      const double* wr, const double* wi)
{
    wr += h - 1;
    wi += h - 1;
    for (std::size_t i = 0; i < n; i += 2 * h) {
        for (std::size_t j = 0; j < h; ++j) {
            butterfly(re[i + j], im[i + j], re[i + j + h],
                      im[i + j + h], wr[j], wi[j]);
        }
    }
}

/**
 * The stages with half-lengths `h` >= 2 and 2h in one pass over each
 * block of 4h, two butterflies at a time: positions i+j, i+j+h,
 * i+j+2h, i+j+3h go through stage h's two butterflies, then stage
 * 2h's. `LowerHalf` (the last stage) stores only stage 2h's u + v
 * outputs, which are bins [0, n/2) when 4h = n.
 */
template <bool LowerHalf>
void
stagePair(double* re, double* im, std::size_t n, std::size_t h,
          const double* wr, const double* wi)
{
    const double* ar = wr + (h - 1);
    const double* ai = wi + (h - 1);
    const double* br = wr + (2 * h - 1);
    const double* bi = wi + (2 * h - 1);
    for (std::size_t i = 0; i < n; i += 4 * h) {
        for (std::size_t j = 0; j < h; j += 2) {
            double* r = re + i + j;
            double* m = im + i + j;
            Lanes r0 = load(r), m0 = load(m);
            Lanes r1 = load(r + h), m1 = load(m + h);
            Lanes r2 = load(r + 2 * h), m2 = load(m + 2 * h);
            Lanes r3 = load(r + 3 * h), m3 = load(m + 3 * h);
            const Lanes war = load(ar + j), wai = load(ai + j);
            butterfly(r0, m0, r1, m1, war, wai);
            butterfly(r2, m2, r3, m3, war, wai);
            butterfly(r0, m0, r2, m2, load(br + j), load(bi + j));
            butterfly(r1, m1, r3, m3, load(br + j + h), load(bi + j + h));
            store(r, r0);
            store(m, m0);
            store(r + h, r1);
            store(m + h, m1);
            if constexpr (!LowerHalf) {
                store(r + 2 * h, r2);
                store(m + 2 * h, m2);
                store(r + 3 * h, r3);
                store(m + 3 * h, m3);
            }
        }
    }
}

} // namespace

Fft::Fft(std::size_t n) : series_(n), reversed_(n), re_(n), im_(n)
{
    if (!isPow2(n))
        panic("Fft: size ", n, " is not a power of two");
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        reversed_[i] = j;
    }
    stageTwiddles(n, twiddleRe_, twiddleIm_);
    norm_.resize(n / 2);
    magnitude_.resize(n / 2);
    order_.resize(n / 2 > 1 ? n / 2 - 1 : 0);
}

void
Fft::forward()
{
    CC_PHASE("fft.transform");
    const std::size_t n = size();
    const double* x = series_.data();
    const std::size_t* rev = reversed_.data();
    double* re = re_.data();
    double* im = im_.data();
    const double* wr = twiddleRe_.data();
    const double* wi = twiddleIm_.data();
    if (n < 4) {
        for (std::size_t i = 0; i < n; ++i) {
            re[i] = x[rev[i]];
            im[i] = 0.0;
        }
        for (std::size_t h = 1; h < n; h <<= 1)
            stage(re, im, n, h, wr, wi);
        return;
    }
    // Stages 1 and 2 read the series in bit-reversed order, a block of
    // four at a time. Their twiddles are (1, 0) and (wr[2], wi[2]), and
    // every input has a zero imaginary part, so each complex butterfly
    // reduces exactly to these real sums. Only the sign of a zero could
    // differ (for a -0 input, say), and no norm or magnitude reads it.
    for (std::size_t i = 0; i < n; i += 4) {
        const double p0 = x[rev[i]], q0 = x[rev[i + 1]];
        const double p1 = x[rev[i + 2]], q1 = x[rev[i + 3]];
        const double a = p0 + q0, b = p0 - q0;
        const double c = p1 + q1, d = p1 - q1;
        const double vr = d * wr[2], vi = d * wi[2];
        re[i] = a + c;
        im[i] = 0.0;
        re[i + 1] = b + vr;
        im[i + 1] = 0.0 + vi;
        re[i + 2] = a - c;
        im[i + 2] = 0.0;
        re[i + 3] = b - vr;
        im[i + 3] = 0.0 - vi;
    }
    std::size_t h = 4;
    // An odd number of stages left: run one alone so the rest pair up.
    if (std::countr_zero(n) % 2 == 1) {
        stage(re, im, n, h, wr, wi);
        h <<= 1;
    }
    for (; h < n; h <<= 2) {
        if (4 * h == n)
            stagePair<true>(re, im, n, h, wr, wi);
        else
            stagePair<false>(re, im, n, h, wr, wi);
    }
}

double
Fft::energy() const
{
    double total = 0.0;
    for (std::size_t i = 1; i < size() / 2; ++i)
        total += norm(i);
    return total;
}

std::size_t
Fft::dominantBin(std::span<const double> re, std::span<const double> im)
{
    const std::size_t half = size() / 2;
    if (re.size() != half || im.size() != half) {
        panic("Fft::dominantBin: a ", size(), "-point plan reads ", half,
              " bins, not ", re.size(), " and ", im.size());
    }
    if (half < 2)
        return 0;
    const auto bin = [&](std::size_t i) { return Complex(re[i], im[i]); };
    // Squared magnitudes cost two multiplies where std::abs costs a
    // hypot, so they screen which bins need one.
    double top = 0.0;
    bool finite = true;
    for (std::size_t i = 1; i < half; ++i) {
        norm_[i] = std::norm(bin(i));
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
            magnitude_[i] = std::abs(bin(i));
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
        magnitude_[i] = std::abs(bin(i));
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
