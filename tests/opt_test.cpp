/**
 * @file
 * Optimization substrate tests: FFT correctness, the choice grid, and
 * the optimizer family (correctness on small exactly-solvable problems,
 * feasibility, and relative quality — the Fig. 3 property that SRE and
 * the Lagrangian oracle beat naive methods on large instances).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "legacy_fft.hpp"
#include "opt/fft.hpp"
#include "opt/optimizers.hpp"

using namespace codecrunch;
using namespace codecrunch::opt;

// --- FFT ----------------------------------------------------------------

namespace {

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

} // namespace

TEST(Fft, ImpulseHasFlatSpectrum)
{
    Fft fft(8);
    const auto series = fft.series();
    std::fill(series.begin(), series.end(), 0.0);
    series[0] = 1.0;
    fft.forward();
    for (std::size_t k = 0; k < fft.size() / 2; ++k)
        EXPECT_NEAR(std::abs(fft.bin(k)), 1.0, 1e-12);
}

TEST(Fft, DcSeriesConcentratesInBinZero)
{
    Fft fft(16);
    const auto series = fft.series();
    std::fill(series.begin(), series.end(), 1.0);
    fft.forward();
    EXPECT_NEAR(std::abs(fft.bin(0)), 16.0, 1e-12);
    for (std::size_t k = 1; k < fft.size() / 2; ++k)
        EXPECT_NEAR(std::abs(fft.bin(k)), 0.0, 1e-9);
    EXPECT_NEAR(fft.energy(), 0.0, 1e-18);
}

TEST(Fft, SineConcentratesInItsBin)
{
    const std::size_t n = 64;
    Fft fft(n);
    const auto series = fft.series();
    for (std::size_t i = 0; i < n; ++i)
        series[i] = std::sin(2.0 * M_PI * 4.0 * i / n);
    fft.forward();
    EXPECT_EQ(fft.dominantBin(), 4u);
}

TEST(Fft, LowerHalfMatchesDirectDft)
{
    // Every plan length, so the n < 4 stage loop, the lone stage of an
    // odd stage count and the fused pairs all run.
    Rng rng(5);
    for (std::size_t n = 1; n <= 512; n <<= 1) {
        Fft fft(n);
        const auto series = fft.series();
        for (auto& x : series)
            x = rng.uniform(-1, 1);
        fft.forward();
        for (std::size_t k = 0; k < n / 2; ++k) {
            Complex direct(0.0, 0.0);
            for (std::size_t t = 0; t < n; ++t) {
                const double angle =
                    -2.0 * M_PI * static_cast<double>(k * t % n) /
                    static_cast<double>(n);
                direct += series[t] * Complex(std::cos(angle),
                                              std::sin(angle));
            }
            EXPECT_NEAR(fft.bin(k).real(), direct.real(), 1e-9)
                << "n " << n << " bin " << k;
            EXPECT_NEAR(fft.bin(k).imag(), direct.imag(), 1e-9)
                << "n " << n << " bin " << k;
        }
    }
}

TEST(Fft, ParsevalHolds)
{
    // On the lower half of a real series' spectrum: bins 1 ... n/2-1
    // stand for their mirror images too, and the Nyquist bin n/2 is
    // the alternating sum of the series.
    Rng rng(6);
    const std::size_t n = 64;
    Fft fft(n);
    const auto series = fft.series();
    double timeEnergy = 0.0;
    double nyquist = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        series[i] = rng.uniform(-1, 1);
        timeEnergy += series[i] * series[i];
        nyquist += i % 2 == 0 ? series[i] : -series[i];
    }
    fft.forward();
    const double freqEnergy =
        fft.norm(0) + 2.0 * fft.energy() + nyquist * nyquist;
    EXPECT_NEAR(freqEnergy, timeEnergy * static_cast<double>(n), 1e-6);
}

TEST(Fft, PlanZeroPadsToNextPow2)
{
    // A 10-sample series runs in a 16-point plan, zero-padded.
    Fft fft(Fft::nextPow2(10));
    const auto series = fft.series();
    EXPECT_EQ(series.size(), 16u);
    std::fill(series.begin(), series.end(), 0.0);
    std::fill(series.begin(), series.begin() + 10, 1.0);
    fft.forward();
    EXPECT_NEAR(fft.bin(0).real(), 10.0, 1e-12);
}

TEST(Fft, NextPow2)
{
    EXPECT_EQ(Fft::nextPow2(0), 1u);
    EXPECT_EQ(Fft::nextPow2(1), 1u);
    EXPECT_EQ(Fft::nextPow2(2), 2u);
    EXPECT_EQ(Fft::nextPow2(3), 4u);
    EXPECT_EQ(Fft::nextPow2(1025), 2048u);
}

TEST(Fft, NonPow2Panics)
{
    EXPECT_DEATH({ Fft fft(12); }, "power of two");
}

TEST(Fft, NoDominantBinBelowFourPoints)
{
    Fft fft(2);
    fft.series()[0] = 1.0;
    fft.series()[1] = 3.0;
    fft.forward();
    EXPECT_EQ(fft.dominantBin(), 0u);
}

TEST(Fft, SuppliedSpectrumMustBeTheLowerHalf)
{
    Fft fft(16);
    const std::vector<double> parts(16, 1.0);
    EXPECT_DEATH(fft.dominantBin(parts, parts), "8 bins, not 16");
}

TEST(LegacyFft, ForwardInverseRoundTrip)
{
    // The plan has no inverse; this keeps the oracle the plan is
    // checked against an honest DFT.
    Rng rng(5);
    std::vector<Complex> data(32);
    for (auto& x : data)
        x = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const std::vector<Complex> original = data;
    legacy::transform(data, false);
    legacy::transform(data, true);
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_NEAR(data[i].real(), original[i].real(), 1e-9);
        EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-9);
    }
}

// --- FFT plan vs the legacy allocating FFT ---------------------------------

namespace {

constexpr std::size_t kSeriesLength = 256;

enum class SeriesKind {
    SparsePoisson,
    Bursts,
    Periodic,
    SingleSpike,
    TwoEqualSpikes,
    /**
     * A short trace seen during its drain: up to 36 busy minutes that
     * end within the window's last two hours.
     */
    LateStretch,
    Flat, // all-zero or constant
    Count
};

/** One seeded per-minute invocation-count series of `kind`. */
std::vector<double>
countSeries(Rng& rng, SeriesKind kind)
{
    const std::size_t n = kSeriesLength;
    std::vector<double> series(n, 0.0);
    const auto at = [&] { return static_cast<std::size_t>(rng.next() % n); };
    switch (kind) {
    case SeriesKind::SparsePoisson: {
        const double perMinute = rng.uniform(0.005, 0.5);
        for (double t = rng.exponential(perMinute);
             t < static_cast<double>(n); t += rng.exponential(perMinute))
            series[static_cast<std::size_t>(t)] += 1.0;
        break;
    }
    case SeriesKind::Bursts: {
        const auto bursts = rng.uniformInt(1, 4);
        for (std::int64_t b = 0; b < bursts; ++b) {
            const std::size_t start = at();
            const auto length = static_cast<std::size_t>(
                rng.uniformInt(1, 20));
            const auto height = static_cast<double>(rng.uniformInt(1, 50));
            for (std::size_t i = start; i < std::min(start + length, n);
                 ++i)
                series[i] += height;
        }
        break;
    }
    case SeriesKind::Periodic: {
        static constexpr std::size_t kPeriods[] = {
            2, 3, 4, 5, 7, 8, 10, 12, 15, 16, 30, 32, 60, 64, 100, 128};
        const std::size_t period =
            kPeriods[rng.next() % std::size(kPeriods)];
        const auto count = static_cast<double>(rng.uniformInt(1, 5));
        // Half the series miss some of their beats, as real ones do.
        const double miss = rng.bernoulli(0.5) ? 0.0 : 0.1;
        for (std::size_t i = rng.next() % period; i < n; i += period) {
            if (!rng.bernoulli(miss))
                series[i] = count;
        }
        break;
    }
    case SeriesKind::SingleSpike:
        series[at()] = static_cast<double>(rng.uniformInt(1, 100));
        break;
    case SeriesKind::TwoEqualSpikes: {
        const auto height = static_cast<double>(rng.uniformInt(1, 100));
        series[at()] = height;
        series[at()] = height;
        break;
    }
    case SeriesKind::LateStretch: {
        const auto length = static_cast<double>(rng.uniformInt(2, 36));
        const auto end = static_cast<double>(n) -
                         static_cast<double>(rng.uniformInt(0, 120));
        const double perMinute = rng.uniform(0.2, 4.0);
        for (double t = rng.exponential(perMinute); t < length;
             t += rng.exponential(perMinute))
            series[static_cast<std::size_t>(end - length + t)] += 1.0;
        break;
    }
    default:
        std::fill(series.begin(), series.end(),
                  static_cast<double>(rng.uniformInt(0, 3)));
        break;
    }
    return series;
}

/**
 * Index of the first of bins [0, n/2) whose bits differ between the
 * plan and the legacy spectrum, or n/2 if none.
 */
std::size_t
firstBitMismatch(const Fft& fft, const std::vector<Complex>& expected)
{
    for (std::size_t k = 0; k < fft.size() / 2; ++k) {
        if (bits(fft.bin(k).real()) != bits(expected[k].real()) ||
            bits(fft.bin(k).imag()) != bits(expected[k].imag()))
            return k;
    }
    return fft.size() / 2;
}

} // namespace

TEST(FftDifferential, PlanMatchesLegacyBitForBit)
{
    constexpr std::size_t kSeries = 100000;
    const auto kinds = static_cast<std::size_t>(SeriesKind::Count);
    Rng rng(2024);
    Fft fft(kSeriesLength);
    std::size_t ties = 0;
    std::size_t tiesPastLowest = 0;
    std::size_t confidences = 0;
    for (std::size_t s = 0; s < kSeries; ++s) {
        const auto kind = static_cast<SeriesKind>(s % kinds);
        const auto series = countSeries(rng, kind);
        const auto expected = legacy::forwardReal(series);
        std::copy(series.begin(), series.end(), fft.series().begin());
        fft.forward();
        const std::size_t mismatch = firstBitMismatch(fft, expected);
        ASSERT_EQ(mismatch, kSeriesLength / 2)
            << "series " << s << " (kind " << static_cast<int>(kind)
            << ") differs at bin " << mismatch;

        const std::size_t legacyBin = legacy::dominantBins(expected, 3)[0];
        ASSERT_EQ(fft.dominantBin(), legacyBin)
            << "series " << s << " (kind " << static_cast<int>(kind)
            << ")";

        const auto confidence = legacy::confidence(expected, legacyBin);
        if (confidence) {
            ASSERT_EQ(bits(fft.norm(legacyBin) / fft.energy()),
                      bits(*confidence))
                << "series " << s << " (kind " << static_cast<int>(kind)
                << ")";
            ++confidences;
        } else {
            ASSERT_LE(fft.energy(), 0.0) << "series " << s;
        }

        // An exact tie at the top sends dominantBin() to its sort.
        double top = -1.0;
        std::size_t lowestTop = 0, atTop = 0;
        for (std::size_t i = 1; i < kSeriesLength / 2; ++i) {
            const double magnitude = std::abs(expected[i]);
            if (magnitude > top) {
                top = magnitude;
                lowestTop = i;
                atTop = 1;
            } else if (magnitude == top) {
                ++atTop;
            }
        }
        if (atTop > 1) {
            ++ties;
            tiesPastLowest += legacyBin != lowestTop;
        }
    }
    EXPECT_GT(ties, 0u);
    // The sort's pick is not simply the lowest tied bin, so the
    // fallback cannot be replaced by a plain argmax.
    EXPECT_GT(tiesPastLowest, 0u);
    EXPECT_GT(confidences, kSeries / 2);
}

// --- the dominant bin's norm screen on crafted spectra -----------------------

namespace {

enum class SpectrumKind {
    /** A few top bins built from one (a, b) pair over smaller noise. */
    NearTies,
    Zero,
    /** Near ties around and below the screen's 2^-900 norm cutoff. */
    Tiny,
    /** Near ties plus bins holding ±inf or NaN. */
    NonFinite,
    Count
};

/** A bin whose std::abs equals, or is a few ulp from, hypot(a, b). */
Complex
nearTieOf(Rng& rng, double a, double b)
{
    double x = a, y = b;
    switch (rng.next() % 4) {
    case 0: // swapped components: an exact std::abs tie
        std::swap(x, y);
        break;
    case 1: { // one component moved by 1-4 ulp
        double& part = rng.bernoulli(0.5) ? x : y;
        const double toward = rng.bernoulli(0.5) ? 0.0 : HUGE_VAL;
        for (auto step = rng.uniformInt(1, 4); step > 0; --step)
            part = std::nextafter(part, toward);
        break;
    }
    case 2: { // the same radius at another angle
        const double radius = std::hypot(a, b);
        const double angle = rng.uniform(0.0, 2.0 * M_PI);
        x = radius * std::cos(angle);
        y = radius * std::sin(angle);
        break;
    }
    default: // the pair itself
        break;
    }
    return {rng.bernoulli(0.5) ? -x : x, rng.bernoulli(0.5) ? -y : y};
}

/** One seeded length-kSeriesLength spectrum of `kind`. */
std::vector<Complex>
craftedSpectrum(Rng& rng, SpectrumKind kind)
{
    std::vector<Complex> spectrum(kSeriesLength);
    if (kind == SpectrumKind::Zero)
        return spectrum;
    // Norms overflow above 2^512; the screen is off below 2^-450.
    const double scale = std::ldexp(
        1.0, static_cast<int>(kind == SpectrumKind::Tiny
                                  ? rng.uniformInt(-1070, -440)
                                  : rng.uniformInt(-440, 520)));
    for (auto& bin : spectrum)
        bin = {scale * rng.uniform(-0.5, 0.5),
               scale * rng.uniform(-0.5, 0.5)};
    const auto anyBin = [&] {
        return 1 + static_cast<std::size_t>(rng.next() %
                                            (kSeriesLength / 2 - 1));
    };
    const double a = scale * rng.uniform(1.0, 2.0);
    const double b = scale * rng.uniform(0.0, 1.0);
    for (auto top = rng.uniformInt(2, 6); top > 0; --top)
        spectrum[anyBin()] = nearTieOf(rng, a, b);
    if (kind == SpectrumKind::NonFinite) {
        constexpr double kParts[] = {
            HUGE_VAL, -HUGE_VAL, std::numeric_limits<double>::quiet_NaN()};
        for (auto bins = rng.uniformInt(1, 3); bins > 0; --bins) {
            const double part = kParts[rng.next() % std::size(kParts)];
            spectrum[anyBin()] =
                rng.bernoulli(0.5) ? Complex(part, b) : Complex(a, part);
        }
    }
    return spectrum;
}

} // namespace

TEST(FftDifferential, DominantBinMatchesLegacyOnNearTies)
{
    constexpr std::size_t kSpectra = 8000;
    const auto kinds = static_cast<std::size_t>(SpectrumKind::Count);
    Rng rng(2026);
    Fft fft(kSeriesLength);
    std::size_t exactTies = 0;
    std::size_t normInversions = 0;
    for (std::size_t s = 0; s < kSpectra; ++s) {
        const auto kind = static_cast<SpectrumKind>(s % kinds);
        const auto spectrum = craftedSpectrum(rng, kind);
        std::vector<double> re, im;
        for (std::size_t k = 0; k < kSeriesLength / 2; ++k) {
            re.push_back(spectrum[k].real());
            im.push_back(spectrum[k].imag());
        }
        ASSERT_EQ(fft.dominantBin(re, im),
                  legacy::dominantBins(spectrum, 3)[0])
            << "spectrum " << s << " (kind " << static_cast<int>(kind)
            << ")";

        // What the screen is up against: bins tied at the top, and a
        // largest norm that is not the largest std::abs.
        double top = -1.0, topNorm = -1.0;
        std::size_t atTop = 0, largestNorm = 0;
        for (std::size_t i = 1; i < kSeriesLength / 2; ++i) {
            const double magnitude = std::abs(spectrum[i]);
            if (magnitude > top) {
                top = magnitude;
                atTop = 1;
            } else if (magnitude == top) {
                ++atTop;
            }
            if (std::norm(spectrum[i]) > topNorm) {
                topNorm = std::norm(spectrum[i]);
                largestNorm = i;
            }
        }
        exactTies += atTop > 1;
        normInversions += std::abs(spectrum[largestNorm]) < top;
    }
    EXPECT_GT(exactTies, 0u);
    EXPECT_GT(normInversions, 0u);
}

// --- choice grid -----------------------------------------------------------

TEST(ChoiceGrid, LevelsCoverPlatformRange)
{
    const auto& levels = keepAliveLevels();
    EXPECT_DOUBLE_EQ(levels.front(), 0.0);
    EXPECT_DOUBLE_EQ(levels.back(), 3600.0);
    EXPECT_TRUE(std::is_sorted(levels.begin(), levels.end()));
    EXPECT_EQ(choicesPerFunction(), 2 * 2 * 2 * levels.size());
}

// --- a synthetic separable objective ------------------------------------------

namespace {

/**
 * Synthetic interval-like objective: each function has a best
 * keep-alive level, a preferred architecture, and a compression bonus;
 * cost grows with the keep-alive level.
 */
class SyntheticObjective : public SeparableObjective
{
  public:
    SyntheticObjective(std::size_t n, double budget,
                       std::uint64_t seed = 1)
        : budget_(budget)
    {
        Rng rng(seed);
        for (std::size_t i = 0; i < n; ++i) {
            Spec spec;
            spec.bestLevel = static_cast<int>(
                rng.next() % keepAliveLevels().size());
            spec.arm = rng.bernoulli(0.4);
            spec.compressGood = rng.bernoulli(0.4);
            spec.memory = rng.uniform(100.0, 2000.0);
            spec.coldPenalty = rng.uniform(1.0, 10.0);
            specs_.push_back(spec);
        }
    }

    std::size_t size() const override { return specs_.size(); }
    double budget() const override { return budget_; }

    std::pair<double, double>
    term(std::size_t i, const Choice& c) const override
    {
        const Spec& spec = specs_[i];
        double service = 1.0;
        service += 0.2 * std::abs(c.keepAliveLevel - spec.bestLevel) *
                   spec.coldPenalty / 10.0;
        const bool wantArm = spec.arm;
        if ((c.arch == NodeType::ARM) != wantArm)
            service += 0.5;
        if (c.compress != spec.compressGood)
            service += 0.3;
        const double cost = keepAliveLevels()[static_cast<std::size_t>(
                                c.keepAliveLevel)] *
                            spec.memory * 1e-7;
        return {service, cost};
    }

  private:
    struct Spec {
        int bestLevel = 0;
        bool arm = false;
        bool compressGood = false;
        double memory = 100;
        double coldPenalty = 1;
    };

    std::vector<Spec> specs_;
    double budget_;
};

/** Counts termRow() calls per function. */
class RowCountingObjective : public SyntheticObjective
{
  public:
    RowCountingObjective(std::size_t n, double budget)
        : SyntheticObjective(n, budget), rowFills(n, 0)
    {
    }

    void
    termRow(std::size_t i, std::pair<double, double>* out) const override
    {
        ++rowFills[i];
        SyntheticObjective::termRow(i, out);
    }

    mutable std::vector<std::uint32_t> rowFills;
};

double
scoreOf(const SeparableObjective& objective, const Assignment& a)
{
    return objective.score(a);
}

} // namespace

TEST(SeparableObjective, EvaluateIsMeanOfTerms)
{
    SyntheticObjective objective(4, 100.0);
    Assignment a(4, Choice{});
    double total = 0.0;
    for (std::size_t i = 0; i < 4; ++i)
        total += objective.term(i, a[i]).first;
    EXPECT_NEAR(objective.evaluate(a), total / 4.0, 1e-12);
}

TEST(Optimizers, BruteForceFindsExactOptimumUnconstrained)
{
    SyntheticObjective objective(3, 1e9);
    Rng rng(1);
    BruteForce brute;
    const auto exact =
        brute.optimize(objective, Assignment(3, Choice{}), rng);
    // Coordinate descent must match on this separable unconstrained
    // problem (each coordinate is independent).
    CoordinateDescent descent;
    const auto cd =
        descent.optimize(objective, Assignment(3, Choice{}), rng);
    EXPECT_NEAR(cd.score, exact.score, 1e-9);
}

TEST(Optimizers, BruteForceRespectsBudget)
{
    SyntheticObjective objective(3, 0.05);
    Rng rng(1);
    BruteForce brute;
    const auto result =
        brute.optimize(objective, Assignment(3, Choice{}), rng);
    EXPECT_LE(objective.cost(result.assignment),
              objective.budget() + 1e-9);
}

TEST(Optimizers, BruteForcePanicsOnLargeProblems)
{
    SyntheticObjective objective(10, 1.0);
    Rng rng(1);
    BruteForce brute;
    EXPECT_DEATH(
        brute.optimize(objective, Assignment(10, Choice{}), rng),
        "exceeds");
}

TEST(Optimizers, LagrangianMatchesBruteForceOnSmallProblems)
{
    for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
        SyntheticObjective objective(3, 0.2, seed);
        Rng rng(seed);
        BruteForce brute;
        LagrangianOracle oracle;
        const Assignment start(3, Choice{});
        const auto exact = brute.optimize(objective, start, rng);
        const auto dual = oracle.optimize(objective, start, rng);
        // Duality gap: the Lagrangian solution is feasible and within
        // a small factor of the exact optimum.
        EXPECT_LE(objective.cost(dual.assignment),
                  objective.budget() + 1e-9);
        EXPECT_LE(dual.score, exact.score * 1.15 + 1e-9);
    }
}

TEST(Optimizers, DescentNeverWorsensTheStart)
{
    SyntheticObjective objective(20, 0.5);
    Rng rng(3);
    const Assignment start = randomAssignment(20, rng);
    CoordinateDescent descent;
    const auto result = descent.optimize(objective, start, rng);
    EXPECT_LE(result.score, scoreOf(objective, start) + 1e-9);
}

TEST(Optimizers, SreNeverWorsensTheStart)
{
    SyntheticObjective objective(60, 0.5);
    Rng rng(4);
    const Assignment start = randomAssignment(60, rng);
    SreOptimizer sre;
    const auto result = sre.optimize(objective, start, rng);
    EXPECT_LE(result.score, scoreOf(objective, start) + 1e-9);
}

TEST(Optimizers, SreBeatsRandomSearchPerEvaluation)
{
    SyntheticObjective objective(80, 0.4, 7);
    Rng rngA(5), rngB(5);
    SreOptimizer sre;
    const Assignment start(80, Choice{});
    const auto sreResult = sre.optimize(objective, start, rngA);
    RandomSearch random(40); // similar evaluation budget
    const auto randomResult = random.optimize(objective, start, rngB);
    EXPECT_LT(sreResult.score, randomResult.score);
}

TEST(Optimizers, SreCountsIncreaseFairly)
{
    SyntheticObjective objective(40, 1e9);
    Rng rng(6);
    SreOptimizer::Config config;
    config.coveragePerRound = 0.5;
    config.rounds = 4;
    SreOptimizer sre(config);
    std::vector<std::uint32_t> counts(40, 0);
    sre.optimizeWithCounts(objective, Assignment(40, Choice{}), rng,
                           counts);
    std::uint32_t total = 0;
    for (auto c : counts)
        total += c;
    EXPECT_GT(total, 0u);
    // Previously optimized functions are deprioritized: seed half the
    // counts high and verify the unseeded half gets picked more.
    std::vector<std::uint32_t> biased(40, 0);
    for (std::size_t i = 0; i < 20; ++i)
        biased[i] = 1000;
    Rng rng2(6);
    sre.optimizeWithCounts(objective, Assignment(40, Choice{}), rng2,
                           biased);
    std::uint32_t pickedHigh = 0, pickedLow = 0;
    for (std::size_t i = 0; i < 20; ++i)
        pickedHigh += biased[i] - 1000;
    for (std::size_t i = 20; i < 40; ++i)
        pickedLow += biased[i];
    EXPECT_GT(pickedLow, pickedHigh);
}

TEST(Optimizers, SreFillsEachRowOnce)
{
    // Two rounds over half of the functions each: some functions are
    // sampled in both rounds and some in neither. Every sampled
    // function is probed, and no other function is.
    RowCountingObjective objective(40, 0.5);
    SreOptimizer::Config config;
    config.coveragePerRound = 0.5;
    SreOptimizer sre(config);
    std::vector<std::uint32_t> counts(40, 0);
    Rng rng(21);
    sre.optimizeWithCounts(objective, Assignment(40, Choice{}), rng,
                           counts);
    std::size_t twice = 0, never = 0;
    for (std::size_t i = 0; i < 40; ++i) {
        EXPECT_EQ(objective.rowFills[i], counts[i] > 0 ? 1u : 0u)
            << "function " << i << " sampled " << counts[i] << "x";
        twice += counts[i] == 2;
        never += counts[i] == 0;
    }
    EXPECT_GT(twice, 0u);
    EXPECT_GT(never, 0u);

    // Whole-space descent probes every function; each row is still
    // filled once per optimize() call.
    RowCountingObjective all(12, 0.5);
    CoordinateDescent descent(3);
    descent.optimize(all, Assignment(12, Choice{}), rng);
    for (std::size_t i = 0; i < 12; ++i)
        EXPECT_EQ(all.rowFills[i], 1u) << "function " << i;
    descent.optimize(all, Assignment(12, Choice{}), rng);
    for (std::size_t i = 0; i < 12; ++i)
        EXPECT_EQ(all.rowFills[i], 2u) << "function " << i;
}

TEST(Optimizers, NewtonImprovesFromRandomStart)
{
    SyntheticObjective objective(30, 1e9, 8);
    Rng rng(8);
    const Assignment start = randomAssignment(30, rng);
    NewtonLike newton;
    const auto result = newton.optimize(objective, start, rng);
    EXPECT_LE(result.score, scoreOf(objective, start) + 1e-9);
}

TEST(Optimizers, AnnealingImprovesFromRandomStart)
{
    SyntheticObjective objective(30, 1e9, 14);
    Rng rng(14);
    const Assignment start = randomAssignment(30, rng);
    SimulatedAnnealing annealing;
    const auto result = annealing.optimize(objective, start, rng);
    EXPECT_LE(result.score, scoreOf(objective, start) + 1e-9);
}

TEST(Optimizers, AnnealingHandlesEmptyProblem)
{
    SyntheticObjective objective(0, 1.0);
    Rng rng(1);
    SimulatedAnnealing annealing;
    const auto result = annealing.optimize(objective, Assignment{}, rng);
    EXPECT_TRUE(result.assignment.empty());
}

TEST(Optimizers, GeneticImprovesFromRandomStart)
{
    SyntheticObjective objective(30, 1e9, 9);
    Rng rng(9);
    const Assignment start = randomAssignment(30, rng);
    Genetic genetic(16, 15);
    const auto result = genetic.optimize(objective, start, rng);
    EXPECT_LE(result.score, scoreOf(objective, start) + 1e-9);
}

TEST(Optimizers, Fig3OrderingOnLargeConstrainedProblem)
{
    // The paper's Fig. 3(b): on the large discrete constrained space,
    // the oracle beats descent/Newton/genetic; SRE closes most of the
    // gap at a fraction of the evaluations.
    SyntheticObjective objective(150, 0.6, 10);
    const Assignment start(150, Choice{});

    Rng rng(10);
    LagrangianOracle oracle;
    const auto best = oracle.optimize(objective, start, rng);

    NewtonLike newton;
    const auto newtonResult = newton.optimize(objective, start, rng);
    Genetic genetic(20, 25);
    const auto geneticResult = genetic.optimize(objective, start, rng);
    SreOptimizer sre;
    const auto sreResult = sre.optimize(objective, start, rng);

    EXPECT_LE(best.score, newtonResult.score + 1e-9);
    EXPECT_LE(best.score, geneticResult.score + 1e-9);
    EXPECT_LE(best.score, sreResult.score + 1e-9);
    EXPECT_LT(sreResult.score, geneticResult.score);
}

TEST(Optimizers, SreImprovesFromRandomStart)
{
    SyntheticObjective objective(120, 0.5, 12);
    Rng rng(12);
    const Assignment start = randomAssignment(120, rng);
    SreOptimizer sre;
    const auto result = sre.optimize(objective, start, rng);
    EXPECT_LT(result.score, objective.score(start));
}

TEST(Optimizers, EmptyProblemIsHandled)
{
    SyntheticObjective objective(0, 1.0);
    Rng rng(1);
    SreOptimizer sre;
    const auto result =
        sre.optimize(objective, Assignment{}, rng);
    EXPECT_TRUE(result.assignment.empty());
    CoordinateDescent descent;
    const auto cd = descent.optimize(objective, Assignment{}, rng);
    EXPECT_TRUE(cd.assignment.empty());
}

TEST(Optimizers, RandomAssignmentIsInGrid)
{
    Rng rng(2);
    const auto assignment = randomAssignment(100, rng);
    for (const auto& choice : assignment) {
        EXPECT_GE(choice.keepAliveLevel, 0);
        EXPECT_LT(static_cast<std::size_t>(choice.keepAliveLevel),
                  keepAliveLevels().size());
    }
}
