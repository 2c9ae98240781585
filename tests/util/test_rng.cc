/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace varsaw {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double total = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        total += rng.uniform();
    EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.5, 4.0);
        EXPECT_GE(u, -2.5);
        EXPECT_LT(u, 4.0);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(8));
    EXPECT_EQ(seen.size(), 8u);
    EXPECT_EQ(*seen.rbegin(), 7u);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(13);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments)
{
    Rng rng(17);
    const int n = 200000;
    double sum = 0.0, sumsq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sumsq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sumsq / n, 1.0, 0.02);
}

TEST(Rng, NormalShifted)
{
    Rng rng(19);
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(3.0, 0.5);
    EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, RademacherBalanced)
{
    Rng rng(23);
    int plus = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const int r = rng.rademacher();
        ASSERT_TRUE(r == 1 || r == -1);
        if (r == 1)
            ++plus;
    }
    EXPECT_NEAR(static_cast<double>(plus) / n, 0.5, 0.01);
}

TEST(Rng, DiscreteRespectsWeights)
{
    Rng rng(29);
    std::vector<double> weights = {1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.discrete(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, SplitStreamsIndependent)
{
    Rng parent(31);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (parent.next() == child.next())
            ++same;
    EXPECT_LT(same, 3);
}

// ---- binomial ----------------------------------------------------------------

/** Exact log P(B(n, p) = k). */
double
binomialLogPmf(std::uint64_t n, double p, std::uint64_t k)
{
    const double nd = static_cast<double>(n);
    const double kd = static_cast<double>(k);
    return std::lgamma(nd + 1.0) - std::lgamma(kd + 1.0) -
           std::lgamma(nd - kd + 1.0) + kd * std::log(p) +
           (nd - kd) * std::log1p(-p);
}

/** Chi-square 0.999 quantile for @p df degrees of freedom
 *  (Wilson-Hilferty). */
double
chiSquare999(int df)
{
    const double d = static_cast<double>(df);
    const double t = 2.0 / (9.0 * d);
    return d * std::pow(1.0 - t + 3.090232 * std::sqrt(t), 3.0);
}

/**
 * Draw B(n, p) @p draws times from a fixed seed and check the draws
 * against the exact distribution: every draw in [0, n], the sample
 * mean within 5 standard errors of np, the sample variance within 5
 * standard errors of npq, and a Pearson chi-square against the
 * exact pmf below its 0.999 quantile. Adjacent k are pooled until
 * each bin expects at least 5 draws.
 */
void
expectBinomial(std::uint64_t n, double p, std::uint64_t seed,
               int draws = 50000)
{
    SCOPED_TRACE("n=" + std::to_string(n) + " p=" + std::to_string(p));
    Rng rng(seed);
    std::vector<double> observed(n + 1, 0.0);
    double sum = 0.0;
    double sumsq = 0.0;
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t k = rng.binomial(n, p);
        ASSERT_LE(k, n);
        observed[k] += 1.0;
        sum += static_cast<double>(k);
        sumsq += static_cast<double>(k) * static_cast<double>(k);
    }
    const double nd = static_cast<double>(n);
    const double count = static_cast<double>(draws);
    const double var = nd * p * (1.0 - p);
    const double mu4 = var * (1.0 + 3.0 * (nd - 2.0) * p * (1.0 - p));
    const double mean = sum / count;
    const double sample_var = sumsq / count - mean * mean;
    EXPECT_NEAR(mean, nd * p, 5.0 * std::sqrt(var / count));
    EXPECT_NEAR(sample_var, var,
                5.0 * std::sqrt((mu4 - var * var) / count));

    std::vector<std::pair<double, double>> bins; // expected, observed
    double e = 0.0;
    double o = 0.0;
    for (std::uint64_t k = 0; k <= n; ++k) {
        e += count * std::exp(binomialLogPmf(n, p, k));
        o += observed[k];
        if (e >= 5.0) {
            bins.emplace_back(e, o);
            e = o = 0.0;
        }
    }
    ASSERT_GE(bins.size(), 2u);
    bins.back().first += e;
    bins.back().second += o;
    double chi = 0.0;
    for (const auto &[exp_k, obs_k] : bins)
        chi += (obs_k - exp_k) * (obs_k - exp_k) / exp_k;
    EXPECT_LT(chi, chiSquare999(static_cast<int>(bins.size()) - 1));
}

/** Mode floor((n+1) p) that picks binomial()'s method. */
std::uint64_t
binomialMode(std::uint64_t n, double p)
{
    return static_cast<std::uint64_t>((static_cast<double>(n) + 1.0) *
                                      std::min(p, 1.0 - p));
}

TEST(Rng, BinomialInversionRegime)
{
    for (const auto &[n, p] : {std::pair{20ull, 0.3},
                               std::pair{1000ull, 0.005},
                               std::pair{2048ull, 1.0 / 512}}) {
        ASSERT_LE(binomialMode(n, p), Rng::kBinomialInversionMaxMode);
        expectBinomial(n, p, 41 + n);
    }
}

TEST(Rng, BinomialBtrdRegime)
{
    for (const auto &[n, p] : {std::pair{100ull, 0.5},
                               std::pair{2048ull, 0.25},
                               std::pair{2048ull, 1.0 / 64}}) {
        ASSERT_GT(binomialMode(n, p), Rng::kBinomialInversionMaxMode);
        expectBinomial(n, p, 43 + n);
    }
}

TEST(Rng, BinomialAtSwitch)
{
    // Each pair straddles the switch: mode 10 inverts, mode 11 is
    // BTRD's smallest.
    static_assert(Rng::kBinomialInversionMaxMode == 10);
    for (const auto &[n, p] : {std::pair{20ull, 0.5},
                               std::pair{21ull, 0.5},
                               std::pair{42ull, 0.25},
                               std::pair{43ull, 0.25}}) {
        const std::uint64_t mode = binomialMode(n, p);
        ASSERT_TRUE(mode == 10 || mode == 11) << mode;
        expectBinomial(n, p, 47 + n);
    }
}

TEST(Rng, BinomialMirrorsAboveOneHalf)
{
    for (const auto &[n, p] : {std::pair{50ull, 0.9},
                               std::pair{2048ull, 0.75},
                               std::pair{65536ull, 0.9999}})
        expectBinomial(n, p, 53 + n);
}

TEST(Rng, BinomialLargeN)
{
    for (const auto &[n, p] : {std::pair{65536ull, 1e-4},
                               std::pair{65536ull, 0.37},
                               std::pair{65536ull, 0.5}})
        expectBinomial(n, p, 59 + static_cast<std::uint64_t>(p * 1e4),
                       20000);
}

TEST(Rng, BinomialSingleTrialIsBernoulli)
{
    expectBinomial(1, 0.3, 61);
    expectBinomial(1, 0.8, 62);
}

TEST(Rng, BinomialDegenerateCasesDrawNothing)
{
    Rng rng(67);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(rng.binomial(0, 0.3), 0u);
    EXPECT_EQ(rng.binomial(0, 1.0), 0u);
    EXPECT_EQ(rng.binomial(100, 0.0), 0u);
    EXPECT_EQ(rng.binomial(100, -0.5), 0u);
    EXPECT_EQ(rng.binomial(100, nan), 0u);
    EXPECT_EQ(rng.binomial(100, 1.0), 100u);
    EXPECT_EQ(rng.binomial(100, 1.5), 100u);
    EXPECT_EQ(rng.binomial(65536, 1.0), 65536u);
    // None of them consumed the generator.
    Rng fresh(67);
    EXPECT_EQ(rng.next(), fresh.next());
}

} // namespace
} // namespace varsaw
