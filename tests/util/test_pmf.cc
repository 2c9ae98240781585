/**
 * @file
 * Unit and property tests for probability mass functions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/counts.hh"
#include "util/pmf.hh"
#include "util/rng.hh"

namespace varsaw {
namespace {

Pmf
makeBell()
{
    // 2-qubit Bell-like distribution: 00 and 11 equally likely.
    Pmf pmf(2);
    pmf.set(0b00, 0.5);
    pmf.set(0b11, 0.5);
    return pmf;
}

TEST(Pmf, FromDenseAndBack)
{
    const std::vector<double> dense = {0.1, 0.2, 0.3, 0.4};
    Pmf pmf = Pmf::fromDense(2, dense);
    EXPECT_EQ(pmf.supportSize(), 4u);
    const auto round = pmf.toDense();
    for (int i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(round[i], dense[i]);
}

TEST(Pmf, FromDensePrunesSmallEntries)
{
    const std::vector<double> dense = {0.5, 1e-16, 0.5, 0.0};
    Pmf pmf = Pmf::fromDense(2, dense, 1e-14);
    EXPECT_EQ(pmf.supportSize(), 2u);
    EXPECT_EQ(pmf.prob(1), 0.0);
}

TEST(Pmf, NormalizeMakesMassOne)
{
    Pmf pmf(2);
    pmf.set(0, 2.0);
    pmf.set(3, 6.0);
    pmf.normalize();
    EXPECT_NEAR(pmf.totalMass(), 1.0, 1e-12);
    EXPECT_NEAR(pmf.prob(0), 0.25, 1e-12);
    EXPECT_NEAR(pmf.prob(3), 0.75, 1e-12);
}

TEST(Pmf, NormalizeEmptyIsNoop)
{
    Pmf pmf(3);
    pmf.normalize();
    EXPECT_EQ(pmf.totalMass(), 0.0);
}

TEST(Pmf, MarginalOfBellIsUniformPerQubit)
{
    Pmf bell = makeBell();
    for (int q = 0; q < 2; ++q) {
        Pmf marg = bell.marginal({q});
        EXPECT_NEAR(marg.prob(0), 0.5, 1e-12);
        EXPECT_NEAR(marg.prob(1), 0.5, 1e-12);
    }
}

TEST(Pmf, MarginalReordersBits)
{
    Pmf pmf(2);
    pmf.set(0b01, 1.0); // qubit0=1, qubit1=0
    Pmf marg = pmf.marginal({1, 0});
    // marginal bit0 = original qubit1 (0), bit1 = original qubit0 (1).
    EXPECT_NEAR(marg.prob(0b10), 1.0, 1e-12);
}

TEST(Pmf, MarginalPreservesMass)
{
    Rng rng(5);
    Pmf pmf(4);
    for (int i = 0; i < 16; ++i)
        pmf.set(i, rng.uniform());
    pmf.normalize();
    Pmf marg = pmf.marginal({0, 2});
    EXPECT_NEAR(marg.totalMass(), 1.0, 1e-12);
}

TEST(Pmf, ExpectationParityBell)
{
    Pmf bell = makeBell();
    // <Z0 Z1> = +1 on the Bell distribution; <Z0> = 0.
    EXPECT_NEAR(bell.expectationParity(0b11), 1.0, 1e-12);
    EXPECT_NEAR(bell.expectationParity(0b01), 0.0, 1e-12);
    EXPECT_NEAR(bell.expectationParity(0b00), 1.0, 1e-12);
}

TEST(Pmf, ExpectationParityBounds)
{
    Rng rng(6);
    Pmf pmf(5);
    for (int i = 0; i < 32; ++i)
        pmf.set(i, rng.uniform());
    pmf.normalize();
    for (std::uint64_t mask = 0; mask < 32; ++mask) {
        const double e = pmf.expectationParity(mask);
        EXPECT_LE(e, 1.0 + 1e-12);
        EXPECT_GE(e, -1.0 - 1e-12);
    }
}

TEST(Pmf, SampleMatchesDistribution)
{
    Pmf pmf(2);
    pmf.set(0, 0.7);
    pmf.set(3, 0.3);
    Rng rng(8);
    Counts counts = pmf.sample(rng, 100000);
    EXPECT_EQ(counts.totalShots(), 100000u);
    EXPECT_NEAR(static_cast<double>(counts.count(0)) / 100000.0, 0.7,
                0.01);
    EXPECT_NEAR(static_cast<double>(counts.count(3)) / 100000.0, 0.3,
                0.01);
    EXPECT_EQ(counts.count(1), 0u);
}

TEST(Pmf, ArgmaxFindsMode)
{
    Pmf pmf(3);
    pmf.set(2, 0.2);
    pmf.set(5, 0.5);
    pmf.set(7, 0.3);
    EXPECT_EQ(pmf.argmax(), 5u);
}

TEST(Pmf, TvDistanceIdentity)
{
    Pmf bell = makeBell();
    EXPECT_NEAR(Pmf::tvDistance(bell, bell), 0.0, 1e-12);
}

TEST(Pmf, TvDistanceDisjoint)
{
    Pmf a(1), b(1);
    a.set(0, 1.0);
    b.set(1, 1.0);
    EXPECT_NEAR(Pmf::tvDistance(a, b), 1.0, 1e-12);
}

TEST(Pmf, TvDistanceSymmetric)
{
    Rng rng(12);
    Pmf a(3), b(3);
    for (int i = 0; i < 8; ++i) {
        a.set(i, rng.uniform());
        b.set(i, rng.uniform());
    }
    a.normalize();
    b.normalize();
    EXPECT_NEAR(Pmf::tvDistance(a, b), Pmf::tvDistance(b, a), 1e-12);
}

TEST(Pmf, FidelityIdentityIsOne)
{
    Pmf bell = makeBell();
    EXPECT_NEAR(Pmf::fidelity(bell, bell), 1.0, 1e-12);
}

TEST(Pmf, FidelityDisjointIsZero)
{
    Pmf a(1), b(1);
    a.set(0, 1.0);
    b.set(1, 1.0);
    EXPECT_NEAR(Pmf::fidelity(a, b), 0.0, 1e-12);
}

TEST(Pmf, HellingerBetweenZeroAndOne)
{
    Rng rng(14);
    Pmf a(3), b(3);
    for (int i = 0; i < 8; ++i) {
        a.set(i, rng.uniform());
        b.set(i, rng.uniform());
    }
    a.normalize();
    b.normalize();
    const double h = Pmf::hellingerDistance(a, b);
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0);
}

/** Property sweep: marginal consistency for random PMFs. */
class PmfMarginalProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(PmfMarginalProperty, MarginalOfMarginalIsDirectMarginal)
{
    Rng rng(1000 + GetParam());
    Pmf pmf(4);
    for (int i = 0; i < 16; ++i)
        pmf.set(i, rng.uniform());
    pmf.normalize();

    // Marginalizing {0,1,2} then {0,2} (relative) equals {0,2} direct.
    Pmf two_step = pmf.marginal({0, 1, 2}).marginal({0, 2});
    Pmf direct = pmf.marginal({0, 2});
    EXPECT_LT(Pmf::tvDistance(two_step, direct), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, PmfMarginalProperty,
                         ::testing::Range(0, 10));

// ---- content determinism ----------------------------------------------------

/**
 * Reference content: 48 of the 64 outcomes on 6 bits (every x with
 * x % 4 != 3), count n(x) out of 1024 shots, so every probability
 * n/1024 and every split of it below is exact.
 */
constexpr int kRefBits = 6;
constexpr double kRefShots = 1024.0;

std::vector<std::uint64_t>
refOutcomes()
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t x = 0; x < 64; ++x)
        if (x % 4 != 3)
            out.push_back(x);
    return out;
}

std::uint64_t
refCount(std::uint64_t x)
{
    // The other 47 outcomes hold 655 shots; x = 0 takes the rest.
    return x == 0 ? 369 : 8 + x % 13;
}

/** Outcome order used to write the variants: a fixed shuffle. */
std::vector<std::uint64_t>
shuffledOutcomes()
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t i = 0; i < 64; ++i) {
        const std::uint64_t x = (i * 37 + 11) % 64;
        if (x % 4 != 3)
            out.push_back(x);
    }
    return out;
}

TEST(PmfContent, EqualContentGivesIdenticalResults)
{
    Pmf sorted(kRefBits);
    for (std::uint64_t x : refOutcomes())
        sorted.set(x, static_cast<double>(refCount(x)) / kRefShots);
    ASSERT_EQ(sorted.totalMass(), 1.0);

    Pmf shuffled(kRefBits);
    for (std::uint64_t x : shuffledOutcomes())
        shuffled.set(x, static_cast<double>(refCount(x)) / kRefShots);

    // Each probability written as two exact halves, in two sweeps.
    Pmf split(kRefBits);
    for (std::uint64_t x : shuffledOutcomes())
        split.accumulate(x, static_cast<double>(refCount(x) / 2) /
                                kRefShots);
    for (std::uint64_t x : refOutcomes())
        split.accumulate(x, static_cast<double>(refCount(x) -
                                                refCount(x) / 2) /
                                kRefShots);

    // Marginals of 8-bit PMFs: the reference bits sit at 0..5 and
    // bits 6, 7 carry the rest. With both halves present (96
    // entries, at least 2^6: the scratch-array path) the marginal
    // sums pairs; with one entry per outcome (48 entries, fewer than
    // 2^6: the sort path) it only regroups.
    const std::vector<int> low = {0, 1, 2, 3, 4, 5};
    Pmf wide_pairs(8);
    Pmf wide_single(8);
    for (std::uint64_t x : shuffledOutcomes()) {
        const double half = static_cast<double>(refCount(x) / 2);
        const double rest = static_cast<double>(refCount(x)) - half;
        wide_pairs.set(x | (1u << 7), rest / kRefShots);
        wide_pairs.set(x | (1u << 6), half / kRefShots);
        wide_single.set(x | ((x % 3) << 6),
                        static_cast<double>(refCount(x)) / kRefShots);
    }

    Counts counts(kRefBits);
    for (std::uint64_t x : shuffledOutcomes())
        counts.add(x, refCount(x));

    const std::vector<Pmf> variants = {
        shuffled, split, wide_pairs.marginal(low),
        wide_single.marginal(low), counts.toPmf()};
    // 4096 shots take the binomial branch, 48 c - 1 the alias one.
    const std::vector<std::uint64_t> shots = {
        4096, Pmf::kBinomialShotsPerEntry * 48 - 1};
    ASSERT_GE(shots[0], Pmf::kBinomialShotsPerEntry * 48);
    std::vector<Counts> ref_draws;
    for (const std::uint64_t n : shots) {
        Rng ref_rng(99);
        ref_draws.push_back(sorted.sample(ref_rng, n));
    }
    for (std::size_t v = 0; v < variants.size(); ++v) {
        SCOPED_TRACE("variant " + std::to_string(v));
        const Pmf &pmf = variants[v];
        ASSERT_EQ(pmf.raw(), sorted.raw());
        EXPECT_TRUE(std::ranges::is_sorted(pmf.raw()));
        EXPECT_EQ(pmf.totalMass(), sorted.totalMass());
        for (std::uint64_t mask = 0; mask < 64; ++mask)
            EXPECT_EQ(pmf.expectationParity(mask),
                      sorted.expectationParity(mask));
        for (std::size_t i = 0; i < shots.size(); ++i) {
            Rng rng(99);
            const Counts draw = pmf.sample(rng, shots[i]);
            EXPECT_EQ(draw.raw(), ref_draws[i].raw());
            EXPECT_EQ(draw.totalShots(), shots[i]);
        }
    }
}

TEST(PmfContent, ArgmaxTieReturnsSmallestOutcome)
{
    Pmf pmf(4);
    pmf.set(9, 0.3);
    pmf.set(2, 0.1);
    pmf.set(6, 0.3);
    pmf.set(11, 0.3);
    EXPECT_EQ(pmf.argmax(), 6u);
}

// ---- sampler -----------------------------------------------------------------

/**
 * Pearson chi-square of @p counts against @p pmf, with outcomes
 * pooled into bins by their top @p bin_bits bits. Bins with zero
 * expected count are skipped.
 */
double
chiSquare(const Pmf &pmf, const Counts &counts, int bin_bits)
{
    const int shift = pmf.numBits() - bin_bits;
    std::vector<double> expected(std::size_t{1} << bin_bits, 0.0);
    std::vector<double> observed(expected.size(), 0.0);
    const double scale =
        static_cast<double>(counts.totalShots()) / pmf.totalMass();
    for (const auto &[x, p] : pmf.raw())
        expected[x >> shift] += p * scale;
    for (const auto &[x, n] : counts.raw())
        observed[x >> shift] += static_cast<double>(n);
    double chi = 0.0;
    for (std::size_t b = 0; b < expected.size(); ++b)
        if (expected[b] > 0.0)
            chi += (observed[b] - expected[b]) *
                   (observed[b] - expected[b]) / expected[b];
    return chi;
}

/** Every drawn outcome carries positive probability. */
void
expectDrawsInSupport(const Pmf &pmf, const Counts &counts)
{
    for (const auto &[x, n] : counts.raw()) {
        EXPECT_GT(pmf.prob(x), 0.0) << "outcome " << x;
        EXPECT_GT(n, 0u) << "outcome " << x;
    }
}

/** Number of positive entries: what sample() can draw. */
std::uint64_t
drawable(const Pmf &pmf)
{
    return static_cast<std::uint64_t>(
        std::ranges::count_if(pmf.raw(), [](const auto &e) {
            return e.second > 0.0;
        }));
}

/**
 * Shot counts that exercise both sample() branches for @p pmf:
 * @p shots itself plus the switch, c * support - 1 (alias) and
 * c * support, c * support + 1 (binomial).
 */
std::vector<std::uint64_t>
shotsAcrossSwitch(const Pmf &pmf, std::uint64_t shots)
{
    const std::uint64_t at = Pmf::kBinomialShotsPerEntry * drawable(pmf);
    return {shots, at - 1, at, at + 1};
}

/**
 * Draw @p pmf at every count of shotsAcrossSwitch(@p shots) from
 * seed @p seed: totals are exact, only positive outcomes are drawn,
 * and the pooled chi-square stays below @p threshold.
 */
void
expectSamplesMatch(const Pmf &pmf, std::uint64_t shots,
                   std::uint64_t seed, int bin_bits, double threshold)
{
    for (const std::uint64_t n : shotsAcrossSwitch(pmf, shots)) {
        SCOPED_TRACE("shots " + std::to_string(n));
        Rng rng(seed);
        const Counts counts = pmf.sample(rng, n);
        EXPECT_EQ(counts.numBits(), pmf.numBits());
        EXPECT_EQ(counts.totalShots(), n);
        EXPECT_TRUE(std::ranges::is_sorted(counts.raw()));
        expectDrawsInSupport(pmf, counts);
        EXPECT_LT(chiSquare(pmf, counts, bin_bits), threshold);
    }
}

// Thresholds are chi-square 0.999 quantiles for the bins' degrees
// of freedom; the seeds are fixed, so each case is deterministic.

TEST(PmfSample, FourOutcomesChiSquare)
{
    const Pmf pmf = Pmf::fromDense(2, {0.1, 0.2, 0.3, 0.4});
    expectSamplesMatch(pmf, 2048, 21, 2, 16.27); // df 3
}

TEST(PmfSample, SixtyFourOutcomesChiSquare)
{
    std::vector<double> dense(64);
    for (std::size_t x = 0; x < dense.size(); ++x)
        dense[x] = static_cast<double>(1 + x % 7) / 253.0;
    const Pmf pmf = Pmf::fromDense(6, dense);
    expectSamplesMatch(pmf, 2048, 22, 6, 103.44); // df 63
}

TEST(PmfSample, FewerShotsThanSupportChiSquare)
{
    // 2^16 outcomes at 256 shots, pooled into 16 bins whose weights
    // run 8..23, so every bin expects at least 8 draws.
    std::vector<double> dense(std::size_t{1} << 16);
    for (std::size_t x = 0; x < dense.size(); ++x)
        dense[x] = static_cast<double>(8 + (x >> 12));
    const Pmf pmf = Pmf::fromDense(16, dense);
    expectSamplesMatch(pmf, 256, 23, 4, 37.70); // df 15
    Rng rng(23);
    EXPECT_LE(pmf.sample(rng, 256).numOutcomes(), 256u);
}

TEST(PmfSample, SkewedSupportNeverDrawsZeros)
{
    Pmf pmf(6);
    pmf.set(0, 0.5);
    pmf.set(5, 0.3);
    pmf.set(9, 0.2 - 2e-13);
    pmf.set(12, 1e-13);
    pmf.set(40, 1e-13);
    pmf.set(3, 0.0);
    pmf.set(63, 0.0);
    expectSamplesMatch(pmf, 2048, 24, 6, 18.47); // df 4
    for (const std::uint64_t n : shotsAcrossSwitch(pmf, 2048)) {
        Rng rng(24);
        const Counts counts = pmf.sample(rng, n);
        EXPECT_EQ(counts.count(3), 0u);
        EXPECT_EQ(counts.count(63), 0u);
        // About 2e-10 expected draws each.
        EXPECT_EQ(counts.count(12), 0u);
        EXPECT_EQ(counts.count(40), 0u);
    }
}

TEST(PmfSample, LastPositiveEntryTakesTheRest)
{
    // The zero entries after the last positive one are skipped by
    // the binomial walk; everything it has not placed lands on 6.
    Pmf pmf(3);
    pmf.set(1, 0.25);
    pmf.set(6, 0.75);
    pmf.set(7, 0.0);
    for (const std::uint64_t n : shotsAcrossSwitch(pmf, 4096)) {
        Rng rng(26);
        const Counts counts = pmf.sample(rng, n);
        EXPECT_EQ(counts.count(1) + counts.count(6), n);
        EXPECT_EQ(counts.count(7), 0u);
    }
    Pmf single(3);
    single.set(5, 0.3);
    Rng rng(27);
    for (const std::uint64_t n : {1ull, 63ull, 4096ull}) {
        const Counts counts = single.sample(rng, n);
        EXPECT_EQ(counts.raw(), (Counts::Entries{{5, n}}));
    }
}

TEST(PmfSample, EmptySupportOrNoShotsGivesEmptyCounts)
{
    Rng rng(25);
    const Counts empty = Pmf(3).sample(rng, 100);
    EXPECT_EQ(empty.numBits(), 3);
    EXPECT_EQ(empty.totalShots(), 0u);
    EXPECT_EQ(empty.numOutcomes(), 0u);

    Pmf zeros(3);
    zeros.set(1, 0.0);
    zeros.set(6, 0.0);
    EXPECT_EQ(zeros.sample(rng, 100).numOutcomes(), 0u);

    const Counts none = makeBell().sample(rng, 0);
    EXPECT_EQ(none.totalShots(), 0u);
    EXPECT_EQ(none.numOutcomes(), 0u);
}

/** Digest of a histogram: every (outcome, count) pair, in order. */
std::uint64_t
digest(const Counts &counts)
{
    std::uint64_t h = mix64(counts.numOutcomes(), counts.totalShots());
    for (const auto &[x, n] : counts.raw())
        h = mix64(mix64(h, x), n);
    return h;
}

/**
 * Random PMF over @p bits: each outcome is kept with probability
 * @p density and given a uniform weight, then normalized.
 */
Pmf
randomPmf(int bits, double density, std::uint64_t seed)
{
    Rng rng(seed);
    Pmf pmf(bits);
    for (std::uint64_t x = 0; x < (std::uint64_t{1} << bits); ++x)
        if (rng.uniform() < density)
            pmf.set(x, rng.uniform());
    pmf.normalize();
    return pmf;
}

struct PinnedDraw
{
    int bits;
    double density;
    std::uint64_t shots;
    std::uint64_t seed;
    std::uint64_t outcomes;
    std::uint64_t digest;
};

void
expectPinnedDraws(const std::vector<PinnedDraw> &cases, bool binomial)
{
    for (const PinnedDraw &c : cases) {
        SCOPED_TRACE("bits " + std::to_string(c.bits) + " shots " +
                     std::to_string(c.shots));
        const Pmf pmf = randomPmf(c.bits, c.density, 100 + c.seed);
        ASSERT_EQ(c.shots >= Pmf::kBinomialShotsPerEntry * drawable(pmf),
                  binomial);
        Rng rng(c.seed);
        const Counts counts = pmf.sample(rng, c.shots);
        EXPECT_EQ(counts.totalShots(), c.shots);
        EXPECT_EQ(counts.numOutcomes(), c.outcomes);
        EXPECT_EQ(digest(counts), c.digest);
    }
}

TEST(PmfSample, AliasBranchDrawsArePinned)
{
    // Captured before the binomial branch existed: the alias branch
    // (the Globals of wide registers) still draws exactly these.
    expectPinnedDraws({{16, 1.0, 256, 41, 256, 0x45a2966af7fe03c0ull},
                       {12, 1.0, 256, 42, 248, 0x9fbe6f711ec89049ull},
                       {12, 1.0, 2048, 43, 1490, 0x84466a2e58fd253dull},
                       {12, 0.5, 1024, 44, 737, 0xe16215cd335a9283ull}},
                      false);
}

TEST(PmfSample, BinomialBranchDrawsArePinned)
{
    // Subsets and narrow Globals. BTRD's rare slow path calls libm
    // log, so a libm that rounds log differently may move these.
    expectPinnedDraws({{2, 1.0, 2048, 51, 4, 0x0627801de25b96a2ull},
                       {3, 1.0, 256, 52, 8, 0xdcb213502b4ae5ddull},
                       {6, 1.0, 2048, 53, 63, 0x1dd7ab5daf2c68fdull},
                       {8, 0.5, 65536, 54, 119, 0x28426c7d62bc1be9ull}},
                      true);
}

} // namespace
} // namespace varsaw
