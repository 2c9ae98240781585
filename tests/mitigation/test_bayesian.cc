/**
 * @file
 * Unit and property tests for Bayesian reconstruction (IPF).
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "mitigation/bayesian.hh"
#include "util/rng.hh"

namespace varsaw {
namespace {

/** Noisy GHZ-like global over 3 qubits. */
Pmf
noisyGhz()
{
    Pmf pmf(3);
    pmf.set(0b000, 0.38);
    pmf.set(0b111, 0.38);
    pmf.set(0b001, 0.08);
    pmf.set(0b110, 0.08);
    pmf.set(0b010, 0.04);
    pmf.set(0b101, 0.04);
    pmf.normalize();
    return pmf;
}

/** Ideal GHZ local marginal over 2 qubits. */
LocalPmf
idealLocal(std::vector<int> positions)
{
    LocalPmf local;
    local.positions = std::move(positions);
    local.pmf = Pmf(2);
    local.pmf.set(0b00, 0.5);
    local.pmf.set(0b11, 0.5);
    return local;
}

TEST(Bayesian, NoLocalsReturnsNormalizedGlobal)
{
    Pmf global = noisyGhz();
    Pmf out = bayesianReconstruct(global, {}, 1);
    EXPECT_LT(Pmf::tvDistance(out, global), 1e-12);
}

TEST(Bayesian, IdealLocalsSharpenNoisyGlobal)
{
    Pmf global = noisyGhz();
    std::vector<LocalPmf> locals = {idealLocal({0, 1}),
                                    idealLocal({1, 2})};
    Pmf out = bayesianReconstruct(global, locals, 1);

    Pmf ideal(3);
    ideal.set(0b000, 0.5);
    ideal.set(0b111, 0.5);

    EXPECT_LT(Pmf::tvDistance(out, ideal),
              Pmf::tvDistance(global, ideal));
    // Error outcomes killed by the zero-probability locals.
    EXPECT_NEAR(out.prob(0b001), 0.0, 1e-12);
    EXPECT_NEAR(out.prob(0b010), 0.0, 1e-12);
}

TEST(Bayesian, MorePassesConvergeFurther)
{
    Pmf global = noisyGhz();
    std::vector<LocalPmf> locals = {idealLocal({0, 1}),
                                    idealLocal({1, 2})};
    Pmf one = bayesianReconstruct(global, locals, 1);
    Pmf five = bayesianReconstruct(global, locals, 5);
    Pmf ideal(3);
    ideal.set(0b000, 0.5);
    ideal.set(0b111, 0.5);
    EXPECT_LE(Pmf::tvDistance(five, ideal),
              Pmf::tvDistance(one, ideal) + 1e-12);
}

TEST(Bayesian, OutputIsNormalized)
{
    Pmf global = noisyGhz();
    std::vector<LocalPmf> locals = {idealLocal({0, 1})};
    Pmf out = bayesianReconstruct(global, locals, 3);
    EXPECT_NEAR(out.totalMass(), 1.0, 1e-12);
}

TEST(Bayesian, FixedPointWhenMarginalsAlreadyMatch)
{
    // Global whose marginals equal the locals: IPF must not move it.
    Pmf global(2);
    global.set(0b00, 0.25);
    global.set(0b01, 0.25);
    global.set(0b10, 0.25);
    global.set(0b11, 0.25);

    LocalPmf local;
    local.positions = {0};
    local.pmf = Pmf(1);
    local.pmf.set(0, 0.5);
    local.pmf.set(1, 0.5);

    Pmf out = bayesianReconstruct(global, {local}, 4);
    EXPECT_LT(Pmf::tvDistance(out, global), 1e-12);
}

TEST(Bayesian, SingleSubsetMatchesItsMarginalExactly)
{
    // After one IPF step with one local, the output's marginal on
    // that subset equals the local distribution.
    Rng rng(31);
    Pmf global(3);
    for (int i = 0; i < 8; ++i)
        global.set(i, rng.uniform() + 0.01);
    global.normalize();

    LocalPmf local;
    local.positions = {0, 2};
    local.pmf = Pmf(2);
    for (int i = 0; i < 4; ++i)
        local.pmf.set(i, rng.uniform() + 0.01);
    local.pmf.normalize();

    Pmf out = bayesianReconstruct(global, {local}, 1);
    Pmf marg = out.marginal(local.positions);
    EXPECT_LT(Pmf::tvDistance(marg, local.pmf), 1e-10);
}

TEST(Bayesian, ZeroPriorStaysZero)
{
    // The Bayesian update cannot invent outcomes the Global lacks.
    Pmf global(2);
    global.set(0b00, 1.0);

    LocalPmf local;
    local.positions = {0};
    local.pmf = Pmf(1);
    local.pmf.set(0, 0.6);
    local.pmf.set(1, 0.4);

    Pmf out = bayesianReconstruct(global, {local}, 2);
    EXPECT_EQ(out.prob(0b01), 0.0);
    EXPECT_EQ(out.prob(0b11), 0.0);
    EXPECT_NEAR(out.prob(0b00), 1.0, 1e-12);
}

TEST(Bayesian, EmptyLocalSkipped)
{
    Pmf global = noisyGhz();
    LocalPmf empty;
    empty.positions = {0, 1};
    empty.pmf = Pmf(2); // no support
    Pmf out = bayesianReconstruct(global, {empty}, 1);
    EXPECT_LT(Pmf::tvDistance(out, global), 1e-12);
}

/** Property: reconstruction never produces negative probabilities. */
class BayesianPositivity : public ::testing::TestWithParam<int>
{
};

TEST_P(BayesianPositivity, NonNegativeNormalizedOutput)
{
    Rng rng(700 + GetParam());
    Pmf global(4);
    for (int i = 0; i < 16; ++i)
        if (rng.bernoulli(0.7))
            global.set(i, rng.uniform());
    global.normalize();
    if (global.supportSize() == 0)
        global.set(0, 1.0);

    std::vector<LocalPmf> locals;
    for (int s = 0; s < 3; ++s) {
        LocalPmf local;
        local.positions = {s, s + 1};
        local.pmf = Pmf(2);
        for (int i = 0; i < 4; ++i)
            local.pmf.set(i, rng.uniform());
        local.pmf.normalize();
        locals.push_back(std::move(local));
    }

    Pmf out = bayesianReconstruct(global, locals, 2);
    for (const auto &[outcome, p] : out.raw())
        EXPECT_GE(p, 0.0);
    EXPECT_NEAR(out.totalMass(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BayesianPositivity,
                         ::testing::Range(0, 10));

// ---- pinned outputs ------------------------------------------------------------

/** Digest of a PMF: every (outcome, probability bits) pair, in order. */
std::uint64_t
digest(const Pmf &pmf)
{
    std::uint64_t h = mix64(pmf.supportSize(), pmf.numBits());
    for (const auto &[x, p] : pmf.raw())
        h = mix64(mix64(h, x), std::bit_cast<std::uint64_t>(p));
    return h;
}

/** Each outcome kept with probability @p density, uniform weight. */
Pmf
randomGlobal(int bits, double density, std::uint64_t seed)
{
    Rng rng(seed);
    Pmf pmf(bits);
    for (std::uint64_t x = 0; x < (std::uint64_t{1} << bits); ++x)
        if (rng.uniform() < density)
            pmf.set(x, rng.uniform());
    pmf.normalize();
    return pmf;
}

/** Random locals on @p subsets, each missing its outcome 1. */
std::vector<LocalPmf>
randomLocals(const std::vector<std::vector<int>> &subsets,
             std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<LocalPmf> locals;
    for (const auto &positions : subsets) {
        LocalPmf local;
        local.positions = positions;
        const int k = static_cast<int>(positions.size());
        local.pmf = Pmf(k);
        for (std::uint64_t s = 0; s < (std::uint64_t{1} << k); ++s)
            if (s != 1)
                local.pmf.set(s, rng.uniform());
        local.pmf.normalize();
        locals.push_back(std::move(local));
    }
    return locals;
}

struct PinnedReconstruction
{
    int passes;
    std::uint64_t support;
    std::uint64_t digest;
    double first;      //!< probability of the first support entry
    double z0;         //!< <Z_0>
    double zAll;       //!< <Z...Z> over every bit
};

void
expectPinned(const Pmf &global, const std::vector<LocalPmf> &locals,
             const std::vector<PinnedReconstruction> &cases)
{
    const std::uint64_t all = (std::uint64_t{1} << global.numBits()) - 1;
    for (const PinnedReconstruction &c : cases) {
        SCOPED_TRACE("passes " + std::to_string(c.passes));
        const Pmf out = bayesianReconstruct(global, locals, c.passes);
        EXPECT_EQ(out.supportSize(), c.support);
        EXPECT_EQ(out.raw().front().second, c.first);
        EXPECT_EQ(out.expectationParity(1), c.z0);
        EXPECT_EQ(out.expectationParity(all), c.zAll);
        EXPECT_EQ(digest(out), c.digest);
    }
}

// Captured from the marginal + prob + normalize formulation; the
// dense-factor implementation must reproduce every bit.

TEST(BayesianPinned, SixBitGlobal)
{
    const Pmf global = randomGlobal(6, 1.0, 61);
    const auto locals =
        randomLocals({{0, 1}, {2, 3, 4}, {4, 5}, {5, 1, 3}}, 62);
    expectPinned(global, locals,
                 {{1, 64, 0x5a340eb3761b2863ull, 0x1.433a9b2ed49d5p-2,
                   0x1.59f6b9fb25048p-1, 0x1.108771ca76bf1p-2},
                  {2, 64, 0xefdefa552de1e543ull, 0x1.433a9b2ed49d7p-2,
                   0x1.5af922985d396p-1, 0x1.2e2b42e7c15bbp-2}});
}

TEST(BayesianPinned, TwelveBitSparseGlobal)
{
    const Pmf global = randomGlobal(12, 0.3, 121);
    const auto locals = randomLocals(
        {{0, 1}, {2, 3, 4}, {5, 6}, {9, 8, 7}, {10, 11}, {3, 7, 11}},
        122);
    expectPinned(global, locals,
                 {{1, 1239, 0x3c6c8cf39510d597ull, 0x1.449fdb63e9b61p-4,
                   0x1.15c021a0a91bap-8, 0x1.f002eade535eep-4},
                  {2, 1239, 0xa1f6e5e710497edbull, 0x1.320d80ca2a46p-4,
                   0x1.474889b9adf2p-7, 0x1.1ace61734dd21p-3}});
}

} // namespace
} // namespace varsaw
