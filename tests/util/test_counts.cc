/**
 * @file
 * Unit tests for measurement-count histograms.
 */

#include <gtest/gtest.h>

#include "util/counts.hh"
#include "util/pmf.hh"

namespace varsaw {
namespace {

TEST(Counts, StartsEmpty)
{
    Counts counts(3);
    EXPECT_EQ(counts.numBits(), 3);
    EXPECT_EQ(counts.totalShots(), 0u);
    EXPECT_EQ(counts.numOutcomes(), 0u);
}

TEST(Counts, AddAccumulates)
{
    Counts counts(2);
    counts.add(0b01);
    counts.add(0b01, 4);
    counts.add(0b10);
    EXPECT_EQ(counts.count(0b01), 5u);
    EXPECT_EQ(counts.count(0b10), 1u);
    EXPECT_EQ(counts.count(0b11), 0u);
    EXPECT_EQ(counts.totalShots(), 6u);
    EXPECT_EQ(counts.numOutcomes(), 2u);
}

TEST(Counts, MergeCombinesHistograms)
{
    Counts a(2), b(2);
    a.add(0, 3);
    a.add(1, 1);
    b.add(1, 2);
    b.add(2, 5);
    a.merge(b);
    EXPECT_EQ(a.count(0), 3u);
    EXPECT_EQ(a.count(1), 3u);
    EXPECT_EQ(a.count(2), 5u);
    EXPECT_EQ(a.totalShots(), 11u);
}

TEST(Counts, ToPmfNormalizes)
{
    Counts counts(2);
    counts.add(0, 30);
    counts.add(3, 10);
    Pmf pmf = counts.toPmf();
    EXPECT_EQ(pmf.numBits(), 2);
    EXPECT_NEAR(pmf.prob(0), 0.75, 1e-12);
    EXPECT_NEAR(pmf.prob(3), 0.25, 1e-12);
    EXPECT_NEAR(pmf.totalMass(), 1.0, 1e-12);
}

TEST(Counts, AppendKeepsOrderAndTotals)
{
    Counts counts(3);
    counts.append(1, 4);
    counts.append(5, 2);
    counts.append(6, 1);
    EXPECT_EQ(counts.raw(), (Counts::Entries{{1, 4}, {5, 2}, {6, 1}}));
    EXPECT_EQ(counts.totalShots(), 7u);
    counts.add(3);
    EXPECT_EQ(counts.count(3), 1u);
    EXPECT_EQ(counts.totalShots(), 8u);
}

TEST(CountsDeathTest, AppendOutOfOrderPanics)
{
    Counts counts(3);
    counts.append(5, 1);
    EXPECT_DEATH(counts.append(5, 1), "out of order");
    EXPECT_DEATH(counts.append(2, 1), "out of order");
}

TEST(Counts, ToPmfMatchesSetPerOutcome)
{
    Counts counts(4);
    for (std::uint64_t x : {9u, 2u, 14u, 7u, 2u})
        counts.add(x, x + 1);
    Pmf expected(4);
    const double inv = 1.0 / static_cast<double>(counts.totalShots());
    for (const auto &[x, n] : counts.raw())
        expected.set(x, static_cast<double>(n) * inv);
    EXPECT_EQ(counts.toPmf().raw(), expected.raw());
}

TEST(Counts, ToPmfEmptyIsEmpty)
{
    Counts counts(2);
    Pmf pmf = counts.toPmf();
    EXPECT_EQ(pmf.supportSize(), 0u);
}

} // namespace
} // namespace varsaw
