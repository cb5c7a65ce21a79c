/**
 * @file
 * Unit tests for the util substrate: RNG determinism and
 * distributional properties, running statistics, and table
 * rendering.
 */

#include <cmath>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace densim {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.nextU64() == b.nextU64();
    EXPECT_EQ(same, 0);
}

TEST(Rng, DoublesInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, UniformRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.uniform(-3.0, 5.0);
        EXPECT_GE(x, -3.0);
        EXPECT_LT(x, 5.0);
    }
}

TEST(Rng, UniformMeanNearCenter)
{
    Rng rng(11);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.uniform(0.0, 10.0));
    EXPECT_NEAR(s.mean(), 5.0, 0.05);
}

TEST(Rng, BoundedCoversRangeUniformly)
{
    Rng rng(13);
    std::vector<int> counts(10, 0);
    const int draws = 100000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.nextBounded(10)];
    for (int c : counts)
        EXPECT_NEAR(c, draws / 10, draws / 10 * 0.1);
}

TEST(Rng, BoundedNeverReachesBound)
{
    Rng rng(17);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(3), 3u);
}

TEST(Rng, BoundedOneAlwaysZero)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(23);
    RunningStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.exponential(2.5));
    EXPECT_NEAR(s.mean(), 2.5, 0.05);
}

TEST(Rng, ExponentialIsPositive)
{
    Rng rng(29);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Rng, NormalMoments)
{
    Rng rng(31);
    RunningStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.normal());
    EXPECT_NEAR(s.mean(), 0.0, 0.02);
    EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalShiftScale)
{
    Rng rng(37);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.normal(10.0, 3.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.1);
    EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, LognormalMeanMatchesClosedForm)
{
    Rng rng(41);
    const double mu = -0.5, sigma = 1.0;
    RunningStats s;
    for (int i = 0; i < 400000; ++i)
        s.add(rng.lognormal(mu, sigma));
    const double expected = std::exp(mu + sigma * sigma / 2);
    EXPECT_NEAR(s.mean(), expected, expected * 0.05);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(43);
    int hits = 0;
    const int draws = 100000;
    for (int i = 0; i < draws; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits, 0.3 * draws, 0.01 * draws);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded)
{
    Rng parent(47);
    Rng a = parent.split();
    Rng b = parent.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.nextU64() == b.nextU64();
    EXPECT_EQ(same, 0);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.cov(), 0.0);
}

TEST(RunningStats, SingleValue)
{
    RunningStats s;
    s.add(4.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 4.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStats, KnownSequence)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.cov(), 0.4);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsBulk)
{
    Rng rng(53);
    RunningStats bulk, a, b;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(3.0, 2.0);
        bulk.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), bulk.count());
    EXPECT_NEAR(a.mean(), bulk.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), bulk.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), bulk.min());
    EXPECT_DOUBLE_EQ(a.max(), bulk.max());
}

TEST(RunningStats, MergeWithEmpty)
{
    RunningStats a, b;
    a.add(1.0);
    a.add(3.0);
    const double mean_before = a.mean();
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.mean(), mean_before);
    b.merge(a);
    EXPECT_DOUBLE_EQ(b.mean(), mean_before);
}

TEST(Stats, VectorHelpersAgreeWithRunning)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 10.0};
    RunningStats s;
    for (double x : xs)
        s.add(x);
    EXPECT_DOUBLE_EQ(mean(xs), s.mean());
    EXPECT_DOUBLE_EQ(stddev(xs), s.stddev());
    EXPECT_DOUBLE_EQ(coefficientOfVariation(xs), s.cov());
}

TEST(Table, TextRenderingAligned)
{
    TableWriter t({"A", "LongHeader"});
    t.newRow().cell("x").cell(1.5, 1);
    t.newRow().cell("yy").cell(static_cast<long long>(42));
    const std::string text = t.toText();
    EXPECT_NE(text.find("LongHeader"), std::string::npos);
    EXPECT_NE(text.find("1.5"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvEscapesSpecialCharacters)
{
    TableWriter t({"name", "value"});
    t.newRow().cell("a,b").cell("say \"hi\"");
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
    EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, FormatFixedPrecision)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatFixed(2.0, 0), "2");
}

} // namespace
} // namespace densim
