// Unit tests of the benchmark's statistics (nearest-rank percentiles,
// supported tail percentile, summaries) and span self time.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>

#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double>
oneToN(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentile, NearestRankOnOneToHundred)
{
    const std::vector<double> v = oneToN(100);
    EXPECT_EQ(percentile(v, 50), 50.0);
    EXPECT_EQ(percentile(v, 99), 99.0);
    EXPECT_EQ(percentile(v, 100), 100.0);
    EXPECT_EQ(percentile(v, 0), 1.0);
    EXPECT_EQ(percentile(v, 0.5), 1.0);
    EXPECT_EQ(percentile(v, 1.01), 2.0);
}

TEST(Percentile, ExactRanksHaveNoRoundingError)
{
    // 99% of 1000 is rank 990, 99.9% of 1000 is rank 999.
    EXPECT_EQ(nearestRank(1000, 99.0), 990u);
    EXPECT_EQ(nearestRank(1000, 99.9), 999u);
    EXPECT_EQ(nearestRank(10, 75.0), 8u);
    EXPECT_EQ(nearestRank(3, 50.0), 2u);
    EXPECT_EQ(nearestRank(1, 99.0), 1u);
}

TEST(Percentile, IsAlwaysOneOfTheSamples)
{
    std::mt19937_64 rng(7);
    std::vector<double> v;
    for (int i = 0; i < 777; ++i)
        v.push_back(std::exp(static_cast<double>(rng() % 1000) / 100.0));
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9}) {
        const double q = percentile(v, p);
        EXPECT_TRUE(std::binary_search(sorted.begin(), sorted.end(), q)) << p;
        // At least p% of the samples are <= q, and fewer are < q.
        const auto le = std::upper_bound(sorted.begin(), sorted.end(), q) - sorted.begin();
        const auto lt = std::lower_bound(sorted.begin(), sorted.end(), q) - sorted.begin();
        EXPECT_GE(static_cast<double>(le), p / 100.0 * 777 - 1e-9) << p;
        EXPECT_LT(static_cast<double>(lt), p / 100.0 * 777) << p;
    }
}

TEST(Percentile, OrderOfInputDoesNotMatter)
{
    std::vector<double> v = oneToN(501);
    std::shuffle(v.begin(), v.end(), std::mt19937_64(3));
    EXPECT_EQ(median(v), 251.0);
    EXPECT_EQ(percentile(v, 90), 451.0);
}

TEST(Percentile, RejectsEmptyAndOutOfRange)
{
    EXPECT_THROW(percentile({}, 50), std::invalid_argument);
    EXPECT_THROW(percentile({1.0}, -1), std::invalid_argument);
    EXPECT_THROW(percentile({1.0}, 100.5), std::invalid_argument);
}

TEST(SupportedPercentile, NeedsTenSamplesBeyond)
{
    EXPECT_EQ(highestSupportedPercentile(0), 0.0);
    EXPECT_EQ(highestSupportedPercentile(19), 0.0);
    EXPECT_EQ(highestSupportedPercentile(20), 50.0);
    EXPECT_EQ(highestSupportedPercentile(39), 50.0);
    EXPECT_EQ(highestSupportedPercentile(40), 75.0);
    EXPECT_EQ(highestSupportedPercentile(99), 75.0);
    EXPECT_EQ(highestSupportedPercentile(100), 90.0);
    EXPECT_EQ(highestSupportedPercentile(200), 95.0);
    EXPECT_EQ(highestSupportedPercentile(999), 95.0);
    EXPECT_EQ(highestSupportedPercentile(1000), 99.0);
    EXPECT_EQ(highestSupportedPercentile(10000), 99.9);
    EXPECT_EQ(highestSupportedPercentile(100000), 99.99);
    EXPECT_EQ(highestSupportedPercentile(1000, 20), 95.0);
}

TEST(Summarize, ReportsCountMedianAndTail)
{
    const Summary s = summarize(oneToN(1000), 99.0);
    EXPECT_EQ(s.n, 1000u);
    EXPECT_EQ(s.p50, 500.0);
    EXPECT_EQ(s.tail, 990.0);
    EXPECT_EQ(s.tailPct, 99.0);
}

TEST(Summarize, RefusesAThinTail)
{
    EXPECT_THROW(summarize(oneToN(999), 99.0), std::runtime_error);
    EXPECT_NO_THROW(summarize(oneToN(40), 75.0));
}

Clock::time_point
at(int us)
{
    return Clock::time_point{} + std::chrono::microseconds(us);
}

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    // root [0,100]; children [10,30] and [20,50] overlap -> 40 covered;
    // child [90,120] sticks out of the root -> 10 covered.
    std::vector<Span> spans = {
        {"root", at(0), at(100), -1, 1},
        {"a", at(10), at(30), 0, 1},
        {"b", at(20), at(50), 0, 1},
        {"c", at(90), at(120), 0, 1},
        {"leaf", at(12), at(14), 1, 1},
    };
    const std::vector<double> self = selfTimesUs(spans);
    ASSERT_EQ(self.size(), 5u);
    EXPECT_DOUBLE_EQ(self[0], 50.0);
    EXPECT_DOUBLE_EQ(self[1], 18.0);
    EXPECT_DOUBLE_EQ(self[2], 30.0);
    EXPECT_DOUBLE_EQ(self[3], 30.0);
    EXPECT_DOUBLE_EQ(self[4], 2.0);
}

TEST(SpanLog, NestsScopedSpansOnOneThread)
{
    SpanLog log(true);
    {
        ScopedSpan outer(log, "outer", 7);
        ScopedSpan inner(log, "inner", 7);
    }
    const std::vector<Span> spans = log.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[1].request, 7);
    EXPECT_LE(spans[0].start, spans[1].start);
    EXPECT_LE(spans[1].end, spans[0].end);
}

TEST(SpanLog, DisabledRecordsNothing)
{
    SpanLog log(false);
    {
        ScopedSpan s(log, "x");
        EXPECT_EQ(s.id(), -1);
    }
    EXPECT_EQ(log.add("y", at(0), at(1), -1, -1), -1);
    EXPECT_TRUE(log.spans().empty());
}

} // namespace
} // namespace perfbench
