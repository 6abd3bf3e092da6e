/**
 * @file
 * Tests of the benchmark's statistics helpers: the median, the
 * "at least ten samples beyond" tail-percentile choice, and the
 * sample counts a summary reports.
 */

#include <gtest/gtest.h>

#include "stats.h"

using namespace sassibench;

TEST(Stats, MedianOddAndEven)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({7}), 7);
    EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(Stats, PercentileInterpolatesLinearly)
{
    std::vector<double> v;
    for (int i = 0; i <= 100; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 90), 90);
    EXPECT_DOUBLE_EQ(percentile(v, 99.5), 99.5);
    EXPECT_DOUBLE_EQ(percentile({0, 10}, 25), 2.5);
    EXPECT_DOUBLE_EQ(percentile({5, 1}, 100), 5);
    EXPECT_DOUBLE_EQ(percentile({5, 1}, 0), 1);
}

TEST(Stats, TailLevelLeavesTenSamplesBeyond)
{
    EXPECT_EQ(tailLevel(0), 0);
    EXPECT_EQ(tailLevel(19), 0);
    EXPECT_EQ(tailLevel(20), 50);
    EXPECT_EQ(tailLevel(39), 50);
    EXPECT_EQ(tailLevel(40), 75);
    EXPECT_EQ(tailLevel(99), 75);
    EXPECT_EQ(tailLevel(100), 90);
    EXPECT_EQ(tailLevel(999), 90);
    EXPECT_EQ(tailLevel(1000), 99);
    EXPECT_EQ(tailLevel(9999), 99);
    EXPECT_EQ(tailLevel(10000), 99.9);
    EXPECT_EQ(tailLevel(100000), 99.99);
    // The chosen level always leaves at least ten samples beyond it.
    for (size_t n = 20; n < 3000; ++n) {
        const double p = tailLevel(n);
        EXPECT_GE(static_cast<double>(n) * (1 - p / 100), 10 - 1e-9)
            << n;
    }
}

TEST(Stats, SummaryCountsSamplesAndFixesTheLevel)
{
    std::vector<double> v;
    for (int i = 1; i <= 250; ++i)
        v.push_back(i);
    // The level follows the guaranteed minimum count, not v.size():
    // 250 samples would allow p90, a 40-sample minimum only p75.
    const Summary s = summarize(v, 40);
    EXPECT_EQ(s.count, 250u);
    EXPECT_EQ(s.tailLevel, 75);
    EXPECT_DOUBLE_EQ(s.p50, 125.5);
    EXPECT_DOUBLE_EQ(s.tail, percentile(v, 75));

    const Summary all = summarize(v, v.size());
    EXPECT_EQ(all.tailLevel, 90);

    const Summary few = summarize({1, 2, 3}, 3);
    EXPECT_EQ(few.count, 3u);
    EXPECT_EQ(few.tailLevel, 0);
    EXPECT_EQ(few.tail, 0);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({2, 8}), 4, 1e-12);
    EXPECT_NEAR(geomean({5}), 5, 1e-12);
    EXPECT_EQ(geomean({}), 0);
}
