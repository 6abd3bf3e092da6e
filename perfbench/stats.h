/**
 * @file
 * Sample statistics for the benchmark's timing metrics: the median,
 * and the tail — the highest percentile of a fixed ladder that still
 * has at least ten samples beyond it — reported with its sample
 * count.
 */

#ifndef SASSI_PERFBENCH_STATS_H
#define SASSI_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace sassibench {

/** Samples a percentile must leave beyond it to be reported. */
constexpr size_t kTailSamplesBeyond = 10;

/**
 * Linearly interpolated percentile p in [0, 100] of v (the
 * "inclusive" definition, as numpy's default); 0 for an empty set.
 */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

/** Median of v (mean of the middle pair for even counts). */
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

/**
 * The highest percentile of the ladder {50, 75, 90, 99, 99.9, 99.99}
 * with at least kTailSamplesBeyond of n samples beyond it, i.e.\ the
 * largest p with n * (1 - p/100) >= 10. @return 0 when even the
 * median has fewer than ten samples beyond it (n < 20).
 */
inline double
tailLevel(size_t n)
{
    static constexpr double kLadder[] = {99.99, 99.9, 99, 90, 75, 50};
    for (double p : kLadder) {
        // n * (100 - p) >= 100 * 10; the slack absorbs the rounding
        // of 100 - 99.99.
        const double beyond = static_cast<double>(n) * (100.0 - p);
        if (beyond >= 100.0 * kTailSamplesBeyond - 1e-6)
            return p;
    }
    return 0;
}

/** A timing metric's report: median and tail over `count` samples. */
struct Summary
{
    size_t count = 0;
    double p50 = 0;
    double tail = 0;
    double tailLevel = 0; //!< Percentile `tail` reports (0 = none).
};

/**
 * Summarize v, taking the tail at the level chosen for `min_count`
 * samples rather than v.size(), so a workload's tail percentile stays
 * fixed across runs (and commits) that complete different numbers of
 * ops; v must hold at least min_count samples.
 */
inline Summary
summarize(const std::vector<double> &v, size_t min_count)
{
    Summary s;
    s.count = v.size();
    s.p50 = median(v);
    s.tailLevel = tailLevel(std::min(min_count, v.size()));
    s.tail = s.tailLevel > 0 ? percentile(v, s.tailLevel) : 0;
    return s;
}

/** Geometric mean of positive values; 0 for an empty set. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double logSum = 0;
    for (double x : v)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(v.size()));
}

} // namespace sassibench

#endif // SASSI_PERFBENCH_STATS_H
