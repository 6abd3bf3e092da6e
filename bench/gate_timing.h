/**
 * @file
 * The policy and timing helpers shared by the two wall-clock
 * scaling gates (bench_interp --scaling-gate, sassi_fuzz --gate).
 *
 * Each gate times its serial and w-worker sides kGateReps times,
 * alternating, and compares the medians. On a shared virtual
 * machine a single timing swings by up to 2x (one serial fuzz
 * campaign ranged 0.13–0.28 s on a 4-vCPU host), and a w-worker run
 * loses whenever a neighbour takes a core. The median keeps the
 * typical speedup a single-shot gate aims at, without the luck of
 * either tail.
 *
 * A gate whose median falls short measures again, up to
 * kGateAttempts times in all, and fails only if every attempt falls
 * short: a busy neighbour rarely holds the cores for three
 * measurements in a row, while a scheduler that serialises its
 * workers misses the bound every time.
 */

#ifndef SASSI_BENCH_GATE_TIMING_H
#define SASSI_BENCH_GATE_TIMING_H

#include <algorithm>
#include <vector>

namespace sassi::bench {

/** Timings per side of a scaling gate (odd, so the median is one). */
constexpr int kGateReps = 5;

/** Median-of-kGateReps measurements a scaling gate makes at most. */
constexpr int kGateAttempts = 3;

/**
 * A scaling gate at w workers needs kMinScalingEfficiency * w
 * speedup over serial: 4x at 8 workers, 2x at 4.
 */
constexpr double kMinScalingEfficiency = 0.5;

/** @return w = min(8, hw), the worker count a scaling gate runs at. */
inline int
gateWorkers(unsigned hw)
{
    return static_cast<int>(std::min(8u, hw));
}

/** @return the median of a non-empty, odd-sized sample. */
inline double
median(std::vector<double> v)
{
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

} // namespace sassi::bench

#endif // SASSI_BENCH_GATE_TIMING_H
