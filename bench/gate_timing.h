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
 *
 * Before each attempt's speedup, a gate prints each side's granted
 * parallelism (GrantedCpus): process CPU time over wall time. A
 * sharded side that got about w cores and still did not speed up
 * points at the program; one that never got the cores points at the
 * host.
 */

#ifndef SASSI_BENCH_GATE_TIMING_H
#define SASSI_BENCH_GATE_TIMING_H

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
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

/** @return user + system CPU seconds this process has used. */
inline double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/**
 * The parallelism one gate side was granted: process CPU time over
 * wall time, summed over every run timed through time(). 1.0 is
 * one busy core.
 */
class GrantedCpus
{
  public:
    /** Run f(), adding its CPU and wall time; @return f()'s result. */
    template <typename F>
    auto
    time(F &&f)
    {
        const double cpu0 = processCpuSeconds();
        const auto wall0 = std::chrono::steady_clock::now();
        auto result = f();
        wall_ += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall0)
                     .count();
        cpu_ += processCpuSeconds() - cpu0;
        return result;
    }

    /** @return CPU seconds per wall second over the timed runs. */
    double
    cpus() const
    {
        return wall_ > 0 ? cpu_ / wall_ : 0.0;
    }

  private:
    double cpu_ = 0;
    double wall_ = 0;
};

} // namespace sassi::bench

#endif // SASSI_BENCH_GATE_TIMING_H
