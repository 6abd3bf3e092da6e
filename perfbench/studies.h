/**
 * @file
 * The benchmark's four workloads — SASSI instrumentation studies
 * driven through the simulator's public API — and what one run of a
 * workload reports.
 */

#ifndef SASSI_PERFBENCH_STUDIES_H
#define SASSI_PERFBENCH_STUDIES_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace sassibench {

/** How to run one workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;   //!< Measured window length.
    bool trace = false;    //!< Traced run: per-layer metrics only.
    bool smoke = false;    //!< Tiny inputs: every check in seconds.
    bool setupOnly = false;//!< Stop after set-up (setup_s samples).
    int threads = 1;       //!< Simulator threads: the host's nproc.
    std::string traceOut;  //!< Chrome trace file of a traced run.
    std::chrono::steady_clock::time_point processStart;
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything one run reports. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double setupSeconds = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes; //!< Human-readable report lines.

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    void note(std::string line) { notes.push_back(std::move(line)); }

    /** Count n failed ops; the first few reasons are kept as notes. */
    void fail(uint64_t n, const std::string &why);
};

/** @return the workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run one workload end to end (set-up, goldens, window, checks). */
Report runWorkload(const Options &opt);

} // namespace sassibench

#endif // SASSI_PERFBENCH_STUDIES_H
