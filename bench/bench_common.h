/**
 * @file
 * Shared plumbing for the experiment harnesses in bench/: each
 * binary regenerates one of the paper's tables or figures by
 * running workloads bare and under a case-study instrumentation
 * library, then printing the paper's rows/series.
 */

#ifndef SASSI_BENCH_BENCH_COMMON_H
#define SASSI_BENCH_BENCH_COMMON_H

#include <cctype>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/sassi.h"
#include "handlers/injection_campaign.h"
#include "util/logging.h"
#include "util/table.h"
#include "workloads/suite.h"

namespace sassi::bench {

/** Result of one complete application run. */
struct RunOutcome
{
    simt::LaunchResult last;
    simt::LaunchStats total;      //!< Aggregated over all launches.
    uint64_t hostProxy = 0;       //!< Modeled host-side time units.
    uint64_t launches = 0;
    bool verified = false;
};

/**
 * Model of host-side (CPU + transfer) time in the same units as
 * LaunchStats::kernelTimeProxy. Transfers dominate small-kernel
 * applications exactly as in the paper's Table 3 baseline, where
 * many benchmarks are CPU/transfer bound.
 */
inline uint64_t
hostProxy(const simt::Device &dev)
{
    // Fixed program overhead (process + runtime init) + PCIe
    // transfers + per-launch driver cost, in warp-instruction
    // units. Calibrated so host-bound apps keep T near 1 while
    // kernel-bound apps (tpacf, heartwall) show large T, matching
    // Table 3's spread.
    return 1'000'000 + dev.bytesH2D() + dev.bytesD2H() +
           dev.launches() * 5000;
}

/** Run a workload on a fresh pass over an already-setup device. */
inline RunOutcome
runAll(workloads::Workload &w, simt::Device &dev)
{
    RunOutcome out;
    dev.resetStats();
    out.last = w.run(dev);
    out.total = dev.totalStats();
    out.hostProxy = hostProxy(dev);
    out.launches = dev.launches();
    out.verified = out.last.ok() && w.verify(dev);
    return out;
}

/** Read an integer knob from the environment; fatal unless the
 *  value is a decimal number. */
inline uint64_t
envU64(const char *name, uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v)
        return fallback;
    char *end = nullptr;
    uint64_t n = std::strtoull(v, &end, 10);
    fatal_if(!std::isdigit(static_cast<unsigned char>(*v)) || *end,
             "%s=%s is not a number", name, v);
    return n;
}

/** @return `row` followed by Figure 10's outcome column headers. */
inline std::vector<std::string>
withOutcomeHeaders(std::vector<std::string> row)
{
    row.insert(row.end(), {"Masked %", "Crashes %", "Hangs %",
                           "Failure symptoms %", "SDC %"});
    return row;
}

/** @return `row` followed by one percentage per outcome column. */
inline std::vector<std::string>
withOutcomeCells(std::vector<std::string> row,
                 const handlers::InjectionHistogram &h)
{
    for (uint64_t c : h.counts)
        row.push_back(fmtPercent(static_cast<double>(c),
                                 static_cast<double>(h.total)));
    return row;
}

/** Print a results table; SASSI_CSV=1 switches to CSV output. */
inline void
printResults(const Table &table, std::ostream &os)
{
    if (envU64("SASSI_CSV", 0))
        table.printCsv(os);
    else
        table.print(os);
}

} // namespace sassi::bench

#endif // SASSI_BENCH_BENCH_COMMON_H
