/**
 * @file
 * sassibench: runs one benchmark workload and prints its metrics.
 *
 *   sassibench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *              [--trace-out FILE] [--smoke] [--setup-only]
 *
 * Human-readable report lines come first; the last line is one JSON
 * object {"correct", "attempted", "failed", "setup_s", "metrics"}.
 * perfbench/run.py builds this binary and wraps it; see README.md.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <sys/resource.h>

#include "simt/simd/simd_exec.h"
#include "util/logging.h"

#include "studies.h"

namespace {

// Taken during static initialization: as close to process start as a
// program can observe without platform-specific clocks.
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

#ifndef SASSIBENCH_BUILD_TYPE
#define SASSIBENCH_BUILD_TYPE "unknown"
#endif

/**
 * Simulator knobs that would silently change what is measured. Every
 * knob is set explicitly instead (launch options, campaign jobs,
 * injection counts), so an inherited value is refused.
 */
constexpr const char *kKnobs[] = {
    "SASSI_SIM_THREADS",    "SASSI_SIM_SUPERBLOCKS",
    "SASSI_SIM_SIMD",       "SASSI_SIM_HANDLER_FASTPATH",
    "SASSI_TRACE",          "SASSI_FUZZ_JOBS",
    "SASSI_INJECTIONS",
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "sassibench: %s\nusage: sassibench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--trace-out FILE] [--smoke] [--setup-only]\n",
                 why);
    return 2;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** JSON string literal (names and units are plain ASCII). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    sassibench::Options opt;
    opt.processStart = kProcessStart;
    opt.threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--setup-only") {
            opt.setupOnly = true;
        } else if (!(v = value())) {
            return usage(("missing value for " + arg).c_str());
        } else if (arg == "--workload") {
            opt.workload = v;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(v, nullptr);
        } else if (arg == "--trace") {
            opt.trace = std::strcmp(v, "0") != 0;
        } else if (arg == "--trace-out") {
            opt.traceOut = v;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    bool known = false;
    for (const std::string &w : sassibench::workloadNames())
        known |= w == opt.workload;
    if (!known)
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    if (!(opt.seconds >= 0))
        return usage("--seconds must be non-negative");
    for (const char *knob : kKnobs)
        if (std::getenv(knob))
            return usage((std::string(knob) +
                          " is set; unset it (the benchmark sets every "
                          "simulator knob itself)")
                             .c_str());

    sassi::setVerbose(false);
    const sassibench::Report rep = sassibench::runWorkload(opt);

    std::printf("# workload %s seed %" PRIu64 " trace %d%s: %d sim "
                "threads, avx2 %s, build %s\n",
                opt.workload.c_str(), opt.seed, opt.trace ? 1 : 0,
                opt.smoke ? " (smoke)" : "", opt.threads,
                sassi::simt::simd::cpuHasAvx2() ? "yes" : "no",
                SASSIBENCH_BUILD_TYPE);
    for (const std::string &line : rep.notes)
        std::printf("# %s\n", line.c_str());

    std::string metrics;
    auto add = [&](const std::string &name, double value,
                   const std::string &unit) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", value);
        metrics += (metrics.empty() ? "" : ", ") + quoted(name) +
                   ": {\"value\": " + num + ", \"unit\": " +
                   quoted(unit) + "}";
    };
    for (const sassibench::Metric &m : rep.metrics)
        add(m.name, m.value, m.unit);
    if (!opt.trace && !opt.setupOnly)
        add("peak_rss_mb", peakRssMb(), "MB");
    const bool correct =
        rep.failed == 0 && (opt.setupOnly || rep.attempted > 0);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"setup_s\": %.9f, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", rep.attempted, rep.failed,
                rep.setupSeconds, metrics.c_str());
    return 0;
}
