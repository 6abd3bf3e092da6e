/**
 * @file
 * Regenerates Table 3 (paper §9.1): instrumentation overheads of
 * the four case studies, per benchmark.
 *
 * The baseline columns give the modeled whole-program time t (host
 * transfer/launch proxy + kernel proxy) and device-only kernel time
 * k (issued warp instructions plus the modeled handler cost). For
 * each case study, T is the whole-program slowdown and K the
 * kernel-level slowdown relative to the baseline — the same two
 * ratios the paper reports. Absolute time units are simulator
 * proxies; the shape to check is the ordering (branch < memory <
 * value/error) and the CPU-bound apps' T staying near 1.
 */

#include <iostream>

#include "bench_common.h"
#include "handlers/branch_profiler.h"
#include "handlers/error_injector.h"
#include "handlers/memdiv_profiler.h"
#include "handlers/value_profiler.h"

using namespace sassi;
using namespace sassi::bench;
using namespace sassi::handlers;

namespace {

struct StudyResult
{
    double t = 0; //!< Whole-program slowdown (modeled proxy).
    double k = 0; //!< Kernel-level slowdown (modeled proxy).
};

/** Run one case study over a fresh device and compute T and K. */
template <typename MakeTool>
StudyResult
runStudy(const workloads::SuiteEntry &entry,
         const core::InstrumentOptions &opts, MakeTool make_tool,
         uint64_t base_kernel, uint64_t base_host)
{
    auto w = entry.make();
    simt::Device dev;
    w->setup(dev);
    core::SassiRuntime rt(dev);
    rt.instrument(opts);
    auto tool = make_tool(dev, rt);
    (void)tool;
    RunOutcome out = runAll(*w, dev);
    fatal_if(!out.last.ok() || !out.verified, "%s failed under %s",
             entry.name.c_str(), opts.describe().c_str());
    uint64_t kernel = out.total.kernelTimeProxy();
    StudyResult r;
    r.k = static_cast<double>(kernel) /
          static_cast<double>(base_kernel);
    r.t = static_cast<double>(out.hostProxy + kernel) /
          static_cast<double>(base_host + base_kernel);
    return r;
}

} // namespace

int
main()
{
    setVerbose(false);
    std::cout << "=== Table 3: instrumentation overheads (T = whole "
                 "program, K = kernel only; baseline-relative) "
                 "===\n\n";

    Table table({"Suite", "Benchmark", "t (proxy)", "k (proxy)",
                 "Launches", "CS1 T", "CS1 K", "CS2 T", "CS2 K",
                 "CS3 T", "CS3 K", "CS4 T", "CS4 K"});

    double max_k = 0;
    for (const auto &entry : workloads::fullSuite()) {
        uint64_t base_kernel, base_host, launches;
        {
            auto w = entry.make();
            simt::Device dev;
            w->setup(dev);
            RunOutcome out = runAll(*w, dev);
            fatal_if(!out.last.ok() || !out.verified,
                     "%s baseline failed", entry.name.c_str());
            base_kernel = out.total.kernelTimeProxy();
            base_host = out.hostProxy;
            launches = out.launches;
        }

        StudyResult cs1 = runStudy(
            entry, BranchProfiler::options(),
            [](simt::Device &dev, core::SassiRuntime &rt) {
                return std::make_unique<BranchProfiler>(dev, rt);
            },
            base_kernel, base_host);
        StudyResult cs2 = runStudy(
            entry, MemDivProfiler::options(),
            [](simt::Device &dev, core::SassiRuntime &rt) {
                return std::make_unique<MemDivProfiler>(dev, rt);
            },
            base_kernel, base_host);
        StudyResult cs3 = runStudy(
            entry, ValueProfiler::options(),
            [](simt::Device &dev, core::SassiRuntime &rt) {
                return std::make_unique<ValueProfiler>(dev, rt);
            },
            base_kernel, base_host);
        StudyResult cs4 = runStudy(
            entry, ErrorInjectionProfiler::options(),
            [](simt::Device &dev, core::SassiRuntime &rt) {
                return std::make_unique<ErrorInjectionProfiler>(dev,
                                                                rt);
            },
            base_kernel, base_host);

        max_k = std::max({max_k, cs1.k, cs2.k, cs3.k, cs4.k});
        auto fm = [](double v) { return fmtDouble(v, 1); };
        table.addRow({
            entry.suite, entry.name,
            fmtCount(static_cast<double>(base_host + base_kernel)),
            fmtCount(static_cast<double>(base_kernel)),
            std::to_string(launches),
            fm(cs1.t), fm(cs1.k) + "k",
            fm(cs2.t), fm(cs2.k) + "k",
            fm(cs3.t), fm(cs3.k) + "k",
            fm(cs4.t), fm(cs4.k) + "k",
        });
    }

    printResults(table, std::cout);
    std::cout << "\nMax kernel-level slowdown observed: "
              << fmtDouble(max_k, 1) << "x\n"
              << "Expected shape (paper): CS1 (branches only) is the "
                 "cheapest; CS2 (all memory ops) heavier; CS3/CS4 "
                 "(after every register write) heaviest; apps "
                 "dominated by host time keep T near 1 even when K "
                 "is large.\n";
    return 0;
}
