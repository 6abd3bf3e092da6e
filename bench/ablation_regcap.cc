/**
 * @file
 * Ablation for the handler register cap (paper §3.2): SASSI
 * compiles handlers with -maxrregcount=16 because every register
 * the handler may clobber is a register the injected code must
 * spill at every site, warp-wide. Sweeps the cap and reports the
 * resulting spill volume and instrumented kernel time.
 */

#include <iostream>

#include "bench_common.h"
#include "handlers/branch_profiler.h"

using namespace sassi;
using namespace sassi::bench;
using namespace sassi::handlers;

int
main()
{
    setVerbose(false);
    std::cout << "=== Ablation: handler register cap "
                 "(-maxrregcount) sweep, memory-op instrumentation "
                 "===\n\n";

    const int caps[] = {8, 16, 24, 32};
    Table table({"Benchmark", "cap=8 K", "cap=16 K (paper)",
                 "cap=24 K", "cap=32 K"});

    for (const auto &entry : workloads::table1Suite()) {
        uint64_t base;
        {
            auto w = entry.make();
            simt::Device dev;
            w->setup(dev);
            RunOutcome out = runAll(*w, dev);
            fatal_if(!out.last.ok(), "%s baseline failed",
                     entry.name.c_str());
            base = out.total.kernelTimeProxy();
        }
        std::vector<std::string> row{entry.name};
        for (int cap : caps) {
            auto w = entry.make();
            simt::Device dev;
            w->setup(dev);
            core::SassiRuntime rt(dev);
            core::InstrumentOptions opts;
            opts.beforeMem = true;
            opts.memoryInfo = true;
            opts.handlerRegCap = cap;
            rt.instrument(opts);
            core::HandlerTraits traits;
            traits.warpSynchronous = false;
            rt.setBeforeHandler([](const core::HandlerEnv &) {}, traits);
            RunOutcome out = runAll(*w, dev);
            fatal_if(!out.last.ok() || !out.verified,
                     "%s failed at cap %d", entry.name.c_str(), cap);
            row.push_back(
                fmtDouble(
                    static_cast<double>(out.total.kernelTimeProxy()) /
                        static_cast<double>(base),
                    2) +
                "k");
        }
        table.addRow(row);
    }

    printResults(table, std::cout);
    std::cout << "\nExpected shape: kernel-level overhead grows with "
                 "the cap as more live registers fall inside the "
                 "clobber window; 16 (the ABI minimum the paper "
                 "picks) keeps the spill cost moderate without "
                 "restricting handler functionality.\n";
    return 0;
}
