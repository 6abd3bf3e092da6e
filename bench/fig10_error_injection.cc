/**
 * @file
 * Regenerates Figure 10 (paper §8.2): the outcome distribution of
 * architecture-level error injections. For each application,
 * handlers::runInjectionCampaign runs the paper's three steps:
 *
 *   1. a profiling run (instrumented after every register-writing
 *      instruction) censuses the eligible dynamic instructions per
 *      thread per kernel invocation;
 *   2. injection sites are selected stochastically on the host;
 *   3. one run per site flips a single bit in a destination
 *      register / predicate / condition code, and the campaign
 *      categorizes the outcome (masked, crash, hang, failure
 *      symptom, SDC).
 *
 * The paper performs 1,000 injections per application; the default
 * here is 200 for runtime (set SASSI_INJECTIONS=1000 to match the
 * paper exactly).
 */

#include <iostream>

#include "bench_common.h"

using namespace sassi;
using namespace sassi::bench;
using namespace sassi::handlers;

int
main()
{
    setVerbose(false);
    uint64_t injections = envU64("SASSI_INJECTIONS", 200);
    std::cout << "=== Figure 10: error injection outcomes ("
              << injections << " injections per app; "
              << "SASSI_INJECTIONS overrides) ===\n\n";

    std::vector<std::string> headers = withOutcomeHeaders({"Benchmark"});
    headers.push_back("Injected");
    Table table(headers);

    double sum_masked = 0, sum_crash_hang = 0, sum_sdc = 0;
    int apps = 0;

    for (const auto &entry : workloads::fig10Suite()) {
        Rng rng(0xfa117 + static_cast<uint64_t>(apps));
        const InjectionHistogram h =
            runInjectionCampaign(entry.make, InjectionMode::DestReg,
                                 injections, rng)
                .histogram;

        std::vector<std::string> row = withOutcomeCells({entry.name}, h);
        row.push_back(std::to_string(h.total));
        table.addRow(std::move(row));

        auto pct = [&](uint64_t v) {
            return 100.0 * static_cast<double>(v) /
                   static_cast<double>(h.total);
        };
        sum_masked += pct(h[InjectionOutcome::Masked]);
        sum_crash_hang += pct(h[InjectionOutcome::Crash] +
                              h[InjectionOutcome::Hang]);
        sum_sdc += pct(h[InjectionOutcome::SDC]);
        ++apps;
    }

    printResults(table, std::cout);
    std::cout << "\nAverages: masked "
              << fmtDouble(sum_masked / apps, 1) << "%, crashes+hangs "
              << fmtDouble(sum_crash_hang / apps, 1) << "%, SDC "
              << fmtDouble(sum_sdc / apps, 1) << "%\n"
              << "Expected shape (paper): ~79% masked on average, "
                 "~10% crashes+hangs, the rest potential SDCs / "
                 "failure symptoms, with large per-app variation.\n";
    return 0;
}
