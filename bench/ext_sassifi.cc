/**
 * @file
 * SASSIFI extension (the paper's reference [16], built on the same
 * machinery as §8): compare the outcome distributions of the three
 * error models — destination-register flips, store-value flips, and
 * store-address flips — over a few applications. Store-address
 * corruption crashes far more often than the other two models;
 * store-value corruption does not crash in these rows, and whether
 * it is masked more or less often than a dest-reg flip depends on
 * the application.
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
    uint64_t injections = envU64("SASSI_INJECTIONS", 60);
    std::cout << "=== Extension: SASSIFI-style error models ("
              << injections << " injections per cell) ===\n\n";

    Table table(withOutcomeHeaders({"Benchmark", "Model"}));
    for (const auto &entry : std::vector<workloads::SuiteEntry>{
             workloads::fig10Suite()[2],  // spmv
             workloads::fig10Suite()[7],  // pathfinder
             workloads::fig10Suite()[5],  // heartwall
         }) {
        for (InjectionMode mode : {InjectionMode::DestReg,
                                   InjectionMode::StoreValue,
                                   InjectionMode::StoreAddress}) {
            Rng rng(0x5a551f1 + static_cast<uint64_t>(mode));
            table.addRow(withOutcomeCells(
                {entry.name, injectionModeName(mode)},
                runInjectionCampaign(entry.make, mode, injections, rng)
                    .histogram));
        }
    }
    printResults(table, std::cout);
    std::cout << "\nShape of these rows: store-address flips crash "
                 "most (wild pointers), store-value flips never crash "
                 "(the flip changes only the datum), and whether "
                 "store-value or dest-reg flips are masked more "
                 "varies by app.\n";
    return 0;
}
