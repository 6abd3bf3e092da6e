/**
 * @file
 * Case study IV as an application: a small end-to-end error
 * injection campaign (paper §8). handlers::runInjectionCampaign
 * profiles the injection space, selects sites stochastically, and
 * flips one architectural bit per run; this reports each run's
 * outcome.
 */

#include <cstdio>

#include "handlers/injection_campaign.h"
#include "workloads/suite.h"

using namespace sassi;
using namespace sassi::handlers;

int
main()
{
    const size_t num_injections = 25;

    Rng rng(2026);
    const InjectionCampaignResult res = runInjectionCampaign(
        [] { return workloads::makePathfinder(512, 32); },
        InjectionMode::DestReg, num_injections, rng);

    uint64_t space = 0;
    for (const auto &p : res.census)
        space += p.total;
    std::printf("injection space: %llu eligible dynamic instructions "
                "across %zu kernel launches\n\n",
                (unsigned long long)space, res.census.size());

    for (const InjectionRecord &rec : res.records)
        std::printf("  flip %-44s -> %s\n", rec.description.c_str(),
                    injectionOutcomeName(rec.outcome));

    std::printf("\n");
    for (size_t o = 0; o < res.histogram.counts.size(); ++o)
        std::printf("%llu %s, ",
                    (unsigned long long)res.histogram.counts[o],
                    injectionOutcomeName(InjectionOutcome(o)));
    std::printf("out of %zu injections\n", res.records.size());
    return 0;
}
