/**
 * @file
 * Tests of the one error-injection flow (runInjectionCampaign):
 * outcome classification over every launch outcome, and records
 * that do not depend on how many injections run side by side.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>

#include "handlers/injection_campaign.h"
#include "workloads/suite.h"

using namespace sassi;
using namespace sassi::simt;
using namespace sassi::handlers;

namespace {

TEST(InjectionCampaign, ClassifiesEveryLaunchOutcome)
{
    LaunchResult r;
    EXPECT_EQ(classifyInjection(r, true), InjectionOutcome::Masked);
    EXPECT_EQ(classifyInjection(r, false), InjectionOutcome::SDC);
    const std::pair<Outcome, InjectionOutcome> faults[] = {
        {Outcome::Hang, InjectionOutcome::Hang},
        {Outcome::Trap, InjectionOutcome::FailureSymptom},
        {Outcome::MemFault, InjectionOutcome::Crash},
        {Outcome::InvalidPC, InjectionOutcome::Crash},
    };
    for (const auto &[launch, expect] : faults) {
        r.outcome = launch;
        for (bool hashEqual : {false, true})
            EXPECT_EQ(classifyInjection(r, hashEqual), expect)
                << outcomeName(launch) << " hashEqual=" << hashEqual;
    }
}

TEST(InjectionCampaign, RecordsAreIndependentOfThreadCount)
{
    // One injection at a time, then four side by side.
    auto campaign = [](const char *threads, InjectionMode mode) {
        setenv("SASSI_SIM_THREADS", threads, 1);
        Rng rng(11);
        return runInjectionCampaign(
            [] { return workloads::makePathfinder(256, 16); }, mode, 8,
            rng);
    };
    for (InjectionMode mode :
         {InjectionMode::DestReg, InjectionMode::StoreAddress}) {
        SCOPED_TRACE(injectionModeName(mode));
        const InjectionCampaignResult serial = campaign("1", mode);
        const InjectionCampaignResult parallel = campaign("4", mode);
        ASSERT_EQ(serial.records.size(), 8u);
        EXPECT_EQ(serial.histogram.total, 8u);
        EXPECT_EQ(parallel.goldenHash, serial.goldenHash);
        EXPECT_EQ(parallel.histogram.counts, serial.histogram.counts);
        EXPECT_TRUE(parallel.records == serial.records);
    }
    unsetenv("SASSI_SIM_THREADS");
}

} // namespace
