/**
 * @file
 * The paper's §8 error-injection flow as one function, shaped like
 * fuzz::runCampaign: plan (census, golden hash, site selection),
 * execute (each injection on a fresh device at one simulator thread,
 * side by side on the worker pool), merge (in selection order).
 */

#ifndef SASSI_HANDLERS_INJECTION_CAMPAIGN_H
#define SASSI_HANDLERS_INJECTION_CAMPAIGN_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "handlers/error_injector.h"
#include "util/rng.h"
#include "workloads/workload.h"

namespace sassi::handlers {

/** Injection-device heap slack: as on real hardware, most corrupted
 *  addresses still land in mapped memory. */
constexpr uint64_t kInjectionSlackBytes = 24u << 20;
/** Injection watchdog (an exact budget at one simulator thread), so
 *  corrupted control flow hangs fast. */
constexpr uint64_t kInjectionWatchdog = 4'000'000;

/** One injection run. */
struct InjectionRecord
{
    InjectionSite site;
    bool injected = false;   //!< ErrorInjector::injected().
    std::string description; //!< ErrorInjector::description().
    InjectionOutcome outcome = InjectionOutcome::Masked;
    uint64_t outputHash = 0; //!< 0 unless every launch completed.

    bool operator==(const InjectionRecord &) const = default;
};

/** Outcome counts, indexed by InjectionOutcome. */
struct InjectionHistogram
{
    std::array<uint64_t, 5> counts{};
    uint64_t total = 0;

    uint64_t operator[](InjectionOutcome o) const
    {
        return counts[static_cast<size_t>(o)];
    }
};

/** What a campaign found. */
struct InjectionCampaignResult
{
    /** The census sites were drawn from (stores for store modes). */
    std::vector<ErrorInjectionProfiler::LaunchProfile> census;
    uint64_t goldenHash = 0;
    std::vector<InjectionRecord> records; //!< In selection order.
    InjectionHistogram histogram;
};

/**
 * Hang → Hang, trap → FailureSymptom, any other fault → Crash; a
 * completed run is Masked when its output hash is the golden one,
 * else an SDC.
 */
InjectionOutcome classifyInjection(const simt::LaunchResult &last,
                                   bool hashEqual);

/**
 * Census, select `injections` sites from `rng`, inject each with
 * `mode`, and classify. Fatal on 0 injections, on a census run that
 * fails or does not verify, and on an empty census.
 */
InjectionCampaignResult runInjectionCampaign(
    const std::function<std::unique_ptr<workloads::Workload>()> &make,
    InjectionMode mode, size_t injections, Rng &rng);

} // namespace sassi::handlers

#endif // SASSI_HANDLERS_INJECTION_CAMPAIGN_H
