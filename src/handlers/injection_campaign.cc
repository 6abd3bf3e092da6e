#include "handlers/injection_campaign.h"

#include <atomic>

#include "simt/thread_pool.h"
#include "util/logging.h"

namespace sassi::handlers {

InjectionOutcome
classifyInjection(const simt::LaunchResult &last, bool hashEqual)
{
    switch (last.outcome) {
      case simt::Outcome::Ok:
        return hashEqual ? InjectionOutcome::Masked
                         : InjectionOutcome::SDC;
      case simt::Outcome::Hang: return InjectionOutcome::Hang;
      case simt::Outcome::Trap: return InjectionOutcome::FailureSymptom;
      default: return InjectionOutcome::Crash;
    }
}

InjectionCampaignResult
runInjectionCampaign(
    const std::function<std::unique_ptr<workloads::Workload>()> &make,
    InjectionMode mode, size_t injections, Rng &rng)
{
    fatal_if(injections == 0,
             "an injection campaign needs at least one injection");
    const bool stores = mode != InjectionMode::DestReg;
    InjectionCampaignResult res;

    // --- Plan (serial): census, golden hash, site selection.
    std::string app;
    {
        auto w = make();
        app = w->name();
        simt::Device dev;
        w->setup(dev);
        core::SassiRuntime rt(dev);
        rt.instrument(ErrorInjectionProfiler::options(stores));
        ErrorInjectionProfiler profiler(dev, rt, 1 << 16, stores);
        fatal_if(!w->run(dev).ok() || !w->verify(dev),
                 "%s profiling run failed", app.c_str());
        res.census = stores ? profiler.storeProfiles()
                            : profiler.profiles();
        res.goldenHash = w->outputHash(dev);
    }
    std::vector<InjectionSite> sites =
        selectInjectionSites(res.census, injections, rng);
    fatal_if(sites.empty(), "%s has no injectable state", app.c_str());

    // --- Execute (parallel): jobs claim sites off an atomic cursor.
    // Each launch has one worker, which the pool runs inline on the
    // job's thread, so no nested batch forms.
    res.records.resize(sites.size());
    std::atomic<size_t> cursor{0};
    auto inject = [&](size_t i) {
        InjectionRecord &rec = res.records[i];
        rec.site = sites[i];
        rec.site.mode = mode;
        auto w = make();
        simt::Device dev;
        w->setup(dev);
        dev.mapSlack(kInjectionSlackBytes);
        core::SassiRuntime rt(dev);
        rt.instrument(ErrorInjector::options(stores));
        ErrorInjector injector(dev, rt, rec.site);
        w->launchOptions.numThreads = 1;
        w->launchOptions.watchdog = kInjectionWatchdog;
        const simt::LaunchResult last = w->run(dev);
        rec.injected = injector.injected();
        rec.description = injector.description();
        if (last.ok())
            rec.outputHash = w->outputHash(dev);
        rec.outcome = classifyInjection(
            last, last.ok() && rec.outputHash == res.goldenHash);
    };
    simt::ThreadPool::global().parallelFor(
        simt::resolveSimThreads(0, sites.size()), [&](int) {
            for (size_t i = cursor++; i < sites.size(); i = cursor++)
                inject(i);
        });

    // --- Merge (serial, selection order).
    for (const InjectionRecord &rec : res.records)
        ++res.histogram.counts[static_cast<size_t>(rec.outcome)];
    res.histogram.total = res.records.size();
    return res;
}

} // namespace sassi::handlers
