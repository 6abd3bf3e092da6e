#include "core/runtime.h"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <optional>

#include "util/bitops.h"
#include "util/logging.h"
#include "util/trace.h"

namespace sassi::core {

namespace {
thread_local DispatchState *tl_dispatch = nullptr;

const char *
flavorName(SiteFlavor f)
{
    switch (f) {
      case SiteFlavor::Before: return "before";
      case SiteFlavor::After: return "after";
      case SiteFlavor::KernelEntry: return "kernel_entry";
      case SiteFlavor::KernelExit: return "kernel_exit";
      case SiteFlavor::BlockHeader: return "block_header";
    }
    return "unknown";
}

/**
 * Registry handles for the per-dispatch bookkeeping, cached in the
 * executor's dispatcher-scratch slot so the hot path bumps plain
 * uint64s instead of hashing key strings on every handler call.
 * The slot is worker-private and dies with the executor, so the
 * cached pointers cannot outlive the registry shard they index.
 */
struct SiteMetricsCache
{
    uint64_t *calls = nullptr;
    MetricHistogram *lanes = nullptr;
    uint64_t *flavor[8] = {};        //!< Indexed by SiteFlavor.
    std::vector<uint64_t *> site;    //!< Indexed by site key (lazy).
};

SiteMetricsCache &
metricsCache(simt::Executor &exec, size_t num_sites)
{
    std::shared_ptr<void> &slot = exec.dispatcherScratch();
    if (!slot) {
        auto cache = std::make_shared<SiteMetricsCache>();
        Metrics &m = exec.metrics();
        cache->calls = &m.counter("core/dispatch/calls");
        cache->lanes = &m.histogram("core/dispatch/lanes");
        cache->site.assign(num_sites, nullptr);
        slot = std::move(cache);
    }
    return *static_cast<SiteMetricsCache *>(slot.get());
}

/**
 * Per-worker environment arena for fused-site dispatch. The
 * expensive parts of a HandlerEnv — four param-view constructors and
 * four Dim3 copies per lane — are invariant across every dispatch of
 * one (site, executor, warp, CTA); only the frame location moves.
 * So the arena keeps 32 fully-bound environments keyed by that
 * tuple: a key hit refreshes just the frame pointers (two stores per
 * view), a miss rebinds lazily, lane by lane, as lanes first appear
 * in an active mask.
 */
struct EnvArena
{
    std::array<HandlerEnv, sass::WarpSize> envs;
    const SiteInfo *keySite = nullptr;
    simt::Executor *keyExec = nullptr;
    simt::Warp *keyWarp = nullptr;
    uint64_t seq = 0; //!< exec->launchSeq(): no cross-launch alias.
    uint64_t cta = ~0ull;
    uint32_t boundMask = 0; //!< Lanes fully bound under this key.
    /**
     * Frame address each bound lane's views point at. Within one
     * arena key the host pointer is a pure function of the generic
     * address (same executor, warp, and local window), so a matching
     * address means the lane's views are already current and even
     * the two-store-per-view refresh can be skipped — the common
     * case for a site re-dispatched in a loop with a stable R1.
     */
    std::array<uint64_t, sass::WarpSize> frames;

    /** Point the active lanes' environments at this dispatch's
     *  frames, rebinding only what the key or frame changed. */
    const HandlerEnv *
    refresh(simt::Executor &exec, simt::Warp &warp,
            const SiteInfo &site, const uint64_t *frame_addr,
            uint8_t *const *frame_host)
    {
        if (keySite != &site || keyExec != &exec || keyWarp != &warp ||
            seq != exec.launchSeq() || cta != exec.ctaLinear()) {
            keySite = &site;
            keyExec = &exec;
            keyWarp = &warp;
            seq = exec.launchSeq();
            cta = exec.ctaLinear();
            boundMask = 0;
        }
        for (uint32_t m = warp.activeMask; m; m &= m - 1) {
            const int lane = std::countr_zero(m);
            const auto l = static_cast<size_t>(lane);
            if (!(boundMask & (1u << lane))) {
                envs[l].bind(exec, warp, lane, site, frame_addr[l],
                             frame_host[l]);
                boundMask |= 1u << lane;
            } else if (frames[l] != frame_addr[l]) {
                envs[l].rebindFrame(frame_addr[l], frame_host[l]);
            }
            frames[l] = frame_addr[l];
        }
        return envs.data();
    }
};

/**
 * The per-worker arena pool: one EnvArena per (site key, warp rank),
 * allocated lazily as dispatches touch each combination. A single
 * arena would thrash — a kernel's sites dispatch round-robin across
 * the CTA's warps, so consecutive inline dispatches almost never
 * share a (site, warp) pair. With the pool, each site's per-warp
 * invariants survive the whole launch and a dispatch is a key check
 * plus frame-address compares.
 */
struct ArenaPool
{
    std::vector<std::vector<std::unique_ptr<EnvArena>>> bySite;

    EnvArena &
    at(size_t site_key, size_t rank)
    {
        if (bySite.size() <= site_key)
            bySite.resize(site_key + 1);
        auto &ranks = bySite[site_key];
        if (ranks.size() <= rank)
            ranks.resize(rank + 1);
        if (!ranks[rank])
            ranks[rank] = std::make_unique<EnvArena>();
        return *ranks[rank];
    }
};
} // namespace

DispatchState *
currentDispatch()
{
    return tl_dispatch;
}

SassiRuntime::SassiRuntime(simt::Device &dev)
    : dev_(dev)
{
    panic_if(dev_.dispatcher() != nullptr,
             "device already has a SASSI runtime installed");
    dev_.setDispatcher(this);
}

SassiRuntime::~SassiRuntime()
{
    if (dev_.dispatcher() == this)
        dev_.setDispatcher(nullptr);
}

int32_t
SassiRuntime::addSite(SiteInfo site)
{
    site.metricCalls =
        detail::strFormat("core/site/%s@%d/calls",
                          site.kernelName.c_str(), site.origPc);
    site.metricFlavor =
        std::string("core/dispatch/flavor/") + flavorName(site.flavor);
    // Once per site: dstRegs()/srcRegs() allocate.
    if (site.hasRegParams) {
        const auto names_sp = [](const std::vector<sass::RegId> &regs) {
            return std::ranges::find(regs, sass::abi::StackPtr) !=
                   regs.end();
        };
        site.regParamsNameStackPtr = names_sp(site.instr.dstRegs()) ||
                                     names_sp(site.instr.srcRegs());
    }
    sites_.push_back(std::move(site));
    return static_cast<int32_t>(sites_.size()) - 1;
}

void
SassiRuntime::instrument(const InstrumentOptions &opts)
{
    panic_if(instrumented_, "module instrumented twice through the same "
             "runtime");
    instrumented_ = true;
    opts_ = opts;
    // Rewrite a copy and load it back: loading is the device's one
    // way to change code, and it drops the programs compiled from
    // the bare kernels.
    ir::Module module = dev_.module();
    instrumentModule(module, opts, *this);
    dev_.loadModule(std::move(module));

    static_metrics_.counter("core/sites/total") = sites_.size();
    for (const SiteInfo &s : sites_) {
        static_metrics_.inc(std::string("core/sites/") +
                            flavorName(s.flavor));
        uint64_t slots = static_cast<uint64_t>(popc(s.spillMask));
        static_metrics_.counter("core/static/spill_slots") += slots;
        static_metrics_.counter("core/static/spill_bytes") +=
            slots * 4;
        if (s.persistentSpills)
            static_metrics_.inc("core/static/persistent_spill_sites");
    }
}

bool
SassiRuntime::inlineDispatchable(int32_t site_key)
{
    // A null handler (metrics-only dispatch) always qualifies;
    // otherwise the handler must be reentrant-safe and, when
    // warp-synchronous, supply a warp-level body (there are no
    // fibers to rendezvous through inline). A register-info site
    // that names R1 stays generic: the handler would read a
    // different live R1 inside a fused site.
    const SiteInfo &site = sites_.at(static_cast<size_t>(site_key));
    const Slot &s = slot(site);
    return !s.handler ||
           (s.traits.reentrantSafe && !site.regParamsNameStackPtr &&
            (!s.traits.warpSynchronous || s.traits.warpFn));
}

bool
SassiRuntime::handlerRuns(simt::Executor &exec, simt::Warp &warp,
                          int32_t site_key)
{
    const SiteInfo &site = sites_.at(static_cast<size_t>(site_key));
    const Slot &s = slot(site);
    return s.handler &&
           (!s.traits.warpFilter || s.traits.warpFilter(exec, warp, site));
}

void
SassiRuntime::noteDispatch(simt::Executor &exec, simt::Warp &warp,
                           int32_t site_key)
{
    const SiteInfo &site = sites_.at(static_cast<size_t>(site_key));
    exec.chargeHandlerCost(opts_.handlerCostInstrs);

    // Dynamic per-site counts go into the worker's launch-registry
    // shard, so they merge deterministically like everything else.
    SiteMetricsCache &cache = metricsCache(exec, sites_.size());
    ++*cache.calls;
    uint64_t *&fl = cache.flavor[static_cast<size_t>(site.flavor)];
    if (!fl)
        fl = &exec.metrics().counter(site.metricFlavor);
    ++*fl;
    uint64_t *&sc = cache.site[static_cast<size_t>(site_key)];
    if (!sc)
        sc = &exec.metrics().counter(site.metricCalls);
    ++*sc;
    cache.lanes->observe(static_cast<uint64_t>(popc(warp.activeMask)));
}

bool
SassiRuntime::dispatch(simt::Executor &exec, simt::Warp &warp,
                       int32_t site_key, const uint64_t *frame_addr,
                       uint8_t *const *frame_host, bool fused)
{
    noteDispatch(exec, warp, site_key);
    // A fused site asked handlerRuns once, at entry, and dispatches
    // only on a yes; a generic JCAL asks here.
    if (!fused && !handlerRuns(exec, warp, site_key))
        return false;

    const SiteInfo &site = sites_.at(static_cast<size_t>(site_key));
    const Handler &handler = slot(site).handler;
    const HandlerTraits &traits = slot(site).traits;

    // Per-thread dispatch state: parallel CTA workers dispatch
    // concurrently, and dispatches never nest (handlers are host
    // closures).
    static thread_local DispatchState ds;
    ds.exec = &exec;
    ds.fibers = nullptr;
    ds.frameWritten = false;

    // Where the environments come from. A fused site reuses its
    // per-(site, warp) arena. A generic JCAL rebinds its active
    // lanes in one per-thread array: an arena pool there would keep
    // ~8.5 KB per (site, warp rank) alive for the thread's lifetime,
    // on a path that only serves launches with the fast path off,
    // handlers that are not inline-safe, and sites that must stay
    // generic (R1 register info, a spent watchdog budget).
    const HandlerEnv *envs;
    if (fused) {
        static thread_local ArenaPool arena_pool;
        envs = arena_pool
                   .at(static_cast<size_t>(site_key),
                       static_cast<size_t>(warp.rank))
                   .refresh(exec, warp, site, frame_addr, frame_host);
    } else {
        static thread_local std::array<HandlerEnv, sass::WarpSize>
            generic_envs;
        for (uint32_t m = warp.activeMask; m; m &= m - 1) {
            const int lane = std::countr_zero(m);
            generic_envs[static_cast<size_t>(lane)].bind(
                exec, warp, lane, site,
                frame_addr[static_cast<size_t>(lane)], nullptr);
        }
        envs = generic_envs.data();
    }

    // Handler wall-clock goes to the timeline only — never into the
    // registry, which must stay thread-count-invariant.
    Trace &trace = Trace::global();
    const bool traced = trace.enabled();
    const uint64_t t0 = traced ? trace.nowNs() : 0;

    // How the lanes run. The first lane fault is kept and rethrown
    // once every lane has stopped: never unwind across a fiber.
    std::optional<simt::SimFault> fault;
    const auto noteFault = [&](const simt::SimFault &f) {
        if (!fault)
            fault = f;
    };
    tl_dispatch = &ds;
    try {
        if (fused && traits.warpFn) {
            // One warp-level call beats 32 lane calls; its contract
            // is observational identity with the per-lane body.
            traits.warpFn(traits.warpCtx,
                          WarpHandlerEnv{envs, warp.activeMask});
        } else if (!fused && traits.warpSynchronous) {
            // One fiber group per OS thread: ucontext fiber state
            // must never be shared (or migrated) across threads.
            static thread_local FiberGroup fibers;
            static thread_local std::vector<int> lanes;
            lanes.clear();
            for (uint32_t m = warp.activeMask; m; m &= m - 1)
                lanes.push_back(std::countr_zero(m));
            ds.fibers = &fibers;
            fibers.run(lanes, [&](int lane) {
                try {
                    handler(envs[static_cast<size_t>(lane)]);
                } catch (const simt::SimFault &f) {
                    noteFault(f);
                }
            });
        } else {
            for (uint32_t m = warp.activeMask; m; m &= m - 1)
                handler(envs[static_cast<size_t>(std::countr_zero(m))]);
        }
    } catch (const simt::SimFault &f) {
        noteFault(f);
    }
    tl_dispatch = nullptr;

    if (traced) {
        trace.complete(
            detail::strFormat("%s@%d %s", site.kernelName.c_str(),
                              site.origPc, flavorName(site.flavor)),
            "handler", exec.traceTid(), t0, trace.nowNs() - t0,
            {{"site", static_cast<uint64_t>(site_key)},
             {"lanes", static_cast<uint64_t>(popc(warp.activeMask))}});
    }

    if (fault)
        throw *fault;
    return ds.frameWritten;
}

} // namespace sassi::core
