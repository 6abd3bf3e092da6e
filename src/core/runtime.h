/**
 * @file
 * The SASSI runtime: site registry, handler registration, and the
 * JCAL dispatcher that executes user handlers warp-synchronously.
 *
 * In the real tool, handlers are CUDA functions compiled with
 * -maxrregcount=16 and linked with nvlink (paper Figure 1); the
 * injected JCAL transfers control to them on the GPU. Here the
 * handler bodies are host C++ closures, and all parameter data still
 * flows through the simulated stack frames the injected SASS
 * materialized. Every site call, whether the executor reaches it by
 * a generic JCAL or through a fused site, goes through one dispatch
 * body (SassiRuntime::dispatch), except a fused visit that runs no
 * handler body, which does only dispatch's bookkeeping
 * (SassiRuntime::noteDispatch). A warp-synchronous handler on the
 * generic path runs on one fiber per active lane, so warp-wide
 * intrinsics (__ballot, __shfl, __all) synchronize exactly as they
 * would on hardware; a fused site instead calls the handler's
 * warp-level body (HandlerTraits::warpFn) once per warp.
 */

#ifndef SASSI_CORE_RUNTIME_H
#define SASSI_CORE_RUNTIME_H

#include <functional>
#include <vector>

#include "core/options.h"
#include "core/params.h"
#include "core/site.h"
#include "simt/device.h"
#include "util/fiber.h"
#include "util/metrics.h"

namespace sassi::core {

/** Everything a handler can see about one lane at one site. */
struct HandlerEnv
{
    /** Site/instruction facts (also the after-params view). */
    SASSIBeforeParams bp;

    /** Memory params; valid when site->hasMemParams. */
    SASSIMemoryParams mp;

    /** Branch params; valid when site->hasBranchParams. */
    SASSICondBranchParams brp;

    /** Register params; valid when site->hasRegParams. */
    SASSIRegisterParams rp;

    /** Static site metadata. */
    const SiteInfo *site = nullptr;

    int lane = 0;
    simt::Dim3 threadIdx;
    simt::Dim3 blockIdx;
    simt::Dim3 blockDim;
    simt::Dim3 gridDim;

    /** Bind every field for one lane at one site (full rebuild). */
    void
    bind(simt::Executor &exec, simt::Warp &warp, int lane_id,
         const SiteInfo &site_info, uint64_t frame, uint8_t *host)
    {
        bp = SASSIBeforeParams(&exec, &warp, lane_id, frame,
                               &site_info, host);
        mp = SASSIMemoryParams(&exec, &warp, lane_id, frame,
                               &site_info, host);
        brp = SASSICondBranchParams(&exec, &warp, lane_id, frame,
                                    &site_info, host);
        rp = SASSIRegisterParams(&exec, &warp, lane_id, frame,
                                 &site_info, host);
        site = &site_info;
        lane = lane_id;
        threadIdx = exec.threadIdx(warp, lane_id);
        blockIdx = exec.ctaId();
        blockDim = exec.blockDim();
        gridDim = exec.gridDim();
    }

    /** Repoint all four views at a new frame (invariants kept). */
    void
    rebindFrame(uint64_t frame, uint8_t *host)
    {
        bp.rebindFrame(frame, host);
        mp.rebindFrame(frame, host);
        brp.rebindFrame(frame, host);
        rp.rebindFrame(frame, host);
    }
};

/** User handler: one invocation per active lane per site. */
using Handler = std::function<void(const HandlerEnv &)>;

/**
 * Warp-level view handed to a HandlerTraits::warpFn: the
 * per-lane environments (indexed by lane id; only activeMask lanes
 * are populated) of one dispatch. The warp handler sees all lanes
 * at once, so it can compute ballots/reductions directly instead of
 * rendezvousing through fibers.
 */
struct WarpHandlerEnv
{
    const HandlerEnv *envs = nullptr; //!< Indexed by lane id.
    uint32_t activeMask = 0;
};

/**
 * Warp-level handler: one invocation per active warp per site. A
 * plain function pointer plus an opaque context (HandlerTraits::
 * warpCtx, usually the tool or its device state), so the
 * fused-site path's per-dispatch cost is one predictable indirect
 * call.
 */
using WarpHandlerFn = void (*)(const void *ctx,
                               const WarpHandlerEnv &we);

/** Static properties of a registered handler. */
struct HandlerTraits
{
    /**
     * Whether the handler uses warp-wide intrinsics (__ballot,
     * __shfl, __all). Warp-synchronous handlers execute on one
     * fiber per lane so the intrinsics can rendezvous; handlers
     * that only use atomics and plain loads/stores (like the
     * paper's Figure 3 counter handler) run on a fast path that
     * simply iterates the active lanes.
     */
    bool warpSynchronous = true;

    /**
     * Whether the handler may be invoked inline from the
     * interpreter's fused-site fast path (simt/site_fuse.h), with no
     * fiber group backing it. The contract:
     *  - the handler never suspends: no warp-rendezvous intrinsic
     *    outside warpFn;
     *  - it touches registers only through the slots the prologue
     *    spilled (the site's live registers and, with register info,
     *    its destinations). The fused path calls it before the ABI
     *    scratch registers (R2-R13) take their post-prologue values,
     *    so a raw read of an unspilled scratch register would differ
     *    from the generic path. Writes through SetRegValue/
     *    SetPredValue/SetCCValue land in the frame and flag the
     *    dispatch, so the fused epilogue replays the fills exactly
     *    as the generic one does;
     *  - the stack pointer is the one register the pass never
     *    spills, so register-info sites whose instruction names R1
     *    are never inlined, whatever this flag says (SiteInfo::
     *    regParamsNameStackPtr).
     * Every bundled tool satisfies it, the error injector included;
     * a handler that suspends or reads raw scratch state must leave
     * it false.
     */
    bool reentrantSafe = false;

    /**
     * Warp-level equivalent of the per-lane handler, required for a
     * warpSynchronous handler to qualify for inline dispatch: the
     * fused path cannot rendezvous lanes through fibers, so the
     * handler author supplies the whole-warp computation explicitly.
     * A fused site prefers it over the per-lane handler whenever it
     * is set; the generic path always runs the per-lane handler, so
     * the fast path off checks one against the other. Must be
     * observationally identical to running the per-lane handler on
     * fibers (same device writes, same order of atomics per warp).
     * warpCtx is passed through verbatim.
     */
    WarpHandlerFn warpFn = nullptr;
    const void *warpCtx = nullptr;

    /**
     * Optional warp-level predicate evaluated before any lane's
     * handler body runs; returning false skips the warp entirely.
     * This models a handler whose leading exit test is warp-uniform
     * (the error injector's kernel/thread match): the real tool
     * still pays the call on the GPU, so the modeled handler cost
     * is charged either way. A generic JCAL asks it at the call; a
     * fused site asks it once per visit, at entry, and on a false
     * writes only the frame slots its epilogue reads back. So its
     * answer must not change within a visit (between the site's
     * prologue and its JCAL round). The error injector's answer
     * depends only on its armed flag, which is set at launch and
     * cleared by the target warp's own handler or at launch end,
     * and on the warp's thread range.
     */
    std::function<bool(simt::Executor &, simt::Warp &,
                       const SiteInfo &)> warpFilter;
};

/** Per-dispatch shared state consulted by the CUDA intrinsics. */
struct DispatchState
{
    simt::Executor *exec = nullptr;
    FiberGroup *fibers = nullptr; //!< Null unless lanes run on fibers.
    /** Set by the params/intrinsics write paths when the handler
     *  stores into device memory the site frame could alias (the
     *  frame itself or the lane-local window). Clear at the end of
     *  a fused dispatch means the epilogue's identity fills can be
     *  skipped. */
    bool frameWritten = false;
};

/** @return the dispatch currently executing on this thread. */
DispatchState *currentDispatch();

/**
 * One SASSI instrumentation session over one device's module.
 * Construction installs the runtime as the device's handler
 * dispatcher; destruction removes it.
 */
class SassiRuntime : public simt::HandlerDispatcher
{
  public:
    explicit SassiRuntime(simt::Device &dev);
    ~SassiRuntime() override;

    SassiRuntime(const SassiRuntime &) = delete;
    SassiRuntime &operator=(const SassiRuntime &) = delete;

    /**
     * Run the SASSI pass over every kernel of the device's loaded
     * module, in place. May be called once per runtime.
     */
    void instrument(const InstrumentOptions &opts);

    /** Install the handler for before/entry/exit/header sites. */
    void
    setBeforeHandler(Handler h, HandlerTraits traits = {})
    {
        before_ = {std::move(h), std::move(traits)};
    }

    /** Install the handler for after sites. */
    void
    setAfterHandler(Handler h, HandlerTraits traits = {})
    {
        after_ = {std::move(h), std::move(traits)};
    }

    /** Register a site (used by the pass). @return its key. */
    int32_t addSite(SiteInfo site);

    /** @return site metadata by key. */
    const SiteInfo &
    site(int32_t key) const
    {
        return sites_.at(static_cast<size_t>(key));
    }

    /** @return the number of registered sites. */
    size_t numSites() const { return sites_.size(); }

    /** @return the options the module was instrumented with. */
    const InstrumentOptions &options() const { return opts_; }

    /**
     * Static instrumentation metrics, built once by instrument():
     * site counts per flavor ("core/sites/<flavor>") and the static
     * spill footprint ("core/static/spill_slots", ".../spill_bytes").
     * Dynamic per-site call counts land in each launch's registry
     * (LaunchResult::metrics) under "core/...".
     */
    const Metrics &staticMetrics() const { return static_metrics_; }

    /** @return the attached device. */
    simt::Device &device() { return dev_; }

    /**
     * The one dispatch body: does the noteDispatch() bookkeeping,
     * asks handlerRuns() (a generic JCAL only: a fused site asked at
     * entry), runs the handler with a DispatchState published to
     * the intrinsics, and rethrows the first lane fault once every
     * lane has stopped.
     * Only two things differ between the paths. A fused site's
     * environments come from a per-(site, warp) arena; a generic
     * JCAL rebinds its active lanes in one per-thread array. A fused
     * site calls warpFn when set and otherwise loops over the lanes;
     * a generic JCAL runs a warp-synchronous handler on fibers and
     * otherwise loops over the lanes.
     */
    bool dispatch(simt::Executor &exec, simt::Warp &warp,
                  int32_t site_key, const uint64_t *frame_addr,
                  uint8_t *const *frame_host, bool fused) override;

    /**
     * A site is inline-dispatchable when its handler is marked
     * reentrantSafe and either iterates lanes directly
     * (!warpSynchronous) or supplies a warpFn, unless the site has
     * register info on an instruction that names R1; a null handler
     * (metrics-only dispatch) always qualifies.
     */
    bool inlineDispatchable(int32_t site_key) override;

    /**
     * A handler body runs for the warp when the site's slot has a
     * handler and its warp filter, if any, accepts the warp.
     */
    bool handlerRuns(simt::Executor &exec, simt::Warp &warp,
                     int32_t site_key) override;

    /**
     * The per-call bookkeeping, with or without a handler body:
     * charges the modeled handler cost and bumps the "core/..."
     * registry (calls, flavor, per-site count, lanes histogram).
     */
    void noteDispatch(simt::Executor &exec, simt::Warp &warp,
                      int32_t site_key) override;

  private:
    /** A registered handler and its traits. */
    struct Slot
    {
        Handler handler; //!< Empty: metrics-only dispatch.
        HandlerTraits traits;
    };

    /** @return the slot serving a site: after sites take the after
     *  handler, every other flavor the before handler. Handlers are
     *  not re-registered mid-launch, so workers read it lock-free. */
    const Slot &
    slot(const SiteInfo &site) const
    {
        return site.flavor == SiteFlavor::After ? after_ : before_;
    }

    simt::Device &dev_;
    std::vector<SiteInfo> sites_;
    Slot before_;
    Slot after_;
    InstrumentOptions opts_;
    Metrics static_metrics_;
    bool instrumented_ = false;
};

/**
 * The SASSI pass itself, exposed for direct use on a Module (the
 * runtime's instrument() calls this on the device's module).
 * Registers every created site with the runtime and rewrites each
 * kernel: liveness-driven spills, frame construction, JCAL.
 */
void instrumentModule(ir::Module &module, const InstrumentOptions &opts,
                      SassiRuntime &runtime);

} // namespace sassi::core

#endif // SASSI_CORE_RUNTIME_H
