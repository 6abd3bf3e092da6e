/**
 * @file
 * The hook through which JCALs to instrumentation handlers re-enter
 * tool code. The simulator stays independent of the SASSI core: it
 * only knows that a JCAL whose target is at or above HandlerBase is
 * a handler trampoline and forwards it here.
 */

#ifndef SASSI_SIMT_DISPATCHER_H
#define SASSI_SIMT_DISPATCHER_H

#include <cstdint>

namespace sassi::simt {

class Executor;
struct Warp;

/** JCAL targets >= HandlerBase name instrumentation handlers. */
constexpr int32_t HandlerBase = 1 << 24;

/** Receiver of handler-trampoline calls. */
class HandlerDispatcher
{
  public:
    virtual ~HandlerDispatcher() = default;

    /**
     * Execute handler site_key for the warp currently at a JCAL.
     * Both ways the executor reaches a site — the generic
     * per-instruction JCAL and a fused site (simt/site_fuse.h) —
     * land here, so every dispatch gets the same bookkeeping, the
     * same handler effects, and the same fault surfacing. The one
     * exception is a fused visit that handlerRuns() said runs no
     * handler body: it calls noteDispatch() alone.
     *
     * @param exec The running executor (register/memory access).
     * @param warp The calling warp; activeMask lanes made the call.
     * @param site_key target - HandlerBase of the JCAL.
     * @param frame_addr Per-lane generic address of the site's
     *        parameter frame (indexed by lane; active lanes only).
     * @param frame_host Per-lane host pointer to the same frame
     *        bytes, or null on a generic JCAL (views then go
     *        through the generic address).
     * @param fused Whether the call comes from a fused site. Only
     *        sites inlineDispatchable() accepted are fused; they run
     *        without a fiber group, and only visits handlerRuns()
     *        accepted at entry dispatch.
     * @return true when the handler wrote device memory that a fused
     *         site's epilogue may reload (the parameter frame or the
     *         lane-local window). A false return licenses the caller
     *         to skip identity fills — the frame still holds exactly
     *         what the prologue spilled.
     */
    virtual bool dispatch(Executor &exec, Warp &warp, int32_t site_key,
                          const uint64_t *frame_addr,
                          uint8_t *const *frame_host, bool fused) = 0;

    /**
     * @return whether a handler body runs for this warp at site_key.
     * dispatch() asks it on a generic JCAL; a fused site asks it
     * once per visit, at entry, before any frame store, and on a no
     * (an idle visit) calls noteDispatch() at the JCAL round instead
     * of dispatch().
     */
    virtual bool handlerRuns(Executor &exec, Warp &warp,
                             int32_t site_key) = 0;

    /**
     * The bookkeeping of one site call, whether or not a handler
     * body runs: dispatch() starts with it, and an idle fused visit
     * does only this.
     */
    virtual void noteDispatch(Executor &exec, Warp &warp,
                              int32_t site_key) = 0;

    /**
     * @return true when the handler behind site_key may be called
     * from the executor's fused-site path — i.e.\ without a fiber
     * group (so it must never suspend or use warp-rendezvous
     * intrinsics). Sites that answer false take the generic
     * per-instruction path with the full fiber dispatch.
     */
    virtual bool
    inlineDispatchable(int32_t site_key)
    {
        (void)site_key;
        return false;
    }
};

} // namespace sassi::simt

#endif // SASSI_SIMT_DISPATCHER_H
