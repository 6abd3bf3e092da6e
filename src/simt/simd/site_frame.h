/**
 * @file
 * SIMD tier for phase-A frame materialization of fused
 * instrumentation sites (simt/site_fuse.h).
 *
 * The scalar path (storeSiteFrame in executor.cc) walks every
 * template store lane by lane: ~16 stores x 32 lanes of switch + memcpy per
 * dispatch dominates instrumented run time. The SoA register file
 * makes each store's 32 lane values one contiguous span (Kind::Reg)
 * or a pure function of lane bitmasks (PredBits/CC/GuardFlag), so
 * this tier computes each store's values 8 lanes at a time, runs an
 * 8x8 transpose, and writes each lane's adjacent frame slots with a
 * single (masked) 256-bit store.
 *
 * Compiled with -mavx2 only in site_frame.cc (same single-TU pattern
 * as simd_exec.cc); on non-AVX2 builds storeSiteFrames() returns
 * false and the caller keeps the scalar loop.
 */

#ifndef SASSI_SIMT_SIMD_SITE_FRAME_H
#define SASSI_SIMT_SIMD_SITE_FRAME_H

#include <cstddef>
#include <cstdint>

namespace sassi::simt {
struct SiteRun;
struct Warp;
} // namespace sassi::simt

namespace sassi::simt::simd {

/** Everything phase-A materialization reads, captured by the caller
 *  (Executor::enterSiteRun) after its per-lane precomputation; the
 *  scalar store loop reads the same context. */
struct SiteFrameCtx
{
    const SiteRun *run = nullptr;
    const Warp *warp = nullptr;
    uint32_t active = 0;
    /** Per-lane frame base inside host local memory (active lanes). */
    uint8_t *const *fptr = nullptr;
    /** Recomputed memory-operand address words; zero-filled at
     *  inactive lanes so whole-chunk vector loads stay defined. */
    const uint32_t *addrLo = nullptr;
    const uint32_t *addrHi = nullptr;
    /** Carry of the low address add, 0 or 1 per lane. */
    const uint32_t *carry = nullptr;
    /** Lane 0's local memory; lane rows stride by lstride bytes. */
    uint8_t *lmem0 = nullptr;
    size_t lstride = 0;
    /** Register file base (register-major) and register budget. */
    const uint32_t *regs0 = nullptr;
    int numRegs = 0;
};

/**
 * Materialize every template store of ctx.run for all active lanes.
 * Writes exactly the bytes the scalar store loop writes.
 *
 * @return true when the AVX2 tier handled the frame; false when it
 *         is compiled out (caller must run the scalar loop).
 */
bool storeSiteFrames(const SiteFrameCtx &ctx);

} // namespace sassi::simt::simd

#endif // SASSI_SIMT_SIMD_SITE_FRAME_H
