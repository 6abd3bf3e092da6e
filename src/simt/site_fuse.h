/**
 * @file
 * Compiled instrumentation sites: the frame-template recognizer.
 *
 * The SASSI pass (core/instrument.cc) splices a fixed-shape bundle
 * of synthetic instructions around every instrumentation point:
 * stack-frame prologue, liveness-driven register/predicate/CC
 * spills, parameter-block construction, a JCAL trampoline into the
 * handler dispatcher, fills, and the epilogue. Interpreting that
 * bundle one instruction at a time — and crossing into handler code
 * through a per-site fiber round-trip — dominates instrumented run
 * time (paper §9.1's overhead discussion).
 *
 * This module recognizes those bundles at decode time, entirely from
 * the instruction stream (no side channel from the instrumenter:
 * anything unrecognized simply stays on the generic path). Each
 * recognized bundle becomes a SiteRun: a prebuilt frame template —
 * the list of frame-slot stores with symbolic values (constant,
 * register contents, recomputed memory address, guard flag,
 * predicate/CC bits) — plus the register effects and pred/CC
 * restores of the epilogue. The executor can then materialize the
 * whole frame with direct stores, invoke the handler inline when the
 * dispatcher allows it, and apply the epilogue effects, charging
 * exactly the statistics the generic path would have.
 *
 * The recognizer is deliberately conservative: a bundle is accepted
 * only when every instruction's symbolic meaning is proven, so a
 * SiteRun is observationally equivalent to stepping the bundle — the
 * differential tests and the fuzz oracle's fast-path dimension hold
 * it to bit-identical device memory, stats, and metrics.
 */

#ifndef SASSI_SIMT_SITE_FUSE_H
#define SASSI_SIMT_SITE_FUSE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "sass/opcode.h"
#include "sassir/module.h"

namespace sassi::simt {

/**
 * One 32-bit store of the frame template (phase A, before the
 * handler runs). The slot is frame-relative unless abs is set, in
 * which case it addresses the lane's persistent spill area at the
 * bottom of the local window (spill elision, core/instrument.cc).
 */
struct SiteStore
{
    enum class Kind : uint8_t {
        Const,     //!< Literal value (imm).
        Reg,       //!< Contents of GPR reg at site entry.
        AddrLo,    //!< Low word of the recomputed memory address.
        AddrHi,    //!< High word of the recomputed memory address.
        PredBits,  //!< Predicate file bits masked with imm.
        CCOrig,    //!< 0x80 when the carry flag is set at entry.
        CCCarry,   //!< 0x80 when the address-add carried (IADD.CC
                   //!< runs before the CC spill, so the spilled CC
                   //!< is the carry of the low address word).
        GuardFlag, //!< 1 when predicate reg (negated by neg) holds.
    };

    Kind kind = Kind::Const;
    bool abs = false;   //!< Absolute local-window offset (persistent).
    bool spill = false; //!< Counts as spill/fill traffic.
    uint8_t reg = 0;    //!< Reg: source GPR; GuardFlag: predicate.
    bool neg = false;   //!< GuardFlag: guard negation.
    uint32_t off = 0;   //!< Byte offset (frame-relative or absolute).
    uint32_t imm = 0;   //!< Const: value; PredBits: mask.
};

/**
 * The final value of one GPR after the bundle (phase B, after the
 * handler returns). Registers not listed keep their entry value —
 * spills never modify registers, so the bundle's net register
 * effect is just the scratch/fill residue the epilogue leaves.
 */
struct SiteRegEffect
{
    enum class Kind : uint8_t {
        Const,    //!< imm.
        FrameRel, //!< Entry R1 plus rel (mod 2^32).
        AddrLo,   //!< Low word of the recomputed memory address.
        AddrHi,   //!< High word of the recomputed memory address.
        GenLo,    //!< Low word of the generic address of R1 + rel.
        GenHi,    //!< High word of the same generic address.
        Load,     //!< 32-bit loaded from frame slot off (post-handler).
    };

    Kind kind = Kind::Const;
    uint8_t reg = 0;  //!< Destination GPR.
    bool abs = false; //!< Load: absolute local-window offset.
    uint32_t off = 0; //!< Load: byte offset.
    uint32_t imm = 0; //!< Const: value.
    int64_t rel = 0;  //!< FrameRel/GenLo/GenHi: offset from entry R1.

    /**
     * The effect provably rewrites the register's current value: a
     * fill from the exact slot phase A spilled that register to, or
     * the net-zero stack pop of R1. The fused path skips identity
     * effects whenever the handler did not write frame memory (no
     * SetRegValue etc.) — registers cannot change between the two
     * phases any other way, since the parked warp executes nothing.
     */
    bool identity = false;
};

/**
 * Execution statistics of one half of a bundle (prologue through
 * JCAL, or post-JCAL epilogue), precomputed so the fused path can
 * charge LaunchStats/metrics exactly as per-instruction stepping
 * would. Everything in a bundle executes under the full active mask
 * except guarded flag pairs, whose two halves partition it — hence
 * threadInstrs = threadFactor * popc(activeMask).
 */
struct SiteRunStats
{
    uint64_t warpInstrs = 0;
    uint64_t threadFactor = 0;
    uint64_t memInstrs = 0;      //!< STL/LDL count (countsAsMem).
    uint64_t spillInstrs = 0;    //!< Instructions flagged spillFill.
    uint64_t spillWidthSum = 0;  //!< Sum of spillFill widths (bytes
                                 //!< per active lane).
    std::vector<std::pair<sass::Opcode, uint32_t>> opcodeCounts;
};

/**
 * SIMD store plan: one aligned group of 8 consecutive 4-byte slots
 * of one row (frame-relative or absolute), covering every template
 * store whose offset falls in [base, base + 32). The SIMD frame tier
 * (simt/simd/site_frame.cc) computes each store's 32 lane values
 * vertically, then per group transposes 8 lanes at a time and writes
 * each lane's 32-byte span with a single 256-bit store — masked by
 * `mask` so slots no store writes keep their previous bytes, exactly
 * like the scalar loop. rowSrc holds the index of the *last* store
 * writing each slot, so aliasing stores land with scalar semantics
 * (stores shadowed by a later one to the same slot are dead and the
 * SIMD tier never evaluates them). Groups whose written slots are
 * all Const stores produce the identical 32-byte row for every lane;
 * constOnly/constVal bake that row at compile time so the runtime
 * skips the gather and transpose for them wholesale.
 */
struct SiteSlotGroup
{
    uint32_t base = 0;     //!< Byte offset of slot 0 (32-byte units).
    bool abs = false;      //!< Absolute local-window row.
    bool constOnly = false; //!< All written slots are Const stores.
    bool regConst = false; //!< All written slots are Reg or Const
                           //!< stores: the runtime evaluates slots
                           //!< via regIdx/constVal (load-or-splat)
                           //!< instead of the per-kind dispatch.
    uint8_t mask = 0;      //!< Bit j set: slot j is written.
    uint8_t rowSrc[8] = {0xff, 0xff, 0xff, 0xff,
                         0xff, 0xff, 0xff, 0xff}; //!< 0xff = gap.
    uint8_t regIdx[8] = {0xff, 0xff, 0xff, 0xff,
                         0xff, 0xff, 0xff, 0xff}; //!< Reg slot: the
                           //!< source GPR; 0xff: use constVal[j].
    int32_t maskVec[8] = {0}; //!< -1 where written, 0 where gap
                              //!< (ready-made maskstore operand).
    uint32_t constVal[8] = {0}; //!< Baked values of Const slots (and
                                //!< the zero rows of gap slots).
};

/** One recognized instrumentation-site bundle. */
struct SiteRun
{
    uint32_t start = 0;   //!< First instruction (the prologue IADD).
    uint32_t len = 0;     //!< Bundle length in instructions.
    uint32_t jcalIdx = 0; //!< Run-relative index of the JCAL.
    int32_t siteKey = 0;  //!< JCAL target minus HandlerBase.

    /** Prologue stack adjustment (negative); frame size is -frameRel. */
    int64_t frameRel = 0;

    /** @return the per-lane frame size in bytes. */
    int64_t frameBytes() const { return -frameRel; }

    // Recomputed memory-operand address (memoryInfo sites). The
    // address registers hold their entry values when the bundle's
    // address adds ran, so the fused path can recompute from the
    // live register file: lo = lo32(reg(addrLoReg) + addrImmLo),
    // carry = bit 32 of that sum, and for 64-bit bases
    // hi = lo32(reg(addrHiReg) + addrImmHi + carry).
    bool hasAddr = false;
    bool addrPair = false;
    uint8_t addrLoReg = 0;
    uint8_t addrHiReg = 0;
    uint32_t addrImmLo = 0;
    uint32_t addrImmHi = 0;

    // Epilogue predicate/CC restores (from the R2P fills). The
    // identity flags mirror SiteRegEffect::identity: the restore
    // reloads the slot phase A spilled the full predicate file (or
    // the entry CC) to, so it is a no-op unless the handler wrote
    // frame memory.
    bool restorePred = false;
    bool restorePredAbs = false;
    bool restorePredIdentity = false;
    uint32_t restorePredOff = 0;
    bool restoreCC = false;
    bool restoreCCAbs = false;
    bool restoreCCIdentity = false;
    uint32_t restoreCCOff = 0;

    std::vector<SiteStore> stores;      //!< Phase A frame template.
    std::vector<SiteSlotGroup> groups;  //!< SIMD store plan (empty
                                        //!< when the template is not
                                        //!< vectorizable; the scalar
                                        //!< loop is always correct).
    std::vector<SiteRegEffect> effects; //!< Phase B register effects.

    /**
     * The template stores an idle visit keeps. An idle visit runs no
     * handler body (no handler registered, or its warp filter
     * rejected the warp), so nothing reads the parameter block; the
     * frame only has to hold what is read back after the JCAL:
     * every persistent (abs) spill slot, which later sites' fills
     * read, and every slot a non-identity Load effect or pred/CC
     * restore reads. Template order, so aliasing stores still land
     * last-wins.
     */
    std::vector<SiteStore> idleStores;

    /** Spill bytes per lane among idleStores (4 per spill store). */
    uint64_t idleSpillBytes = 0;

    /**
     * Every phase-B effect (including the pred/CC restores) is an
     * identity rewrite: when the handler leaves frame memory clean
     * the executor can skip the whole epilogue-replay block — the
     * per-lane setup loops included — not just individual effects.
     */
    bool effectsAllIdentity = false;

    /** Some phase-B effect reads the recomputed memory address. */
    bool effectsNeedAddr = false;

    SiteRunStats pre;  //!< Instructions start .. start+jcalIdx.
    SiteRunStats post; //!< Instructions start+jcalIdx+1 .. start+len-1.

    /** @return spill/fill bytes charged per active lane. */
    uint64_t
    spillBytesPerLane() const
    {
        return pre.spillWidthSum + post.spillWidthSum;
    }
};

/**
 * Scan a kernel for instrumentation-site bundles. leader must be
 * ir::blockLeaders(kernel); a bundle with a branch target strictly
 * inside it is rejected (control may enter mid-bundle).
 *
 * @return recognized runs in ascending, non-overlapping start order.
 */
std::vector<SiteRun> compileSiteRuns(const ir::Kernel &kernel,
                                     const std::vector<uint8_t> &leader);

} // namespace sassi::simt

#endif // SASSI_SIMT_SITE_FUSE_H
