/**
 * @file
 * Architectural state of one warp.
 *
 * This is the state SASSI handlers can observe and (for the error-
 * injection study) mutate: general registers, predicate registers,
 * the carry flag, the divergence stack, and per-thread local memory.
 *
 * Layout is register-major (structure-of-arrays): the 32 lanes of
 * one general register are a contiguous 128-byte span, each
 * predicate register is a single 32-bit lane bitmask, and the carry
 * flag is one lane bitmask too. This is what lets the SIMD
 * interpreter layer (simt/simd/) execute an ALU micro-op for all 32
 * lanes with four 256-bit loads per operand, and it is also kinder
 * to the scalar lane loops, which walk consecutive words of each
 * operand span instead of striding by the register budget.
 */

#ifndef SASSI_SIMT_WARP_H
#define SASSI_SIMT_WARP_H

#include <array>
#include <cstdint>
#include <vector>

#include "sass/reg.h"
#include "util/logging.h"

namespace sassi::simt {

/** One token on the SIMT divergence (reconvergence) stack. */
struct DivToken
{
    enum class Kind {
        Sync, //!< Pushed by SSY: reconvergence point and mask.
        Div,  //!< Pushed by a divergent branch: the deferred path.
    };

    Kind kind = Kind::Sync;
    uint32_t mask = 0; //!< Lanes to activate when popped.
    uint32_t pc = 0;   //!< Where those lanes resume.
};

/** Architectural state of one 32-lane warp. */
struct Warp
{
    /** Warp rank within its CTA. */
    int rank = 0;

    /** Current program counter (instruction index). */
    uint32_t pc = 0;

    /** Lanes executing the current path. */
    uint32_t activeMask = 0;

    /** Lanes that have not executed EXIT. */
    uint32_t liveMask = 0;

    /** Register file, register-major: regs[r * WarpSize + lane]. */
    std::vector<uint32_t> regs;

    /** Predicate files: one 32-lane bitmask per predicate P0..P6. */
    std::array<uint32_t, sass::NumPred> predBits{};

    /** Carry flag, one bit per lane. */
    uint32_t ccMask = 0;

    /** The divergence stack. */
    std::vector<DivToken> divStack;

    /** Call return addresses (warp-wide; calls must be convergent). */
    std::vector<uint32_t> callStack;

    /** Per-thread local memory, lane-major: localBytes per lane. */
    std::vector<uint8_t> localMem;

    /** Set while parked at a CTA barrier. */
    bool atBarrier = false;

    /**
     * Scheduler rounds this warp still owes after batch-executing a
     * superblock (simt/decode.h). A run of n instructions consumes
     * one round and then parks here for n-1 more, so the warp's
     * *next* shared-state access (memory, atomic, barrier) lands in
     * exactly the round it would have under per-instruction
     * stepping — keeping warp interleaving, and therefore every
     * racing kernel's dynamic behavior, bit-identical between the
     * fast and generic paths.
     */
    uint32_t skipRounds = 0;

    /**
     * Nonzero while parked mid-way through a fused instrumentation
     * site (simt/site_fuse.h): the 1-based SiteRun id whose handler
     * dispatch and epilogue run in the warp's next scheduler round —
     * the round the generic path would have executed the JCAL in.
     */
    uint16_t pendingSite = 0;

    /**
     * With pendingSite: no handler body runs at that JCAL round (the
     * dispatcher's handlerRuns() said no at site entry), so the
     * round does only the dispatch bookkeeping.
     */
    bool pendingIdle = false;

    int numRegs = 0;
    uint32_t localBytes = 0;

    /** @return whether any lane is still live. */
    bool done() const { return liveMask == 0; }

    /** The contiguous 32-lane span of general register r (never RZ). */
    uint32_t *
    laneSpan(sass::RegId r)
    {
        return regs.data() +
               static_cast<size_t>(r) * sass::WarpSize;
    }

    /** @copydoc laneSpan */
    const uint32_t *
    laneSpan(sass::RegId r) const
    {
        return regs.data() +
               static_cast<size_t>(r) * sass::WarpSize;
    }

    /** Read general register r of a lane (RZ reads 0). */
    uint32_t
    reg(int lane, sass::RegId r) const
    {
        if (r == sass::RZ)
            return 0;
        panic_if(r >= numRegs, "register R%d out of budget %d", r,
                 numRegs);
        return regs[static_cast<size_t>(r) * sass::WarpSize +
                    static_cast<size_t>(lane)];
    }

    /** Write general register r of a lane (RZ discards). */
    void
    setReg(int lane, sass::RegId r, uint32_t v)
    {
        if (r == sass::RZ)
            return;
        panic_if(r >= numRegs, "register R%d out of budget %d", r,
                 numRegs);
        regs[static_cast<size_t>(r) * sass::WarpSize +
             static_cast<size_t>(lane)] = v;
    }

    /** Read predicate p of a lane (PT reads true). */
    bool
    pred(int lane, sass::PredId p) const
    {
        if (p == sass::PT)
            return true;
        return predBits[static_cast<size_t>(p)] & (1u << lane);
    }

    /** Write predicate p of a lane (PT discards). */
    void
    setPred(int lane, sass::PredId p, bool v)
    {
        if (p == sass::PT)
            return;
        uint32_t &bits = predBits[static_cast<size_t>(p)];
        if (v)
            bits |= 1u << lane;
        else
            bits &= ~(1u << lane);
    }

    /** One lane's P0..P6 packed into bits 0..6 (P2R's source view). */
    uint8_t
    predByte(int lane) const
    {
        uint32_t bits = 0;
        for (int p = 0; p < sass::NumPred; ++p)
            bits |= ((predBits[static_cast<size_t>(p)] >> lane) & 1u)
                    << p;
        return static_cast<uint8_t>(bits);
    }

    /** Overwrite one lane's P0..P6 from bits 0..6 of a byte. */
    void
    setPredByte(int lane, uint8_t bits)
    {
        const uint32_t m = 1u << lane;
        for (int p = 0; p < sass::NumPred; ++p) {
            if (bits & (1u << p))
                predBits[static_cast<size_t>(p)] |= m;
            else
                predBits[static_cast<size_t>(p)] &= ~m;
        }
    }

    /** Read the carry flag of a lane. */
    bool
    cc(int lane) const
    {
        return ccMask & (1u << lane);
    }

    /** Write the carry flag of a lane. */
    void
    setCC(int lane, bool v)
    {
        if (v)
            ccMask |= 1u << lane;
        else
            ccMask &= ~(1u << lane);
    }
};

} // namespace sassi::simt

#endif // SASSI_SIMT_WARP_H
