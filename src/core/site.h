/**
 * @file
 * Static metadata of one instrumentation site.
 *
 * The SASSI pass records one SiteInfo per injected handler call.
 * The JCAL trampoline target encodes the site's index, so at
 * dispatch time the runtime has the original instruction, the spill
 * mask, and which parameter blocks the injected code materialized —
 * exactly the static knowledge the real SASSI bakes into its
 * injected sequences.
 */

#ifndef SASSI_CORE_SITE_H
#define SASSI_CORE_SITE_H

#include <cstdint>
#include <string>

#include "sass/instr.h"

namespace sassi::core {

/** Where a site sits relative to its instruction. */
enum class SiteFlavor {
    Before,      //!< Before one instruction.
    After,       //!< After one instruction (never branches/jumps).
    KernelEntry, //!< At kernel entry.
    KernelExit,  //!< Immediately before an EXIT.
    BlockHeader, //!< At a basic-block header.
};

/**
 * Frame layout of the stack-allocated parameter area, matching the
 * paper's Figure 2 offsets. The injected prologue allocates
 * FrameBytes on the thread stack (IADD R1, R1, -FrameBytes) and
 * fills these slots with STL stores.
 */
namespace frame {
constexpr int64_t Id = 0x00;              //!< SASSIBeforeParams.id
constexpr int64_t InstrWillExecute = 0x04;
constexpr int64_t FnAddr = 0x08;
constexpr int64_t InsOffset = 0x0c;
constexpr int64_t PRSpill = 0x10;
constexpr int64_t CCSpill = 0x14;
constexpr int64_t GPRSpill = 0x18;        //!< 16 slots, 4 bytes each.
constexpr int64_t InsEncoding = 0x58;
constexpr int64_t GPRSpillMask = 0x5c;    //!< Which slots are valid.

/** SASSIMemoryParams / SASSICondBranchParams block. */
constexpr int64_t Aux = 0x60;
constexpr int64_t MemAddress = Aux + 0x00;   //!< int64
constexpr int64_t MemProperties = Aux + 0x08;
constexpr int64_t MemWidth = Aux + 0x0c;
constexpr int64_t MemDomain = Aux + 0x10;

constexpr int64_t BrDirection = Aux + 0x00;  //!< this lane will take
constexpr int64_t BrTarget = Aux + 0x04;     //!< taken-path PC
constexpr int64_t BrFallthrough = Aux + 0x08;
constexpr int64_t BrIsConditional = Aux + 0x0c;

/** SASSIRegisterParams block. */
constexpr int64_t Reg = 0x80;
constexpr int64_t RegNumDsts = Reg + 0x00;
constexpr int64_t RegIds = Reg + 0x04;       //!< 4 slots, 4 bytes.
constexpr int64_t RegPredMask = Reg + 0x14;  //!< dst predicate mask.
constexpr int64_t RegWritesCC = Reg + 0x18;

/** Extended spill slots for R16..R31 (used only when the handler
 *  register cap is raised above the ABI minimum in ablations). */
constexpr int64_t ExtGPRSpill = 0xa0;

/** Total stack frame the prologue allocates. */
constexpr int64_t FrameBytes = 0xe0;

/** Base of the persistent spill region (absolute local offsets)
 *  used by the elideRedundantSpills optimization. */
constexpr int64_t PersistBase = 0x0;

/** Size of the persistent spill region (32 GPR slots). */
constexpr int64_t PersistBytes = 0x80;

/** @return the frame offset of register r's spill slot. */
constexpr int64_t
gprSpillSlot(int r)
{
    return r < 16 ? GPRSpill + 4 * r : ExtGPRSpill + 4 * (r - 16);
}

/** Memory properties bits. */
constexpr uint32_t PropLoad = 1;
constexpr uint32_t PropStore = 2;
constexpr uint32_t PropAtomic = 4;
} // namespace frame

/** Static description of one instrumentation site. */
struct SiteInfo
{
    SiteFlavor flavor = SiteFlavor::Before;

    /** Kernel the site lives in. */
    std::string kernelName;

    /** Pre-instrumentation instruction index (stable PC). */
    int32_t origPc = 0;

    /** Copy of the original instruction at the site. */
    sass::Instruction instr;

    /** Kernel pseudo function address. */
    int32_t fnAddr = 0;

    /** Which of GPRSpill[0..15] the prologue filled. */
    uint32_t spillMask = 0;

    /** Spills live in the persistent region, not the frame
     *  (elideRedundantSpills mode). */
    bool persistentSpills = false;

    /** The injected code materialized SASSIMemoryParams. */
    bool hasMemParams = false;

    /** The injected code materialized SASSICondBranchParams. */
    bool hasBranchParams = false;

    /** The injected code materialized SASSIRegisterParams. */
    bool hasRegParams = false;

    /**
     * hasRegParams, and the instruction reads or writes the stack
     * pointer (R1). Set by SassiRuntime::addSite. R1 is never
     * spilled, so GetRegValue(R1) reads the live register: entry
     * minus the frame on the generic path, the entry value inside a
     * fused site. Such sites therefore always dispatch generically.
     */
    bool regParamsNameStackPtr = false;

    /**
     * Launch-registry keys, precomputed by SassiRuntime::addSite so
     * both dispatch paths (fiber and inline) bump the exact same
     * strings without per-dispatch formatting.
     */
    std::string metricCalls;  //!< "core/site/<kernel>@<pc>/calls"
    std::string metricFlavor; //!< "core/dispatch/flavor/<flavor>"
};

} // namespace sassi::core

#endif // SASSI_CORE_SITE_H
