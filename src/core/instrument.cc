/**
 * @file
 * The SASSI pass: rewrites each kernel, splicing an ABI-compliant
 * handler call before/after selected instructions (paper §3.1-3.2,
 * Figure 2). For every site the pass:
 *
 *   1. allocates a stack frame (IADD R1, R1, -0xc0),
 *   2. spills exactly the live caller-saved GPRs (liveness-driven)
 *      into the frame's GPRSpill slots, and the predicate file and
 *      carry flag via P2R,
 *   3. materializes SASSIBeforeParams (id, instrWillExecute via
 *      guarded IADDs, fnAddr, insOffset, insEncoding) and the
 *      requested aux blocks (memory address recomputed with
 *      IADD.CC/IADD.X, branch direction, register-write facts) with
 *      plain STL stores,
 *   4. passes generic pointers to the frame in R4:R5 and R6:R7 per
 *      the compute ABI and JCALs the handler trampoline,
 *   5. restores predicates/CC via R2P and fills the spilled GPRs.
 *
 * All injected instructions are marked synthetic (never themselves
 * instrumented; excluded from the paper's IsSpillOrFill filters as
 * appropriate) and every original branch/SSY/call target is
 * remapped to the start of its instruction's injected prologue.
 */

#include <set>

#include "core/runtime.h"
#include "sass/encoding.h"
#include "sassir/cfg.h"
#include "sassir/liveness.h"
#include "simt/dispatcher.h"
#include "util/bitops.h"
#include "util/logging.h"

namespace sassi::core {

using namespace sass;

namespace {

/** Scratch registers the injected sequence uses (all caller-saved). */
constexpr RegId ScratchA = 4; //!< Field stores; later the bp pointer.
constexpr RegId ScratchP = 3; //!< Predicate/CC spill shuttle.
constexpr RegId ScratchAux = 2; //!< Aux-pointer computation.

/** Append-only emitter for one rewritten kernel. */
class Splicer
{
  public:
    explicit Splicer(std::vector<Instruction> &out) : out_(out) {}

    Instruction &
    emit(Instruction ins)
    {
        ins.synthetic = true;
        out_.push_back(ins);
        return out_.back();
    }

    void
    mov32i(RegId d, int64_t imm)
    {
        Instruction i;
        i.op = Opcode::MOV32I;
        i.dst = d;
        i.imm = imm;
        i.bIsImm = true;
        emit(i);
    }

    void
    iaddi(RegId d, RegId a, int64_t imm, bool set_cc = false,
          bool use_cc = false)
    {
        Instruction i;
        i.op = Opcode::IADD32I;
        i.dst = d;
        i.srcA = a;
        i.imm = imm;
        i.bIsImm = true;
        i.setCC = set_cc;
        i.useCC = use_cc;
        emit(i);
    }

    void
    stl(int64_t off, RegId src, int width = 4, bool spill = false)
    {
        Instruction i;
        i.op = Opcode::STL;
        i.space = MemSpace::Local;
        i.srcA = abi::StackPtr;
        i.imm = off;
        i.srcB = src;
        i.width = static_cast<uint8_t>(width);
        emit(i).spillFill = spill;
    }

    void
    ldl(RegId dst, int64_t off, bool spill = false)
    {
        Instruction i;
        i.op = Opcode::LDL;
        i.space = MemSpace::Local;
        i.dst = dst;
        i.srcA = abi::StackPtr;
        i.imm = off;
        emit(i).spillFill = spill;
    }

    void
    p2r(RegId d, int64_t mask)
    {
        Instruction i;
        i.op = Opcode::P2R;
        i.dst = d;
        i.imm = mask;
        i.bIsImm = true;
        emit(i);
    }

    void
    r2p(RegId a, int64_t mask)
    {
        Instruction i;
        i.op = Opcode::R2P;
        i.srcA = a;
        i.imm = mask;
        i.bIsImm = true;
        emit(i);
    }

    void
    l2g(RegId d, RegId a)
    {
        Instruction i;
        i.op = Opcode::L2G;
        i.dst = d;
        i.srcA = a;
        emit(i);
    }

    /** Guarded immediate move via IADD (Figure 2 step 3). */
    void
    guardedFlag(RegId d, PredId guard, bool guard_neg)
    {
        Instruction t;
        t.op = Opcode::IADD32I;
        t.dst = d;
        t.srcA = RZ;
        t.imm = 1;
        t.bIsImm = true;
        t.guard = guard;
        t.guardNeg = guard_neg;
        emit(t);
        Instruction f = t;
        f.imm = 0;
        f.guardNeg = !guard_neg;
        emit(f);
    }

    void
    jcal(int32_t target)
    {
        Instruction i;
        i.op = Opcode::JCAL;
        i.target = target;
        emit(i);
    }

  private:
    std::vector<Instruction> &out_;
};

/** Pick a scratch register pair disjoint from {avoid, avoid+1}. */
RegId
pickScratchPair(RegId avoid)
{
    for (RegId cand : {RegId(6), RegId(8), RegId(10), RegId(12)}) {
        if (avoid == RZ)
            return cand;
        if (cand != avoid && cand != avoid + 1 && cand + 1 != avoid)
            return cand;
    }
    panic("no scratch pair available");
}

bool
wantBefore(const Instruction &ins, const InstrumentOptions &o)
{
    if (o.beforeAll)
        return true;
    if (o.beforeMem && ins.isMem())
        return true;
    if (o.beforeControl && ins.isControl())
        return true;
    if (o.beforeCondBranch && ins.op == Opcode::BRA && ins.guard != PT)
        return true;
    if (o.beforeCall && (opFlags(ins.op) & OF_Call))
        return true;
    if (o.beforeRegReads && !ins.srcRegs().empty())
        return true;
    if (o.beforeRegWrites && !ins.dstRegs().empty())
        return true;
    return false;
}

bool
wantAfter(const Instruction &ins, const InstrumentOptions &o)
{
    // Never after branches and jumps (paper §3.1).
    if (ins.isControl())
        return false;
    if (o.afterAll)
        return true;
    if (o.afterMem && ins.isMem())
        return true;
    if (o.afterRegWrites &&
        (!ins.dstRegs().empty() || !ins.dstPreds().empty() || ins.setCC))
        return true;
    return false;
}

/**
 * Emit the full injected call sequence for one site.
 *
 * @param valid_spills When elideRedundantSpills is on, the set of
 *        registers whose persistent slot already holds the current
 *        value (updated here); nullptr otherwise.
 */
void
emitSite(std::vector<Instruction> &out, SiteFlavor flavor,
         const ir::Kernel &kernel, int orig_pc, const Instruction &ins,
         const ir::LiveSet &live, const InstrumentOptions &opts,
         SassiRuntime &rt, uint32_t *valid_spills)
{
    Splicer s(out);

    SiteInfo site;
    site.flavor = flavor;
    site.kernelName = kernel.name;
    site.origPc = orig_pc;
    site.instr = ins;
    site.fnAddr = kernel.fnAddr;

    bool is_instr_site =
        flavor == SiteFlavor::Before || flavor == SiteFlavor::After;
    site.hasMemParams =
        is_instr_site && opts.memoryInfo && ins.isMem();
    site.hasBranchParams = is_instr_site && opts.branchInfo &&
                           ins.op == Opcode::BRA;
    site.hasRegParams = is_instr_site && opts.registerInfo;

    // Spill exactly the live caller-saved registers; for register
    // info also the (possibly dead) destination registers so
    // GetRegValue/SetRegValue work through the spill slots. The cap
    // is the handler's -maxrregcount; the naive mode (no liveness,
    // as a binary rewriter would be forced into, §10.1) spills the
    // whole clobber window.
    int cap = std::min(opts.handlerRegCap,
                       std::min(kernel.numRegs, 32));
    uint32_t spill = 0;
    for (int r = 0; r < cap; ++r) {
        if (r == abi::StackPtr)
            continue;
        if (opts.naiveSpillAll || live.gpr.test(static_cast<size_t>(r)))
            spill |= 1u << r;
    }
    if (site.hasRegParams) {
        for (RegId r : ins.dstRegs()) {
            if (r < cap && r != abi::StackPtr)
                spill |= 1u << r;
        }
    }
    site.spillMask = spill;
    site.persistentSpills = valid_spills != nullptr;

    int32_t key = rt.addSite(site);

    // 1. Frame allocation.
    s.iaddi(abi::StackPtr, abi::StackPtr, -frame::FrameBytes);

    // 2. GPR spills. In persistent mode, registers whose slot is
    //    still current are not re-spilled (the §9.1 optimization).
    for (int r = 0; r < 32; ++r) {
        if (!(spill & (1u << r)))
            continue;
        if (valid_spills) {
            if (!(*valid_spills & (1u << r))) {
                Instruction st;
                st.op = Opcode::STL;
                st.space = MemSpace::Local;
                st.srcA = RZ;
                st.imm = frame::PersistBase + 4 * r;
                st.srcB = static_cast<RegId>(r);
                s.emit(st).spillFill = true;
            }
        } else {
            s.stl(frame::gprSpillSlot(r), static_cast<RegId>(r), 4,
                  true);
        }
    }
    if (valid_spills)
        *valid_spills |= spill;

    // 3. Memory-address recomputation must precede any scratch
    //    clobbers because it reads the original address registers.
    if (site.hasMemParams) {
        RegId sc = pickScratchPair(ins.srcA);
        if (ins.op == Opcode::LDC) {
            s.iaddi(sc, ins.srcA, ins.imm);
            s.mov32i(static_cast<RegId>(sc + 1), 0);
        } else if (ins.addrIsPair()) {
            s.iaddi(sc, ins.srcA, static_cast<int32_t>(ins.imm),
                    /*set_cc=*/true);
            s.iaddi(static_cast<RegId>(sc + 1),
                    static_cast<RegId>(ins.srcA == RZ ? RZ : ins.srcA + 1),
                    ins.imm < 0 ? -1 : 0, false, /*use_cc=*/true);
        } else {
            s.iaddi(sc, ins.srcA, static_cast<int32_t>(ins.imm));
            s.mov32i(static_cast<RegId>(sc + 1), 0);
        }
        s.stl(frame::MemAddress, sc, 8);

        uint32_t props = 0;
        uint32_t flags = opFlags(ins.op);
        if (flags & OF_MemRead)
            props |= frame::PropLoad;
        if (flags & OF_MemWrite)
            props |= frame::PropStore;
        if (flags & OF_Atomic)
            props |= frame::PropAtomic;
        s.mov32i(ScratchA, props);
        s.stl(frame::MemProperties, ScratchA);
        s.mov32i(ScratchA, ins.width);
        s.stl(frame::MemWidth, ScratchA);
        s.mov32i(ScratchA, static_cast<int32_t>(ins.space));
        s.stl(frame::MemDomain, ScratchA);
    }

    // 4. Predicate and carry spills through R3.
    s.p2r(ScratchP, 0x7f);
    s.stl(frame::PRSpill, ScratchP, 4, true);
    s.p2r(ScratchP, 0x80);
    s.stl(frame::CCSpill, ScratchP, 4, true);

    // 5. SASSIBeforeParams fields.
    s.mov32i(ScratchA, key);
    s.stl(frame::Id, ScratchA);
    if (is_instr_site && ins.guard != PT) {
        s.guardedFlag(ScratchA, ins.guard, ins.guardNeg);
    } else {
        s.mov32i(ScratchA, 1);
    }
    s.stl(frame::InstrWillExecute, ScratchA);
    s.mov32i(ScratchA, kernel.fnAddr);
    s.stl(frame::FnAddr, ScratchA);
    s.mov32i(ScratchA, orig_pc);
    s.stl(frame::InsOffset, ScratchA);
    s.mov32i(ScratchA, static_cast<int64_t>(encodeInstr(ins)));
    s.stl(frame::InsEncoding, ScratchA);
    s.mov32i(ScratchA, spill);
    s.stl(frame::GPRSpillMask, ScratchA);

    // 6. Branch params.
    if (site.hasBranchParams) {
        if (ins.guard != PT) {
            s.guardedFlag(ScratchA, ins.guard, ins.guardNeg);
        } else {
            s.mov32i(ScratchA, 1);
        }
        s.stl(frame::BrDirection, ScratchA);
        s.mov32i(ScratchA, ins.target);
        s.stl(frame::BrTarget, ScratchA);
        s.mov32i(ScratchA, orig_pc + 1);
        s.stl(frame::BrFallthrough, ScratchA);
        s.mov32i(ScratchA, ins.guard != PT ? 1 : 0);
        s.stl(frame::BrIsConditional, ScratchA);
    }

    // 7. Register params.
    if (site.hasRegParams) {
        auto dsts = ins.dstRegs();
        s.mov32i(ScratchA, static_cast<int64_t>(dsts.size()));
        s.stl(frame::RegNumDsts, ScratchA);
        for (size_t d = 0; d < dsts.size() && d < 4; ++d) {
            s.mov32i(ScratchA, dsts[d]);
            s.stl(frame::RegIds + 4 * static_cast<int64_t>(d), ScratchA);
        }
        uint32_t pred_mask = 0;
        for (PredId p : ins.dstPreds())
            pred_mask |= 1u << p;
        s.mov32i(ScratchA, pred_mask);
        s.stl(frame::RegPredMask, ScratchA);
        s.mov32i(ScratchA, ins.setCC ? 1 : 0);
        s.stl(frame::RegWritesCC, ScratchA);
    }

    // 8. ABI pointer arguments and the call.
    s.l2g(abi::Arg0Lo, abi::StackPtr);
    s.iaddi(ScratchAux, abi::StackPtr, frame::Aux);
    s.l2g(abi::Arg1Lo, ScratchAux);
    s.jcal(simt::HandlerBase + key);

    // 9. Restores: predicates/CC first (through R3), then GPR fills,
    //    then the frame release.
    s.ldl(ScratchP, frame::PRSpill, true);
    s.r2p(ScratchP, 0x7f);
    s.ldl(ScratchP, frame::CCSpill, true);
    s.r2p(ScratchP, 0x80);
    for (int r = 0; r < 32; ++r) {
        if (!(spill & (1u << r)))
            continue;
        if (valid_spills) {
            Instruction ld;
            ld.op = Opcode::LDL;
            ld.space = MemSpace::Local;
            ld.dst = static_cast<RegId>(r);
            ld.srcA = RZ;
            ld.imm = frame::PersistBase + 4 * r;
            s.emit(ld).spillFill = true;
        } else {
            s.ldl(static_cast<RegId>(r), frame::gprSpillSlot(r),
                  true);
        }
    }
    s.iaddi(abi::StackPtr, abi::StackPtr, frame::FrameBytes);
}

void
instrumentKernel(ir::Kernel &kernel, const InstrumentOptions &opts,
                 SassiRuntime &rt)
{
    ir::Cfg cfg = ir::buildCfg(kernel);
    ir::Liveness live(kernel, cfg);

    std::set<int> headers;
    for (const auto &bb : cfg.blocks)
        headers.insert(bb.start);

    int n = static_cast<int>(kernel.code.size());
    std::vector<Instruction> out;
    out.reserve(kernel.code.size() * 4);
    std::vector<int> remap(static_cast<size_t>(n) + 1, 0);

    // §9.1 optimization state: which registers' persistent spill
    // slots are current. Conservatively reset at block leaders.
    uint32_t valid_spills = 0;
    uint32_t *valid =
        opts.elideRedundantSpills ? &valid_spills : nullptr;

    // §9.5 graphics shaders: inject the stack initialization SASSI
    // must perform itself (the immediate is patched below, once the
    // final localBytes is known).
    size_t stack_init_idx = SIZE_MAX;
    if (opts.manageStack) {
        Instruction init;
        init.op = Opcode::MOV32I;
        init.dst = abi::StackPtr;
        init.bIsImm = true;
        init.synthetic = true;
        stack_init_idx = out.size();
        out.push_back(init);
    }

    for (int pc = 0; pc < n; ++pc) {
        const Instruction ins = kernel.code[static_cast<size_t>(pc)];
        remap[static_cast<size_t>(pc)] = static_cast<int>(out.size());

        if (headers.count(pc))
            valid_spills = 0;

        if (ins.synthetic && opts.skipSynthetic) {
            out.push_back(ins);
            continue;
        }

        if (opts.kernelEntry && pc == 0) {
            emitSite(out, SiteFlavor::KernelEntry, kernel, pc, ins,
                     live.liveIn(pc), opts, rt, valid);
        }
        if (opts.blockHeaders && headers.count(pc)) {
            emitSite(out, SiteFlavor::BlockHeader, kernel, pc, ins,
                     live.liveIn(pc), opts, rt, valid);
        }
        if (opts.kernelExit && ins.op == Opcode::EXIT) {
            emitSite(out, SiteFlavor::KernelExit, kernel, pc, ins,
                     live.liveIn(pc), opts, rt, valid);
        }
        if (wantBefore(ins, opts)) {
            emitSite(out, SiteFlavor::Before, kernel, pc, ins,
                     live.liveIn(pc), opts, rt, valid);
        }

        out.push_back(ins);

        // The original instruction redefines its destinations;
        // calls may redefine anything.
        for (RegId r : ins.dstRegs()) {
            if (r < 32)
                valid_spills &= ~(1u << r);
        }
        if (opFlags(ins.op) & OF_Call)
            valid_spills = 0;

        if (wantAfter(ins, opts)) {
            emitSite(out, SiteFlavor::After, kernel, pc, ins,
                     live.liveOut(pc), opts, rt, valid);
        }
    }
    remap[static_cast<size_t>(n)] = static_cast<int>(out.size());

    // Retarget original control flow into the new index space.
    for (auto &ins : out) {
        if (ins.synthetic)
            continue;
        bool has_target = ins.op == Opcode::BRA ||
                          ins.op == Opcode::SSY ||
                          (ins.op == Opcode::JCAL &&
                           ins.target < simt::HandlerBase);
        if (has_target && ins.target >= 0 && ins.target <= n)
            ins.target = remap[static_cast<size_t>(ins.target)];
    }

    kernel.code = std::move(out);
    // Headroom for one parameter frame below the user stack (plus
    // the persistent spill region when the optimization is on).
    kernel.localBytes += frame::FrameBytes + 0x40;
    if (opts.elideRedundantSpills)
        kernel.localBytes += frame::PersistBytes;
    if (stack_init_idx != SIZE_MAX)
        kernel.code[stack_init_idx].imm = kernel.localBytes;
    kernel.numRegs = std::max(kernel.numRegs, 18);
}

} // namespace

void
instrumentModule(ir::Module &module, const InstrumentOptions &opts,
                 SassiRuntime &runtime)
{
    for (auto &kernel : module.kernels)
        instrumentKernel(kernel, opts, runtime);
}

} // namespace sassi::core

namespace sassi::core {

std::string
InstrumentOptions::describe() const
{
    std::string s = "-sassi:";
    auto flag = [&](bool v, const char *name) {
        if (v) {
            s += name;
            s += ' ';
        }
    };
    flag(beforeAll, "before=all");
    flag(beforeMem, "before=mem");
    flag(beforeControl, "before=control");
    flag(beforeCondBranch, "before=cond-branch");
    flag(beforeCall, "before=call");
    flag(beforeRegReads, "before=reg-reads");
    flag(beforeRegWrites, "before=reg-writes");
    flag(afterAll, "after=all");
    flag(afterMem, "after=mem");
    flag(afterRegWrites, "after=reg-writes");
    flag(kernelEntry, "where=kernel-entry");
    flag(kernelExit, "where=kernel-exit");
    flag(blockHeaders, "where=block-headers");
    flag(memoryInfo, "what=mem-info");
    flag(branchInfo, "what=branch-info");
    flag(registerInfo, "what=reg-info");
    return s;
}

} // namespace sassi::core
