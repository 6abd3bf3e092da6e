#include "simt/site_fuse.h"

#include <algorithm>

#include "sass/instr.h"
#include "sass/reg.h"
#include "simt/dispatcher.h"

namespace sassi::simt {

namespace {

using sass::Instruction;
using sass::Opcode;
using sass::PT;
using sass::RZ;

/**
 * Symbolic value of a register during the scan. The scanner runs a
 * tiny abstract interpreter over the bundle: every register starts
 * as Orig (its own entry value) and each recognized instruction
 * rewrites destination symbols. Any value it cannot name exactly
 * rejects the bundle.
 */
struct Sym
{
    enum class K : uint8_t {
        Orig,      //!< Entry value of register reg.
        Const,     //!< imm.
        R1Rel,     //!< Entry R1 + rel (mod 2^32).
        AddrLo,    //!< Low word of the recomputed address.
        AddrHi,    //!< High word of the recomputed address.
        GuardFlag, //!< (pred reg != neg) ? 1 : 0.
        PredBits,  //!< Predicate file bits & imm.
        CCOrig,    //!< Entry CC ? 0x80 : 0.
        CCCarry,   //!< Address-add carry ? 0x80 : 0.
        GenLo,     //!< Low word of generic address of entry R1 + rel.
        GenHi,     //!< High word of the same.
        Load,      //!< 32 bits loaded from frame slot off.
    };

    K k = K::Orig;
    uint8_t reg = 0;
    bool neg = false;
    bool abs = false;
    uint32_t imm = 0;
    int64_t rel = 0;
    uint32_t off = 0;
};

/** Recognizes one bundle starting at a given pc. */
class SiteScanner
{
  public:
    SiteScanner(const ir::Kernel &k, const std::vector<uint8_t> &leader)
        : k_(k), leader_(leader)
    {
    }

    bool scan(uint32_t start, SiteRun &out);

  private:
    static constexpr int TrackedRegs = 32;

    bool readSym(uint8_t r, Sym &out) const;
    bool writeSym(uint8_t r, const Sym &s);
    bool frameSlot(const Instruction &ins, int width, uint32_t &off,
                   bool &abs) const;
    void charge(const Instruction &ins, uint32_t instrs,
                uint32_t thread_factor);
    bool finish(SiteRun &out);

    const ir::Kernel &k_;
    const std::vector<uint8_t> &leader_;

    SiteRun *run_ = nullptr;
    Sym syms_[TrackedRegs];
    int64_t r1rel_ = 0;
    bool seen_jcal_ = false;
    bool cc_is_carry_ = false;
    bool seen_addr_hi_ = false;
};

bool
SiteScanner::readSym(uint8_t r, Sym &out) const
{
    if (r == RZ) {
        out = Sym{};
        out.k = Sym::K::Const;
        out.imm = 0;
        return true;
    }
    if (r == sass::abi::StackPtr) {
        out = Sym{};
        out.k = Sym::K::R1Rel;
        out.rel = r1rel_;
        return true;
    }
    if (r >= k_.numRegs)
        return false; // The generic path would panic; don't fuse.
    if (r >= TrackedRegs) {
        // High registers are never written by a bundle (scratch and
        // spill targets stay below 32), so their value is Orig.
        out = Sym{};
        out.k = Sym::K::Orig;
        out.reg = r;
        return true;
    }
    out = syms_[r];
    return true;
}

bool
SiteScanner::writeSym(uint8_t r, const Sym &s)
{
    if (r == RZ || r == sass::abi::StackPtr || r >= TrackedRegs ||
        r >= k_.numRegs)
        return false;
    syms_[r] = s;
    return true;
}

/**
 * Resolve an STL/LDL slot: either frame-relative off R1 (which must
 * still sit at the prologue displacement) or absolute off RZ (the
 * persistent spill area). Bounds are checked against the frame and
 * the local window, so a materialized store can never land outside
 * memory the generic path would have touched.
 */
bool
SiteScanner::frameSlot(const Instruction &ins, int width, uint32_t &off,
                       bool &abs) const
{
    const uint64_t o = static_cast<uint32_t>(ins.imm);
    if (ins.srcA == sass::abi::StackPtr) {
        if (r1rel_ != run_->frameRel)
            return false;
        if (o + width > static_cast<uint64_t>(run_->frameBytes()))
            return false;
        off = static_cast<uint32_t>(o);
        abs = false;
        return true;
    }
    if (ins.srcA == RZ) {
        if (o + width > k_.localBytes)
            return false;
        off = static_cast<uint32_t>(o);
        abs = true;
        return true;
    }
    return false;
}

/** Charge one recognized instruction (or a guarded pair) to stats. */
void
SiteScanner::charge(const Instruction &ins, uint32_t instrs,
                    uint32_t thread_factor)
{
    SiteRunStats &s = seen_jcal_ ? run_->post : run_->pre;
    s.warpInstrs += instrs;
    s.threadFactor += thread_factor;
    if (ins.isMem())
        s.memInstrs += instrs;
    if (ins.spillFill) {
        s.spillInstrs += instrs;
        s.spillWidthSum += ins.width;
    }
    for (auto &[op, count] : s.opcodeCounts) {
        if (op == ins.op) {
            count += instrs;
            return;
        }
    }
    s.opcodeCounts.emplace_back(ins.op, instrs);
}

bool
SiteScanner::finish(SiteRun &out)
{
    if (!seen_jcal_ || r1rel_ != 0)
        return false;
    for (int r = 0; r < TrackedRegs; ++r) {
        const Sym &s = syms_[r];
        SiteRegEffect e;
        e.reg = static_cast<uint8_t>(r);
        switch (s.k) {
          case Sym::K::Orig:
            if (s.reg != r)
                return false;
            continue;
          case Sym::K::Const:
            e.kind = SiteRegEffect::Kind::Const;
            e.imm = s.imm;
            break;
          case Sym::K::R1Rel:
            e.kind = SiteRegEffect::Kind::FrameRel;
            e.rel = s.rel;
            break;
          case Sym::K::AddrLo:
            e.kind = SiteRegEffect::Kind::AddrLo;
            break;
          case Sym::K::AddrHi:
            e.kind = SiteRegEffect::Kind::AddrHi;
            break;
          case Sym::K::GenLo:
            e.kind = SiteRegEffect::Kind::GenLo;
            e.rel = s.rel;
            break;
          case Sym::K::GenHi:
            e.kind = SiteRegEffect::Kind::GenHi;
            e.rel = s.rel;
            break;
          case Sym::K::Load:
            e.kind = SiteRegEffect::Kind::Load;
            e.off = s.off;
            e.abs = s.abs;
            break;
          default:
            return false; // Guard/pred/CC bits never survive a real
                          // bundle; reject anything that leaves one.
        }
        out.effects.push_back(e);
    }
    return true;
}

bool
SiteScanner::scan(uint32_t start, SiteRun &out)
{
    const auto &code = k_.code;
    const uint32_t n = static_cast<uint32_t>(code.size());

    // The bundle signature: a synthetic, unpredicated stack-frame
    // prologue IADD32I R1, R1, -frame.
    const Instruction &p = code[start];
    if (p.op != Opcode::IADD32I || !p.synthetic || p.guard != PT ||
        p.guardNeg || p.dst != sass::abi::StackPtr ||
        p.srcA != sass::abi::StackPtr || !p.bIsImm || p.setCC ||
        p.useCC || p.spillFill)
        return false;
    const int64_t frame_rel =
        static_cast<int32_t>(static_cast<uint32_t>(p.imm));
    if (frame_rel >= 0 || -frame_rel > (1 << 20))
        return false;

    run_ = &out;
    out = SiteRun{};
    out.start = start;
    out.frameRel = frame_rel;
    for (int r = 0; r < TrackedRegs; ++r) {
        syms_[r] = Sym{};
        syms_[r].reg = static_cast<uint8_t>(r);
    }
    r1rel_ = 0;
    seen_jcal_ = false;
    cc_is_carry_ = false;
    seen_addr_hi_ = false;

    uint32_t i = start;
    bool done = false;
    while (i < n && !done) {
        if (i != start && leader_[i])
            return false; // Control may enter mid-bundle.
        const Instruction &ins = code[i];
        if (!ins.synthetic)
            return false;
        const bool pre = !seen_jcal_;

        switch (ins.op) {
          case Opcode::IADD32I: {
            if (!ins.bIsImm)
                return false;
            if (ins.guard != PT) {
                // A guardedFlag pair: @g dst = 1; @!g dst = 0. The
                // two halves partition the active mask, so together
                // they deposit (pred(g) != neg) ? 1 : 0.
                if (!pre || i + 1 >= n || leader_[i + 1])
                    return false;
                const Instruction &f = code[i + 1];
                if (ins.srcA != RZ || ins.imm != 1 || ins.setCC ||
                    ins.useCC || f.op != Opcode::IADD32I ||
                    !f.synthetic || !f.bIsImm || f.guard != ins.guard ||
                    f.guardNeg != !ins.guardNeg || f.dst != ins.dst ||
                    f.srcA != RZ || f.imm != 0 || f.setCC || f.useCC)
                    return false;
                Sym s;
                s.k = Sym::K::GuardFlag;
                s.reg = ins.guard;
                s.neg = ins.guardNeg;
                if (!writeSym(ins.dst, s))
                    return false;
                charge(ins, 2, 1);
                i += 2;
                continue;
            }
            if (ins.guardNeg)
                return false;
            const int64_t imm32 =
                static_cast<int32_t>(static_cast<uint32_t>(ins.imm));
            if (ins.setCC) {
                // Low word of a 64-bit address recomputation; the
                // carry lands in CC (and is spilled as the CC value,
                // matching the generic path's quirk).
                Sym a;
                if (!pre || ins.useCC || out.hasAddr ||
                    !readSym(ins.srcA, a) ||
                    !(a.k == Sym::K::Orig || a.k == Sym::K::Const))
                    return false;
                if (a.k == Sym::K::Const && a.imm != 0)
                    return false; // Only RZ bases fold to Const.
                out.hasAddr = true;
                out.addrPair = true;
                out.addrLoReg = ins.srcA;
                out.addrImmLo = static_cast<uint32_t>(ins.imm);
                Sym s;
                s.k = Sym::K::AddrLo;
                if (!writeSym(ins.dst, s))
                    return false;
                cc_is_carry_ = true;
            } else if (ins.useCC) {
                // High word: base_hi + (imm < 0 ? -1 : 0) + carry.
                Sym a;
                if (!pre || !cc_is_carry_ || !out.addrPair ||
                    seen_addr_hi_ || !readSym(ins.srcA, a) ||
                    !(a.k == Sym::K::Orig || a.k == Sym::K::Const) ||
                    (imm32 != 0 && imm32 != -1))
                    return false;
                if (a.k == Sym::K::Const && a.imm != 0)
                    return false;
                out.addrHiReg = ins.srcA;
                out.addrImmHi = static_cast<uint32_t>(imm32);
                seen_addr_hi_ = true;
                Sym s;
                s.k = Sym::K::AddrHi;
                if (!writeSym(ins.dst, s))
                    return false;
            } else if (ins.dst == sass::abi::StackPtr) {
                if (ins.srcA != sass::abi::StackPtr)
                    return false;
                r1rel_ += imm32;
                if (seen_jcal_ && r1rel_ == 0)
                    done = true; // Epilogue: the bundle is complete.
            } else {
                Sym a;
                if (!readSym(ins.srcA, a))
                    return false;
                Sym s;
                if (a.k == Sym::K::R1Rel) {
                    s.k = Sym::K::R1Rel;
                    s.rel = a.rel + imm32;
                } else if (a.k == Sym::K::Const) {
                    s.k = Sym::K::Const;
                    s.imm = a.imm + static_cast<uint32_t>(ins.imm);
                } else if (a.k == Sym::K::Orig && pre && !out.hasAddr) {
                    // 32-bit address recomputation (no carry chain).
                    out.hasAddr = true;
                    out.addrPair = false;
                    out.addrLoReg = ins.srcA;
                    out.addrImmLo = static_cast<uint32_t>(ins.imm);
                    s.k = Sym::K::AddrLo;
                } else {
                    return false;
                }
                if (!writeSym(ins.dst, s))
                    return false;
            }
            charge(ins, 1, 1);
            break;
          }

          case Opcode::MOV32I: {
            if (ins.guard != PT || ins.guardNeg)
                return false;
            Sym s;
            s.k = Sym::K::Const;
            s.imm = static_cast<uint32_t>(ins.imm);
            if (!writeSym(ins.dst, s))
                return false;
            charge(ins, 1, 1);
            break;
          }

          case Opcode::STL: {
            uint32_t off;
            bool abs;
            if (!pre || ins.guard != PT ||
                (ins.width != 4 && ins.width != 8) ||
                !frameSlot(ins, ins.width, off, abs))
                return false;
            const int words = ins.width / 4;
            for (int w = 0; w < words; ++w) {
                Sym v;
                if (!readSym(static_cast<uint8_t>(
                                 ins.srcB == RZ ? RZ : ins.srcB + w),
                             v))
                    return false;
                SiteStore st;
                st.off = off + 4 * w;
                st.abs = abs;
                st.spill = ins.spillFill;
                switch (v.k) {
                  case Sym::K::Orig:
                    st.kind = SiteStore::Kind::Reg;
                    st.reg = v.reg;
                    break;
                  case Sym::K::Const:
                    st.kind = SiteStore::Kind::Const;
                    st.imm = v.imm;
                    break;
                  case Sym::K::AddrLo:
                    st.kind = SiteStore::Kind::AddrLo;
                    break;
                  case Sym::K::AddrHi:
                    st.kind = SiteStore::Kind::AddrHi;
                    break;
                  case Sym::K::GuardFlag:
                    st.kind = SiteStore::Kind::GuardFlag;
                    st.reg = v.reg;
                    st.neg = v.neg;
                    break;
                  case Sym::K::PredBits:
                    st.kind = SiteStore::Kind::PredBits;
                    st.imm = v.imm;
                    break;
                  case Sym::K::CCOrig:
                    st.kind = SiteStore::Kind::CCOrig;
                    break;
                  case Sym::K::CCCarry:
                    st.kind = SiteStore::Kind::CCCarry;
                    break;
                  default:
                    return false;
                }
                out.stores.push_back(st);
            }
            charge(ins, 1, 1);
            break;
          }

          case Opcode::LDL: {
            uint32_t off;
            bool abs;
            if (pre || ins.guard != PT || ins.width != 4 || ins.sExt ||
                !frameSlot(ins, 4, off, abs))
                return false;
            Sym s;
            s.k = Sym::K::Load;
            s.off = off;
            s.abs = abs;
            if (!writeSym(ins.dst, s))
                return false;
            charge(ins, 1, 1);
            break;
          }

          case Opcode::P2R: {
            const uint32_t mask = static_cast<uint32_t>(ins.imm);
            if (!pre || ins.guard != PT)
                return false;
            Sym s;
            if (mask == 0x80) {
                s.k = cc_is_carry_ ? Sym::K::CCCarry : Sym::K::CCOrig;
            } else if ((mask & 0x80) == 0) {
                s.k = Sym::K::PredBits;
                s.imm = mask;
            } else {
                return false;
            }
            if (!writeSym(ins.dst, s))
                return false;
            charge(ins, 1, 1);
            break;
          }

          case Opcode::R2P: {
            const uint32_t mask = static_cast<uint32_t>(ins.imm);
            Sym a;
            if (pre || ins.guard != PT || !readSym(ins.srcA, a) ||
                a.k != Sym::K::Load)
                return false;
            if (mask == 0x7f && !out.restorePred) {
                out.restorePred = true;
                out.restorePredOff = a.off;
                out.restorePredAbs = a.abs;
            } else if (mask == 0x80 && !out.restoreCC) {
                out.restoreCC = true;
                out.restoreCCOff = a.off;
                out.restoreCCAbs = a.abs;
            } else {
                return false;
            }
            charge(ins, 1, 1);
            break;
          }

          case Opcode::L2G: {
            Sym a;
            if (!pre || ins.guard != PT || !readSym(ins.srcA, a) ||
                a.k != Sym::K::R1Rel)
                return false;
            Sym lo;
            lo.k = Sym::K::GenLo;
            lo.rel = a.rel;
            Sym hi;
            hi.k = Sym::K::GenHi;
            hi.rel = a.rel;
            if (!writeSym(ins.dst, lo) ||
                !writeSym(static_cast<uint8_t>(ins.dst + 1), hi))
                return false;
            charge(ins, 1, 1);
            break;
          }

          case Opcode::JCAL: {
            Sym a0, a1;
            if (seen_jcal_ || ins.guard != PT ||
                ins.target < HandlerBase ||
                !readSym(sass::abi::Arg0Lo, a0) ||
                !readSym(sass::abi::Arg0Lo + 1, a1) ||
                a0.k != Sym::K::GenLo || a0.rel != frame_rel ||
                a1.k != Sym::K::GenHi || a1.rel != frame_rel)
                return false;
            out.jcalIdx = i - start;
            out.siteKey = ins.target - HandlerBase;
            charge(ins, 1, 1);
            seen_jcal_ = true;
            break;
          }

          default:
            return false;
        }
        ++i;
    }

    if (!done)
        return false;
    out.len = i - start;
    if (out.jcalIdx == 0)
        return false;
    return finish(out);
}

/**
 * The last phase-A store targeting slot (abs, off), or null. Later
 * stores win: the generic path executes them in order, so only the
 * final value is what a fill can observe.
 */
const SiteStore *
lastStoreAt(const SiteRun &run, bool abs, uint32_t off)
{
    const SiteStore *found = nullptr;
    for (const SiteStore &st : run.stores) {
        if (st.abs == abs && st.off == off)
            found = &st;
    }
    return found;
}

/**
 * Mark the effects (and pred/CC restores) that merely rewrite state
 * phase A saved: fills whose slot was spilled from the same register
 * and never overwritten, R1's net-zero stack pop, and restores of
 * the full predicate file / the entry CC. When the handler leaves
 * frame memory untouched, the executor skips these wholesale — the
 * parked warp executes nothing between the phases, so the values
 * are still live in the register/predicate files.
 */
void
markIdentity(SiteRun &run)
{
    for (SiteRegEffect &e : run.effects) {
        if (e.kind == SiteRegEffect::Kind::Load) {
            const SiteStore *st = lastStoreAt(run, e.abs, e.off);
            e.identity = st && st->kind == SiteStore::Kind::Reg &&
                         st->reg == e.reg;
        } else if (e.kind == SiteRegEffect::Kind::FrameRel) {
            e.identity = e.reg == sass::abi::StackPtr && e.rel == 0;
        }
    }
    if (run.restorePred) {
        const SiteStore *st =
            lastStoreAt(run, run.restorePredAbs, run.restorePredOff);
        run.restorePredIdentity =
            st && st->kind == SiteStore::Kind::PredBits &&
            (st->imm & 0x7f) == 0x7f;
    }
    if (run.restoreCC) {
        const SiteStore *st =
            lastStoreAt(run, run.restoreCCAbs, run.restoreCCOff);
        run.restoreCCIdentity =
            st && st->kind == SiteStore::Kind::CCOrig;
    }
}

/**
 * Choose the stores an idle visit keeps (SiteRun::idleStores): every
 * abs store, plus every store overlapping a slot that a non-identity
 * effect or restore reads back. Identity effects need no slot, since
 * a clean frame lets the epilogue skip them. Runs after markIdentity.
 */
void
selectIdleStores(SiteRun &run)
{
    // Both sides are 4-byte words: they overlap when their offsets
    // are less than 4 bytes apart.
    const auto overlaps = [](const SiteStore &st, bool abs,
                             uint32_t off) {
        return st.abs == abs && st.off < off + 4 && off < st.off + 4;
    };
    for (const SiteStore &st : run.stores) {
        const auto reloads = [&](const SiteRegEffect &e) {
            return e.kind == SiteRegEffect::Kind::Load && !e.identity &&
                   overlaps(st, e.abs, e.off);
        };
        const bool read_back =
            std::ranges::any_of(run.effects, reloads) ||
            (run.restorePred && !run.restorePredIdentity &&
             overlaps(st, run.restorePredAbs, run.restorePredOff)) ||
            (run.restoreCC && !run.restoreCCIdentity &&
             overlaps(st, run.restoreCCAbs, run.restoreCCOff));
        if (!st.abs && !read_back)
            continue;
        run.idleStores.push_back(st);
        if (st.spill)
            run.idleSpillBytes += 4;
    }
}

/**
 * Bucket the template stores into SiteSlotGroups: aligned 8-slot
 * windows per row, each slot recording the last store that writes
 * it. Groups make the SIMD tier's store count proportional to frame
 * *span*, not store count — small interleaved segments share one
 * transpose + one masked 256-bit store per lane. An empty plan means
 * the template is not vectorizable (misaligned or oversized); the
 * scalar loop handles it.
 */
void
buildSlotGroups(SiteRun &run)
{
    run.groups.clear();
    // rowSrc is a uint8_t store index; templates anywhere near the
    // limit are degenerate, so just leave them to the scalar loop.
    if (run.stores.size() >= 0xff)
        return;
    for (size_t i = 0; i < run.stores.size(); ++i) {
        const SiteStore &st = run.stores[i];
        if (st.off % 4 != 0) {
            run.groups.clear();
            return;
        }
        const uint32_t base = st.off & ~31u;
        const uint32_t slot = (st.off & 31u) / 4;
        SiteSlotGroup *g = nullptr;
        for (SiteSlotGroup &cand : run.groups) {
            if (cand.base == base && cand.abs == st.abs) {
                g = &cand;
                break;
            }
        }
        if (!g) {
            run.groups.emplace_back();
            g = &run.groups.back();
            g->base = base;
            g->abs = st.abs;
        }
        g->mask |= static_cast<uint8_t>(1u << slot);
        g->rowSrc[slot] = static_cast<uint8_t>(i);
    }
    // Finalize after bucketing so last-wins aliasing has settled:
    // bake the maskstore operand, the lane-invariant row of Const
    // slots, and the load-or-splat plan for Reg/Const-only windows
    // (the SIMD tier then skips the per-kind dispatch entirely —
    // the scanner guarantees Reg sources are within the register
    // budget, so regIdx always names a live SoA span).
    for (SiteSlotGroup &g : run.groups) {
        g.constOnly = true;
        g.regConst = true;
        for (int j = 0; j < 8; ++j) {
            if (!(g.mask & (1u << j)))
                continue;
            g.maskVec[j] = -1;
            const SiteStore &st = run.stores[g.rowSrc[j]];
            if (st.kind == SiteStore::Kind::Const) {
                g.constVal[j] = st.imm;
            } else {
                g.constOnly = false;
                if (st.kind == SiteStore::Kind::Reg)
                    g.regIdx[j] = st.reg;
                else
                    g.regConst = false;
            }
        }
    }
}

/**
 * Summarize the phase-B effect list so the executor can skip the
 * whole epilogue replay (setup loops included) when the handler left
 * frame memory clean and everything is an identity rewrite.
 */
void
summarizeEffects(SiteRun &run)
{
    bool all = true;
    bool addr = false;
    for (const SiteRegEffect &e : run.effects) {
        all = all && e.identity;
        addr = addr || e.kind == SiteRegEffect::Kind::AddrLo ||
               e.kind == SiteRegEffect::Kind::AddrHi;
    }
    if (run.restorePred)
        all = all && run.restorePredIdentity;
    if (run.restoreCC)
        all = all && run.restoreCCIdentity;
    run.effectsAllIdentity = all;
    run.effectsNeedAddr = addr;
}

} // namespace

std::vector<SiteRun>
compileSiteRuns(const ir::Kernel &kernel,
                const std::vector<uint8_t> &leader)
{
    std::vector<SiteRun> runs;
    const auto &code = kernel.code;
    SiteScanner scanner(kernel, leader);
    uint32_t i = 0;
    while (i < code.size()) {
        const Instruction &ins = code[i];
        // Cheap pre-filter before the full scan: bundles start with
        // a synthetic stack-frame prologue on R1.
        if (ins.op == Opcode::IADD32I && ins.synthetic &&
            ins.dst == sass::abi::StackPtr &&
            ins.srcA == sass::abi::StackPtr) {
            SiteRun run;
            if (scanner.scan(i, run)) {
                markIdentity(run);
                selectIdleStores(run);
                buildSlotGroups(run);
                summarizeEffects(run);
                i += run.len;
                runs.push_back(std::move(run));
                continue;
            }
        }
        ++i;
    }
    return runs;
}

} // namespace sassi::simt
