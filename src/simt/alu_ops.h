/**
 * @file
 * ALU micro-op semantics: every op written once, over a lane pack.
 *
 * An exec function (AluFn, simt/decode.h) applies one ALU instruction
 * to the exec lanes of a warp. Each op here is one body templated on
 * a *lane pack*, the group of lanes one step of the body computes:
 *
 *  - LaneOne (below) is a single lane: the scalar tier's loop over
 *    the set bits of exec, with uint32_t / float / bool values.
 *  - simd::Lanes8 (simd/simd_exec.cc) is eight lanes in one AVX2
 *    vector, four chunks per warp operand, with u32x8 / f32x8 values
 *    (simd/simd_vec.h).
 *
 * A pack's each() hands the body a cursor with one interface on both
 * tiers: ld(r) reads a register (RZ reads 0), st(r, v) writes the
 * exec lanes, imm(v) broadcasts a constant, bits(m) places per-lane
 * compare results in the warp's 32-bit lane mask, and pick(lanes, a,
 * b) selects per lane by such a mask. The value types share the
 * primitives the bodies use (+, *, &, |, ^, minS/maxS, shl/shrU/shrS,
 * cmpgtS/cmpeq, asFloat/asBits, i2f, flt/fle/feq), so an op's scalar
 * and vector exec functions are two instantiations of one body, and
 * selectAluFn<P> is the one selector for both tiers.
 *
 * Ops whose semantics do not map onto 8-lane vectors bit for bit
 * are written on LaneOne only: the CC carry chain, POPC/FLO,
 * FMNMX/MUFU/F2I (NaN and saturation edges), P2R/R2P (predicate-file
 * transposes) and S2R/L2G (lane-id arithmetic). On a wide pack the
 * selector resolves them to null at compile time (laneOnly), which
 * leaves them to the scalar tier; so does a register-writing op with
 * an RZ destination.
 *
 * Included by decode.cc and by simd/simd_exec.cc, the -mavx2
 * translation unit. Everything here has internal linkage: an inline
 * helper emitted as a weak symbol by both objects could resolve to
 * the AVX2-compiled copy and fault on a host without AVX2 (the
 * `simd`-labelled ctest AvxSymbolsConfined checks the library).
 */

#ifndef SASSI_SIMT_ALU_OPS_H
#define SASSI_SIMT_ALU_OPS_H

#include <bit>
#include <cmath>
#include <cstdint>

#include "simt/decode.h"
#include "simt/device.h"
#include "simt/warp.h"
#include "util/bitops.h"

namespace sassi::simt {
namespace {

using sass::CmpOp;
using sass::Instruction;
using sass::LogicOp;
using sass::MufuOp;
using sass::Opcode;
using sass::PredId;
using sass::PT;
using sass::RegId;
using sass::RZ;
using sass::SpecialReg;
using sass::WarpSize;

/*
 * Scalar value primitives; u32x8 and f32x8 provide the same set.
 * Shifts clamp as SASS does: a logical shift by 32 or more gives 0,
 * an arithmetic one sign-fills.
 */

inline float asFloat(uint32_t v) { return std::bit_cast<float>(v); }
inline uint32_t asBits(float f) { return std::bit_cast<uint32_t>(f); }

inline float
i2f(uint32_t v)
{
    return static_cast<float>(static_cast<int32_t>(v));
}

inline bool
cmpgtS(uint32_t a, uint32_t b)
{
    return static_cast<int32_t>(a) > static_cast<int32_t>(b);
}

inline bool cmpeq(uint32_t a, uint32_t b) { return a == b; }
inline uint32_t minS(uint32_t a, uint32_t b) { return cmpgtS(a, b) ? b : a; }
inline uint32_t maxS(uint32_t a, uint32_t b) { return cmpgtS(b, a) ? b : a; }
inline uint32_t shl(uint32_t a, uint32_t n) { return n >= 32 ? 0 : a << n; }
inline uint32_t shrU(uint32_t a, uint32_t n) { return n >= 32 ? 0 : a >> n; }

inline uint32_t
shrS(uint32_t a, uint32_t n)
{
    return static_cast<uint32_t>(static_cast<int32_t>(a) >>
                                 (n > 31 ? 31 : n));
}

inline bool flt(float a, float b) { return a < b; }
inline bool fle(float a, float b) { return a <= b; }
inline bool feq(float a, float b) { return a == b; }

/** Predicate p of all 32 lanes as a bitmask (PT reads all-on). */
inline uint32_t
predMask(const Warp &warp, PredId p, bool neg)
{
    const uint32_t m =
        p == PT ? ~0u : warp.predBits[static_cast<size_t>(p)];
    return neg ? ~m : m;
}

/** Write a 32-lane predicate result to the exec lanes (PT discards). */
inline void
storePred(Warp &warp, PredId p, uint32_t value, uint32_t exec)
{
    if (p == PT)
        return;
    uint32_t &bits = warp.predBits[static_cast<size_t>(p)];
    bits = (bits & ~exec) | (value & exec);
}

/**
 * The one-lane pack: the scalar tier's loop over the set bits of
 * exec. MicroProgram selects exec functions only for instructions
 * whose registers are all inside the kernel's budget, so ld/st index
 * the register-major file without Warp::reg's bounds checks.
 */
struct LaneOne
{
    static constexpr bool Wide = false;

    Warp &warp;
    int lane;

    template <typename Body>
    static void
    each(Warp &warp, uint32_t exec, Body &&body)
    {
        for (uint32_t m = exec; m; m &= m - 1)
            body(LaneOne{warp, std::countr_zero(m)});
    }

    uint32_t
    ld(RegId r) const
    {
        return r == RZ ? 0u : warp.laneSpan(r)[lane];
    }

    void
    st(RegId r, uint32_t v) const
    {
        if (r != RZ)
            warp.laneSpan(r)[lane] = v;
    }

    static uint32_t imm(uint32_t v) { return v; }
    uint32_t bits(bool m) const { return uint32_t{m} << lane; }

    uint32_t
    pick(uint32_t lanes, uint32_t a, uint32_t b) const
    {
        return (lanes >> lane) & 1u ? a : b;
    }
};

/** The operands of one instruction at one cursor: srcA, operand B
 *  (immediate or srcB, fixed at compile time), srcC. */
template <typename L, bool BImm>
struct Operands
{
    const L &l;
    const Instruction &ins;

    auto a() const { return l.ld(ins.srcA); }
    auto c() const { return l.ld(ins.srcC); }

    auto
    b() const
    {
        if constexpr (BImm)
            return l.imm(static_cast<uint32_t>(ins.imm));
        else
            return l.ld(ins.srcB);
    }
};

/**
 * dst = Op::eval(operands) on every exec lane: the shape of every
 * register-writing op. Each Op reads only the operands it uses.
 */
template <class P, class Op, bool BImm = false>
void
uWrite(const UopCtx &, Warp &warp, const Instruction &ins,
       uint32_t exec)
{
    P::each(warp, exec, [&](auto l) {
        l.st(ins.dst, Op::eval(Operands<decltype(l), BImm>{l, ins}));
    });
}

/*
 * Register-writing ops. FADD/FMUL results are IEEE-defined, so the
 * vector and scalar forms agree bit for bit; FFMA stays a multiply
 * then an add with two roundings (no FMA contraction on either tier).
 */

struct Mov { static auto eval(const auto &o) { return o.a(); } };
struct Add { static auto eval(const auto &o) { return o.a() + o.b(); } };
struct Mul { static auto eval(const auto &o) { return o.a() * o.b(); } };
struct MinS { static auto eval(const auto &o) { return minS(o.a(), o.b()); } };
struct MaxS { static auto eval(const auto &o) { return maxS(o.a(), o.b()); } };
struct Shl { static auto eval(const auto &o) { return shl(o.a(), o.b()); } };
struct ShrU { static auto eval(const auto &o) { return shrU(o.a(), o.b()); } };
struct ShrS { static auto eval(const auto &o) { return shrS(o.a(), o.b()); } };
struct And { static auto eval(const auto &o) { return o.a() & o.b(); } };
struct Or { static auto eval(const auto &o) { return o.a() | o.b(); } };
struct Xor { static auto eval(const auto &o) { return o.a() ^ o.b(); } };
struct PassB { static auto eval(const auto &o) { return o.b(); } };
struct I2f { static auto eval(const auto &o) { return asBits(i2f(o.a())); } };

struct Mov32i
{
    static auto
    eval(const auto &o)
    {
        return o.l.imm(static_cast<uint32_t>(o.ins.imm));
    }
};

struct Not
{
    static auto eval(const auto &o) { return o.a() ^ o.l.imm(~0u); }
};

struct Mad
{
    static auto eval(const auto &o) { return o.a() * o.b() + o.c(); }
};

struct Sel
{
    static auto
    eval(const auto &o)
    {
        return o.l.pick(predMask(o.l.warp, o.ins.pSrc, o.ins.pSrcNeg),
                        o.a(), o.b());
    }
};

struct Fadd
{
    static auto
    eval(const auto &o)
    {
        return asBits(asFloat(o.a()) + asFloat(o.b()));
    }
};

struct Fmul
{
    static auto
    eval(const auto &o)
    {
        return asBits(asFloat(o.a()) * asFloat(o.b()));
    }
};

struct Ffma
{
    static auto
    eval(const auto &o)
    {
        return asBits(asFloat(o.a()) * asFloat(o.b()) + asFloat(o.c()));
    }
};

/*
 * Register-writing ops on LaneOne only.
 */

struct Popc
{
    static uint32_t
    eval(const auto &o)
    {
        return static_cast<uint32_t>(popc(o.a()));
    }
};

struct Flo
{
    static uint32_t
    eval(const auto &o)
    {
        const uint32_t a = o.a();
        return a == 0 ? 0xffffffffu
                      : static_cast<uint32_t>(31 - std::countl_zero(a));
    }
};

struct Fmin
{
    static uint32_t
    eval(const auto &o)
    {
        return asBits(std::fmin(asFloat(o.a()), asFloat(o.b())));
    }
};

struct Fmax
{
    static uint32_t
    eval(const auto &o)
    {
        return asBits(std::fmax(asFloat(o.a()), asFloat(o.b())));
    }
};

struct Mufu
{
    static uint32_t
    eval(const auto &o)
    {
        const float a = asFloat(o.a());
        switch (o.ins.mufu) {
          case MufuOp::Rcp: return asBits(1.0f / a);
          case MufuOp::Sqrt: return asBits(std::sqrt(a));
          case MufuOp::Rsq: return asBits(1.0f / std::sqrt(a));
          case MufuOp::Lg2: return asBits(std::log2(a));
          case MufuOp::Ex2: return asBits(std::exp2(a));
          case MufuOp::Sin: return asBits(std::sin(a));
          case MufuOp::Cos: return asBits(std::cos(a));
        }
        return 0;
    }
};

/** F2I: round toward zero, saturating; NaN converts to 0. */
struct F2i
{
    static uint32_t
    eval(const auto &o)
    {
        const float f = asFloat(o.a());
        int32_t r;
        if (std::isnan(f))
            r = 0;
        else if (f >= 2147483647.0f)
            r = 2147483647;
        else if (f <= -2147483648.0f)
            r = -2147483647 - 1;
        else
            r = static_cast<int32_t>(f);
        return static_cast<uint32_t>(r);
    }
};

/** P2R: the lane's P0..P6 in bits 0..6 and CC in bit 7, masked. */
struct P2r
{
    static uint32_t
    eval(const auto &o)
    {
        uint32_t bits = o.l.warp.predByte(o.l.lane);
        if (o.l.warp.cc(o.l.lane))
            bits |= 0x80;
        return bits & static_cast<uint32_t>(o.ins.imm);
    }
};

/*
 * Predicate-writing ops: a 32-lane result mask, combined with the
 * source predicate and stored to the exec lanes.
 */

/** ISETP; unsigned compares bias both sides by 2^31 and reuse the
 *  signed greater-than. */
template <class P, bool BImm, bool Signed>
void
uIsetp(const UopCtx &, Warp &warp, const Instruction &ins,
       uint32_t exec)
{
    uint32_t gt = 0, eq = 0;
    P::each(warp, exec, [&](auto l) {
        const Operands<decltype(l), BImm> o{l, ins};
        auto a = o.a();
        auto b = o.b();
        if constexpr (!Signed) {
            a = a ^ l.imm(0x80000000u);
            b = b ^ l.imm(0x80000000u);
        }
        gt |= l.bits(cmpgtS(a, b));
        eq |= l.bits(cmpeq(a, b));
    });
    uint32_t r = 0;
    switch (ins.cmp) {
      case CmpOp::LT: r = ~(gt | eq); break;
      case CmpOp::EQ: r = eq; break;
      case CmpOp::LE: r = ~gt; break;
      case CmpOp::GT: r = gt; break;
      case CmpOp::NE: r = ~eq; break;
      case CmpOp::GE: r = gt | eq; break;
    }
    storePred(warp, ins.pDst,
              r & predMask(warp, ins.pSrc, ins.pSrcNeg), exec);
}

/** FSETP. Ordered compares are false on NaN; NE is the complement of
 *  the ordered EQ, so it is true on NaN (C++'s a != b). */
template <class P, bool BImm>
void
uFsetp(const UopCtx &, Warp &warp, const Instruction &ins,
       uint32_t exec)
{
    uint32_t r = 0;
    P::each(warp, exec, [&](auto l) {
        const Operands<decltype(l), BImm> o{l, ins};
        const auto a = asFloat(o.a());
        const auto b = asFloat(o.b());
        switch (ins.cmp) {
          case CmpOp::LT: r |= l.bits(flt(a, b)); break;
          case CmpOp::GT: r |= l.bits(flt(b, a)); break;
          case CmpOp::LE: r |= l.bits(fle(a, b)); break;
          case CmpOp::GE: r |= l.bits(fle(b, a)); break;
          case CmpOp::EQ:
          case CmpOp::NE: r |= l.bits(feq(a, b)); break;
        }
    });
    if (ins.cmp == CmpOp::NE)
        r = ~r;
    storePred(warp, ins.pDst,
              r & predMask(warp, ins.pSrc, ins.pSrcNeg), exec);
}

/** PSETP: pure predicate logic, 32 lanes in one mask expression (the
 *  same function on both tiers). */
void
uPsetp(const UopCtx &, Warp &warp, const Instruction &ins,
       uint32_t exec)
{
    const uint32_t pa = predMask(warp, ins.pSrc, ins.pSrcNeg);
    const uint32_t pb = predMask(warp, static_cast<PredId>(ins.imm & 7),
                                 (ins.imm & 8) != 0);
    uint32_t r = 0;
    switch (ins.logic) {
      case LogicOp::And: r = pa & pb; break;
      case LogicOp::Or: r = pa | pb; break;
      case LogicOp::Xor: r = pa ^ pb; break;
      case LogicOp::PassB: r = pb; break;
      case LogicOp::Not: r = ~pa; break;
    }
    storePred(warp, ins.pDst, r, exec);
}

/*
 * The remaining LaneOne-only ops. Like the register-writing ones they
 * take the pack as a parameter, so the selector names them only in
 * templates a wide pack never instantiates.
 */

/** IADD's carry chain: .CC writes the carry-out, .X adds the carry. */
template <class L, bool BImm, bool UseCC, bool SetCC>
void
uIaddCC(const UopCtx &, Warp &warp, const Instruction &ins,
        uint32_t exec)
{
    L::each(warp, exec, [&](L l) {
        const Operands<L, BImm> o{l, ins};
        const uint64_t sum = uint64_t{o.a()} + o.b() +
                             (UseCC && warp.cc(l.lane) ? 1u : 0u);
        l.st(ins.dst, static_cast<uint32_t>(sum));
        if constexpr (SetCC)
            warp.setCC(l.lane, (sum >> 32) != 0);
    });
}

/** R2P: bits 0..6 of srcA to P0..P6 and bit 7 to CC, where imm has
 *  the bit set. */
template <class L>
void
uR2p(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    const uint32_t mask = static_cast<uint32_t>(ins.imm);
    L::each(warp, exec, [&](L l) {
        const uint32_t a = l.ld(ins.srcA);
        for (PredId p = 0; p < sass::NumPred; ++p)
            if (mask & (1u << p))
                warp.setPred(l.lane, p, a & (1u << p));
        if (mask & 0x80)
            warp.setCC(l.lane, a & 0x80);
    });
}

template <class L>
void
uS2rTid(const UopCtx &ctx, Warp &warp, const Instruction &ins,
        uint32_t exec)
{
    L::each(warp, exec, [&](L l) {
        const uint32_t linear =
            static_cast<uint32_t>(warp.rank * WarpSize + l.lane);
        uint32_t v;
        if (ins.sreg == SpecialReg::TidX)
            v = linear % ctx.block.x;
        else if (ins.sreg == SpecialReg::TidY)
            v = (linear / ctx.block.x) % ctx.block.y;
        else
            v = linear / (ctx.block.x * ctx.block.y);
        l.st(ins.dst, v);
    });
}

template <class L>
void
uS2rLane(const UopCtx &, Warp &warp, const Instruction &ins,
         uint32_t exec)
{
    L::each(warp, exec, [&](L l) {
        l.st(ins.dst, static_cast<uint32_t>(l.lane));
    });
}

/** S2R of a warp-invariant special register: resolved once. */
template <class L>
void
uS2rUniform(const UopCtx &ctx, Warp &warp, const Instruction &ins,
            uint32_t exec)
{
    uint32_t v = 0;
    switch (ins.sreg) {
      case SpecialReg::CtaIdX: v = ctx.cta.x; break;
      case SpecialReg::CtaIdY: v = ctx.cta.y; break;
      case SpecialReg::CtaIdZ: v = ctx.cta.z; break;
      case SpecialReg::NTidX: v = ctx.block.x; break;
      case SpecialReg::NTidY: v = ctx.block.y; break;
      case SpecialReg::NTidZ: v = ctx.block.z; break;
      case SpecialReg::NCtaIdX: v = ctx.grid.x; break;
      case SpecialReg::NCtaIdY: v = ctx.grid.y; break;
      case SpecialReg::NCtaIdZ: v = ctx.grid.z; break;
      case SpecialReg::WarpId: v = static_cast<uint32_t>(warp.rank); break;
      default: break;
    }
    L::each(warp, exec, [&](L l) { l.st(ins.dst, v); });
}

/** L2G: a local address to its generic-window address (a pair). */
template <class L>
void
uL2g(const UopCtx &ctx, Warp &warp, const Instruction &ins,
     uint32_t exec)
{
    L::each(warp, exec, [&](L l) {
        const uint64_t thread =
            ctx.ctaLinear * ctx.block.count() +
            static_cast<uint64_t>(warp.rank * WarpSize + l.lane);
        const uint64_t g = Device::LocalWindowBase +
                           thread * ctx.localBytes + l.ld(ins.srcA);
        l.st(ins.dst, lo32(g));
        l.st(static_cast<RegId>(ins.dst + 1), hi32(g));
    });
}

/** NOP and MEMBAR: no architectural effect in this model. */
void
uNop(const UopCtx &, Warp &, const Instruction &, uint32_t)
{
}

/** uWrite<P, Op> specialized on whether operand B is an immediate. */
template <class P, class Op>
AluFn
write(bool b_imm)
{
    return b_imm ? uWrite<P, Op, true> : uWrite<P, Op, false>;
}

/**
 * The tier test, at compile time: an op written for LaneOne alone is
 * null on a wide pack. pick is a template lambda over the pack, so a
 * wide pack never instantiates the op's body.
 */
template <class P, typename Pick>
AluFn
laneOnly([[maybe_unused]] Pick pick)
{
    if constexpr (P::Wide)
        return nullptr;
    else
        return pick.template operator()<P>();
}

/**
 * Select the exec function of an ALU-class instruction on pack P, or
 * null when the op has none there: an opcode outside the table, an
 * S2R of %clock (its value is the live issue count, which batching
 * would change), or a LaneOne-only op on a wide pack. The caller has
 * checked the register budget.
 */
template <class P>
AluFn
selectAluFn(const Instruction &ins)
{
    // A wide pack stores whole lanes; an RZ destination stays scalar.
    if (P::Wide && ins.dst == RZ && ins.writesGPR())
        return nullptr;
    const bool bi = ins.bIsImm;
    switch (ins.op) {
      case Opcode::NOP:
      case Opcode::MEMBAR:
        return uNop;
      case Opcode::MOV:
        return uWrite<P, Mov>;
      case Opcode::MOV32I:
        return uWrite<P, Mov32i>;
      case Opcode::SEL:
        return write<P, Sel>(bi);
      case Opcode::IADD:
      case Opcode::IADD32I:
        if (!ins.useCC && !ins.setCC)
            return write<P, Add>(bi);
        return laneOnly<P>([&]<class L>() -> AluFn {
            if (!ins.useCC)
                return bi ? uIaddCC<L, true, false, true>
                          : uIaddCC<L, false, false, true>;
            if (ins.setCC)
                return bi ? uIaddCC<L, true, true, true>
                          : uIaddCC<L, false, true, true>;
            return bi ? uIaddCC<L, true, true, false>
                      : uIaddCC<L, false, true, false>;
        });
      case Opcode::IMUL:
        return write<P, Mul>(bi);
      case Opcode::IMAD:
        return write<P, Mad>(bi);
      case Opcode::IMNMX:
        return ins.cmp == CmpOp::LT ? write<P, MinS>(bi)
                                    : write<P, MaxS>(bi);
      case Opcode::SHL:
        return write<P, Shl>(bi);
      case Opcode::SHR:
        return ins.sExt ? write<P, ShrS>(bi) : write<P, ShrU>(bi);
      case Opcode::LOP:
        switch (ins.logic) {
          case LogicOp::And: return write<P, And>(bi);
          case LogicOp::Or: return write<P, Or>(bi);
          case LogicOp::Xor: return write<P, Xor>(bi);
          case LogicOp::PassB: return write<P, PassB>(bi);
          case LogicOp::Not: return write<P, Not>(bi);
        }
        return nullptr;
      case Opcode::POPC:
        return laneOnly<P>([]<class L>() { return uWrite<L, Popc>; });
      case Opcode::FLO:
        return laneOnly<P>([]<class L>() { return uWrite<L, Flo>; });
      case Opcode::ISETP:
        if (ins.sExt)
            return bi ? uIsetp<P, true, true> : uIsetp<P, false, true>;
        return bi ? uIsetp<P, true, false> : uIsetp<P, false, false>;
      case Opcode::PSETP:
        return uPsetp;
      case Opcode::P2R:
        return laneOnly<P>([]<class L>() { return uWrite<L, P2r>; });
      case Opcode::R2P:
        return laneOnly<P>([]<class L>() { return uR2p<L>; });
      case Opcode::FADD:
        return write<P, Fadd>(bi);
      case Opcode::FMUL:
        return write<P, Fmul>(bi);
      case Opcode::FFMA:
        return write<P, Ffma>(bi);
      case Opcode::FMNMX:
        return laneOnly<P>([&]<class L>() {
            return ins.cmp == CmpOp::LT ? write<L, Fmin>(bi)
                                        : write<L, Fmax>(bi);
        });
      case Opcode::FSETP:
        return bi ? uFsetp<P, true> : uFsetp<P, false>;
      case Opcode::MUFU:
        return laneOnly<P>([]<class L>() { return uWrite<L, Mufu>; });
      case Opcode::I2F:
        return uWrite<P, I2f>;
      case Opcode::F2I:
        return laneOnly<P>([]<class L>() { return uWrite<L, F2i>; });
      case Opcode::S2R:
        return laneOnly<P>([&]<class L>() -> AluFn {
            switch (ins.sreg) {
              case SpecialReg::TidX:
              case SpecialReg::TidY:
              case SpecialReg::TidZ:
                return uS2rTid<L>;
              case SpecialReg::LaneId:
                return uS2rLane<L>;
              case SpecialReg::Clock:
                return nullptr;
              default:
                return uS2rUniform<L>;
            }
        });
      case Opcode::L2G:
        return laneOnly<P>([]<class L>() { return uL2g<L>; });
      default:
        return nullptr;
    }
}

} // namespace
} // namespace sassi::simt

#endif // SASSI_SIMT_ALU_OPS_H
