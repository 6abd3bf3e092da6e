/**
 * @file
 * Property tests for the ALU semantics: random straight-line
 * integer/float programs, and targeted cases for the edges of single
 * ops (carry chains, every compare, NaN and signed zero, saturation,
 * predicate transfers, guarded ops on partial masks), executed on the
 * simulator must match an independent host-side evaluation. Every
 * case runs on each dispatch plane that can execute ALU ops
 * differently: generic stepping, superblocks with the scalar tier,
 * and superblocks with the SIMD tier.
 */

#include <gtest/gtest.h>

#include <array>
#include <climits>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "sassir/builder.h"
#include "simt/device.h"
#include "util/rng.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using sassi::ir::KernelBuilder;

namespace {

/** A dispatch plane: the launch options that select it. */
struct Plane
{
    const char *name;
    int superblocks;
    int simd;
};

void
PrintTo(const Plane &plane, std::ostream *os)
{
    *os << plane.name;
}

constexpr Plane kPlanes[] = {
    {"generic", 0, 0}, {"superblock", 1, 0}, {"simd", 1, 1}};

LaunchOptions
planeOptions(const Plane &plane)
{
    LaunchOptions opts;
    opts.numThreads = 1;
    opts.superblocks = plane.superblocks;
    opts.simd = plane.simd;
    return opts;
}

/** One randomly chosen ALU operation over registers 10..15. */
struct Op
{
    int kind;
    int d, a, b;
    uint32_t imm;
};

uint32_t
asBits(float f)
{
    uint32_t b;
    std::memcpy(&b, &f, 4);
    return b;
}

/** Host-side reference for one op over a register array. */
void
evalHost(const Op &op, uint32_t *r)
{
    uint32_t a = r[op.a];
    uint32_t b = r[op.b];
    switch (op.kind) {
      case 0: r[op.d] = a + b; break;
      case 1: r[op.d] = a + op.imm; break;
      case 2: r[op.d] = a * b; break;
      case 3: r[op.d] = a * b + r[op.d]; break;
      case 4: r[op.d] = op.imm >= 32 ? 0 : a << (op.imm & 31); break;
      case 5: r[op.d] = op.imm >= 32 ? 0 : a >> (op.imm & 31); break;
      case 6:
        r[op.d] = static_cast<uint32_t>(static_cast<int32_t>(a) >>
                                        std::min(op.imm, 31u));
        break;
      case 7: r[op.d] = a & b; break;
      case 8: r[op.d] = a | b; break;
      case 9: r[op.d] = a ^ b; break;
      case 10: r[op.d] = ~a; break;
      case 11:
        r[op.d] = static_cast<uint32_t>(
            std::min(static_cast<int32_t>(a),
                     static_cast<int32_t>(b)));
        break;
      case 12:
        r[op.d] = static_cast<uint32_t>(
            std::max(static_cast<int32_t>(a),
                     static_cast<int32_t>(b)));
        break;
      case 13:
        r[op.d] = static_cast<uint32_t>(__builtin_popcount(a));
        break;
      case 14:
        r[op.d] = asBits(static_cast<float>(static_cast<int32_t>(a)));
        break;
      case 15: {
        // FFMA over I2F-sanitized operands: raw register bits could
        // be NaNs, whose payload propagation is not deterministic
        // across separately compiled evaluators, so float ops always
        // consume freshly converted integers (finite by design).
        float fa = static_cast<float>(static_cast<int32_t>(a));
        float fb = static_cast<float>(static_cast<int32_t>(b));
        float fd = static_cast<float>(static_cast<int32_t>(r[op.d]));
        r[op.d] = asBits(fa * fb + fd);
        break;
      }
      case 16: {
        float fa = static_cast<float>(static_cast<int32_t>(a));
        float fb = static_cast<float>(static_cast<int32_t>(b));
        r[op.d] = asBits(fa + fb);
        break;
      }
      default: break;
    }
}

void
emitOp(KernelBuilder &kb, const Op &op)
{
    auto D = static_cast<RegId>(op.d);
    auto A = static_cast<RegId>(op.a);
    auto B = static_cast<RegId>(op.b);
    switch (op.kind) {
      case 0: kb.iadd(D, A, B); break;
      case 1: kb.iaddi(D, A, op.imm); break;
      case 2: kb.imul(D, A, B); break;
      case 3: kb.imad(D, A, B, D); break;
      case 4: kb.shl(D, A, op.imm); break;
      case 5: kb.shr(D, A, op.imm); break;
      case 6: kb.shr(D, A, op.imm, true); break;
      case 7: kb.lop(LogicOp::And, D, A, B); break;
      case 8: kb.lop(LogicOp::Or, D, A, B); break;
      case 9: kb.lop(LogicOp::Xor, D, A, B); break;
      case 10: kb.lop(LogicOp::Not, D, A, B); break;
      case 11: kb.imnmx(D, A, B, true); break;
      case 12: kb.imnmx(D, A, B, false); break;
      case 13: kb.popc(D, A); break;
      case 14: kb.i2f(D, A); break;
      case 15:
        kb.i2f(6, A);
        kb.i2f(7, B);
        kb.i2f(D, D);
        kb.ffma(D, 6, 7, D);
        break;
      case 16:
        kb.i2f(6, A);
        kb.i2f(7, B);
        kb.fadd(D, 6, 7);
        break;
      default: break;
    }
}

class AluProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(AluProperty, RandomProgramsMatchHostReference)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 11);
    for (int trial = 0; trial < 10; ++trial) {
        // Generate a random straight-line program over R10..R15.
        std::vector<Op> ops;
        int len = static_cast<int>(rng.nextRange(5, 40));
        for (int i = 0; i < len; ++i) {
            Op op;
            op.kind = static_cast<int>(rng.nextBelow(17));
            op.d = static_cast<int>(rng.nextRange(10, 15));
            op.a = static_cast<int>(rng.nextRange(10, 15));
            op.b = static_cast<int>(rng.nextRange(10, 15));
            op.imm = static_cast<uint32_t>(rng.nextBelow(33));
            ops.push_back(op);
        }

        // Kernel: seed R10..R15 from tid-derived values, run the
        // program, store all six registers.
        KernelBuilder kb("alu");
        kb.s2r(4, SpecialReg::TidX);
        for (int r = 10; r <= 15; ++r) {
            kb.imuli(static_cast<RegId>(r), 4,
                     static_cast<int64_t>(r) * 2654435761u % 977);
            kb.iaddi(static_cast<RegId>(r), static_cast<RegId>(r),
                     r * 17);
        }
        for (const Op &op : ops)
            emitOp(kb, op);
        kb.ldc(8, 0, 8);
        kb.imuli(6, 4, 24);
        kb.iaddcc(8, 8, 6);
        kb.iaddx(9, 9, RZ);
        for (int r = 10; r <= 15; ++r)
            kb.stg(8, (r - 10) * 4, static_cast<RegId>(r));
        kb.exit();

        ir::Module mod;
        mod.kernels.push_back(kb.finish());
        Device dev;
        dev.loadModule(std::move(mod));
        const uint32_t n = 32;
        uint64_t dout = dev.malloc(n * 24);
        KernelArgs args;
        args.addU64(dout);
        // The host reference does not depend on the plane.
        std::vector<std::array<uint32_t, 16>> want(n);
        for (uint32_t t = 0; t < n; ++t) {
            uint32_t *r = want[t].data();
            for (int reg = 10; reg <= 15; ++reg) {
                r[reg] = static_cast<uint32_t>(
                    t * (static_cast<uint64_t>(reg) * 2654435761u %
                         977)) + static_cast<uint32_t>(reg) * 17;
            }
            for (const Op &op : ops)
                evalHost(op, r);
        }
        for (const Plane &plane : kPlanes) {
            dev.memset(dout, 0xa5, n * 24);
            LaunchResult res = dev.launch("alu", Dim3(1), Dim3(n), args,
                                          planeOptions(plane));
            ASSERT_TRUE(res.ok()) << plane.name << ": " << res.message;
            for (uint32_t t = 0; t < n; ++t) {
                for (int reg = 10; reg <= 15; ++reg) {
                    uint32_t got = dev.read<uint32_t>(
                        dout + t * 24 +
                        static_cast<uint32_t>(reg - 10) * 4);
                    EXPECT_EQ(got, want[t][static_cast<size_t>(reg)])
                        << plane.name << " thread " << t << " R" << reg
                        << " trial " << trial;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AluProperty, ::testing::Range(0, 6));

/*
 * Targeted host-reference cases. Each kernel loads NumIn words per
 * thread into R10.., runs a body that writes R20.. (and may use
 * R14..R19 and every predicate), and stores NumOut words back. A
 * block has a full warp and a partial one, so vector stores see both
 * the whole-warp and the masked case; the grid has enough blocks for
 * one thread per input.
 */

constexpr int NumIn = 4;
constexpr int NumOut = 8;
constexpr uint32_t Threads = 48;

using Inputs = std::array<uint32_t, NumIn>;
using Outputs = std::array<uint32_t, NumOut>;

uint32_t
bitsOf(float f)
{
    return asBits(f);
}

float
floatOf(uint32_t v)
{
    float f;
    std::memcpy(&f, &v, 4);
    return f;
}

/** Quiet NaN, a NaN with a payload, infinities and signed zeros. */
constexpr uint32_t kQNaN = 0x7fc00000u;
constexpr uint32_t kPayloadNaN = 0xffa00001u;
constexpr uint32_t kInf = 0x7f800000u;
constexpr uint32_t kNegInf = 0xff800000u;
constexpr uint32_t kNegZero = 0x80000000u;

class AluReference : public ::testing::TestWithParam<Plane>
{
  protected:
    /**
     * Run body over per-thread inputs (cycled to fill the last block)
     * on this test's plane; patch may edit the finished kernel. Expects
     * every output word of every thread to equal want(inputs), or,
     * where want gives a NaN bit pattern and nanAware is set, any
     * NaN.
     */
    void
    check(const std::vector<Inputs> &inputs,
          const std::function<void(KernelBuilder &)> &body,
          const std::function<Outputs(const Inputs &)> &want,
          const std::function<void(ir::Kernel &)> &patch = {},
          bool nanAware = false)
    {
        KernelBuilder kb("ref");
        kb.s2r(4, SpecialReg::TidX);
        kb.s2r(5, SpecialReg::CtaIdX);
        kb.imadi(4, 5, Threads, 4);
        kb.ldc(2, 0, 8);
        kb.imuli(6, 4, NumIn * 4);
        kb.iaddcc(2, 2, 6);
        kb.iaddx(3, 3, RZ);
        kb.ldc(8, 8, 8);
        kb.imuli(6, 4, NumOut * 4);
        kb.iaddcc(8, 8, 6);
        kb.iaddx(9, 9, RZ);
        for (int i = 0; i < NumIn; ++i)
            kb.ldg(static_cast<RegId>(10 + i), 2, i * 4);
        body(kb);
        for (int i = 0; i < NumOut; ++i)
            kb.stg(8, i * 4, static_cast<RegId>(20 + i));
        kb.exit();
        ir::Kernel k = kb.finish();
        if (patch)
            patch(k);

        ir::Module mod;
        mod.kernels.push_back(std::move(k));
        Device dev;
        dev.loadModule(std::move(mod));
        const uint32_t ctas =
            static_cast<uint32_t>((inputs.size() + Threads - 1) / Threads);
        const uint32_t n = ctas * Threads;
        std::vector<Inputs> in(n);
        for (uint32_t t = 0; t < n; ++t)
            in[t] = inputs[t % inputs.size()];
        uint64_t din = dev.malloc(n * sizeof(Inputs));
        uint64_t dout = dev.malloc(n * sizeof(Outputs));
        dev.memcpyHtoD(din, in.data(), n * sizeof(Inputs));
        dev.memset(dout, 0xa5, n * sizeof(Outputs));
        KernelArgs args;
        args.addU64(din);
        args.addU64(dout);
        LaunchResult res = dev.launch("ref", Dim3(ctas), Dim3(Threads),
                                      args, planeOptions(GetParam()));
        ASSERT_TRUE(res.ok()) << res.message;

        std::vector<Outputs> got(n);
        dev.memcpyDtoH(got.data(), dout, n * sizeof(Outputs));
        for (uint32_t t = 0; t < n; ++t) {
            const Outputs w = want(in[t]);
            for (int i = 0; i < NumOut; ++i) {
                const size_t o = static_cast<size_t>(i);
                if (nanAware && std::isnan(floatOf(w[o])) &&
                    std::isnan(floatOf(got[t][o])))
                    continue;
                EXPECT_EQ(got[t][o], w[o])
                    << "thread " << t << " R" << 20 + i << " inputs 0x"
                    << std::hex << in[t][0] << " 0x" << in[t][1]
                    << " 0x" << in[t][2] << " 0x" << in[t][3];
            }
        }
    }
};

/** Integer inputs around the sign and wrap boundaries. */
std::vector<Inputs>
edgeInts()
{
    const uint32_t vals[] = {0u,          1u,          2u,
                             0x7fffffffu, 0x80000000u, 0x80000001u,
                             0xfffffffeu, 0xffffffffu, 0x55aa5540u,
                             0xdeadbeefu};
    std::vector<Inputs> out;
    for (uint32_t a : vals)
        for (uint32_t b : vals)
            out.push_back({a, b, a ^ (b >> 1), b + 7});
    Rng rng(99);
    for (int i = 0; i < 20; ++i) {
        Inputs x;
        for (uint32_t &v : x)
            v = static_cast<uint32_t>(rng.next());
        out.push_back(x);
    }
    return out;
}

/** Float inputs with NaNs, infinities, signed zeros and ties. */
std::vector<Inputs>
edgeFloats()
{
    const uint32_t vals[] = {kQNaN,         kPayloadNaN,   kInf,
                             kNegInf,       0u,            kNegZero,
                             bitsOf(1.5f),  bitsOf(-1.5f), bitsOf(3e9f),
                             bitsOf(-2.0f), bitsOf(1e-40f)};
    std::vector<Inputs> out;
    for (uint32_t a : vals)
        for (uint32_t b : vals)
            out.push_back({a, b, b, a});
    return out;
}

/** Finite floats only (NaN payloads are not deterministic across
 *  separately compiled evaluators of value-producing ops). */
std::vector<Inputs>
finiteFloats()
{
    Rng rng(7);
    std::vector<Inputs> out;
    for (int i = 0; i < 48; ++i) {
        Inputs x;
        for (uint32_t &v : x)
            v = bitsOf(static_cast<float>(
                static_cast<int32_t>(rng.nextBelow(2000001)) - 1000000) /
                       static_cast<float>(1 + rng.nextBelow(97)));
        out.push_back(x);
    }
    return out;
}

const CmpOp kCmps[] = {CmpOp::LT, CmpOp::EQ, CmpOp::LE,
                       CmpOp::GT, CmpOp::NE, CmpOp::GE};

template <typename T>
bool
hostCmp(CmpOp op, T a, T b)
{
    switch (op) {
      case CmpOp::LT: return a < b;
      case CmpOp::EQ: return a == b;
      case CmpOp::LE: return a <= b;
      case CmpOp::GT: return a > b;
      case CmpOp::NE: return a != b;
      case CmpOp::GE: return a >= b;
    }
    return false;
}

TEST_P(AluReference, MovSelAndFmul)
{
    std::vector<Inputs> in = edgeInts();
    for (const Inputs &f : finiteFloats())
        in.push_back(f);
    check(
        in,
        [](KernelBuilder &kb) {
            kb.mov(20, 10);
            kb.mov32i(21, 0xdeadbeef);
            kb.mov(RZ, 11); // Discarded; the vector pack leaves RZ scalar.
            kb.lopi(LogicOp::And, 14, 11, 1);
            kb.isetpi(0, CmpOp::NE, 14, 0);
            kb.sel(22, 10, 12, 0);
            kb.sel(23, 10, 12, 0, true);
            kb.fmul(24, 12, 13);
            kb.fmul(25, 13, 13);
        },
        [](const Inputs &x) {
            const bool p = x[1] & 1;
            return Outputs{x[0],
                           0xdeadbeefu,
                           p ? x[0] : x[2],
                           p ? x[2] : x[0],
                           bitsOf(floatOf(x[2]) * floatOf(x[3])),
                           bitsOf(floatOf(x[3]) * floatOf(x[3])),
                           0,
                           0};
        },
        {}, true);
}

TEST_P(AluReference, CarryChainsAddWideIntegers)
{
    check(
        edgeInts(),
        [](KernelBuilder &kb) {
            // 64-bit (R11:R10) + (R13:R12), register and immediate B.
            kb.iaddcc(20, 10, 12);
            kb.iaddx(21, 11, 13);
            kb.iaddcci(22, 10, 0xffffffff);
            kb.iaddxi(23, 11, 0);
            // 96-bit (R12:R11:R10) + (R13:R13:R13): the middle add
            // both consumes and produces the carry (IADD.X.CC).
            kb.iaddcc(24, 10, 13);
            kb.iaddx(25, 11, 13);
            kb.iaddx(26, 12, 13);
        },
        [](const Inputs &x) {
            const uint64_t s64 = ((uint64_t{x[1]} << 32) | x[0]) +
                                 ((uint64_t{x[3]} << 32) | x[2]);
            const uint64_t i64 =
                ((uint64_t{x[1]} << 32) | x[0]) + 0xffffffffu;
            const uint64_t lo = uint64_t{x[0]} + x[3];
            const uint64_t mid = uint64_t{x[1]} + x[3] + (lo >> 32);
            const uint32_t hi = x[2] + x[3] + static_cast<uint32_t>(
                                                  mid >> 32);
            return Outputs{static_cast<uint32_t>(s64),
                           static_cast<uint32_t>(s64 >> 32),
                           static_cast<uint32_t>(i64),
                           static_cast<uint32_t>(i64 >> 32),
                           static_cast<uint32_t>(lo),
                           static_cast<uint32_t>(mid),
                           hi,
                           0};
        },
        [](ir::Kernel &k) {
            // The builder has no IADD.X.CC: patch the 96-bit chain's
            // middle add, the one writing R25.
            for (sass::Instruction &ins : k.code)
                if (ins.op == Opcode::IADD && ins.dst == 25)
                    ins.setCC = true;
        });
}

TEST_P(AluReference, IsetpEveryCompareSignedAndUnsigned)
{
    check(
        edgeInts(),
        [](KernelBuilder &kb) {
            for (int s = 0; s < 2; ++s) {
                for (int c = 0; c < 6; ++c)
                    kb.isetp(static_cast<PredId>(c), kCmps[c], 10, 11,
                             s == 0);
                kb.p2r(static_cast<RegId>(20 + s), 0x3f);
            }
            for (int c = 0; c < 6; ++c)
                kb.isetpi(static_cast<PredId>(c), kCmps[c], 12, -5);
            kb.p2r(22, 0x3f);
            // Combined with a source predicate: P6 = R13 odd.
            kb.lopi(LogicOp::And, 14, 13, 1);
            kb.isetpi(6, CmpOp::NE, 14, 0);
            kb.isetp(0, CmpOp::LT, 10, 11);
            kb.isetp(1, CmpOp::GE, 10, 11, false);
            kb.p2r(23, 0x3);
        },
        [](const Inputs &x) {
            Outputs o{};
            const auto sa = static_cast<int32_t>(x[0]);
            const auto sb = static_cast<int32_t>(x[1]);
            for (int c = 0; c < 6; ++c) {
                o[0] |= uint32_t{hostCmp(kCmps[c], sa, sb)} << c;
                o[1] |= uint32_t{hostCmp(kCmps[c], x[0], x[1])} << c;
                o[2] |= uint32_t{hostCmp(
                            kCmps[c], static_cast<int32_t>(x[2]), -5)}
                        << c;
            }
            const bool p6 = x[3] & 1;
            o[3] = uint32_t{sa < sb && p6} |
                   uint32_t{x[0] >= x[1] && !p6} << 1;
            return o;
        },
        [](ir::Kernel &k) {
            // The last two ISETPs combine with P6 and !P6.
            int seen = 0;
            for (size_t i = k.code.size(); i-- > 0 && seen < 2;) {
                if (k.code[i].op != Opcode::ISETP)
                    continue;
                k.code[i].pSrc = 6;
                k.code[i].pSrcNeg = seen == 0;
                ++seen;
            }
        });
}

TEST_P(AluReference, PsetpLogicOps)
{
    check(
        edgeInts(),
        [](KernelBuilder &kb) {
            kb.lopi(LogicOp::And, 14, 10, 1);
            kb.isetpi(0, CmpOp::NE, 14, 0);
            kb.lopi(LogicOp::And, 14, 10, 2);
            kb.isetpi(1, CmpOp::NE, 14, 0);
            kb.psetp(2, LogicOp::And, 0, false, 1, false);
            kb.psetp(3, LogicOp::Or, 0, false, 1, true);
            kb.psetp(4, LogicOp::Xor, 0, true, 1, false);
            kb.psetp(5, LogicOp::PassB, 0, false, 1, true);
            kb.psetp(6, LogicOp::Not, 0, false, 1, false);
            kb.p2r(20, 0x7c);
            kb.psetp(2, LogicOp::And, PT, false, 0, true);
            kb.psetp(3, LogicOp::Or, PT, true, 1, false);
            kb.p2r(21, 0xc);
        },
        [](const Inputs &x) {
            const bool p0 = x[0] & 1, p1 = x[0] & 2;
            Outputs o{};
            o[0] = uint32_t{p0 && p1} << 2 | uint32_t{p0 || !p1} << 3 |
                   uint32_t{!p0 != p1} << 4 | uint32_t{!p1} << 5 |
                   uint32_t{!p0} << 6;
            o[1] = uint32_t{!p0} << 2 | uint32_t{p1} << 3;
            return o;
        });
}

TEST_P(AluReference, FsetpWithNaNOperands)
{
    check(
        edgeFloats(),
        [](KernelBuilder &kb) {
            for (int c = 0; c < 6; ++c)
                kb.fsetp(static_cast<PredId>(c), kCmps[c], 10, 11);
            kb.p2r(20, 0x3f);
            for (int c = 0; c < 6; ++c)
                kb.fsetpi(static_cast<PredId>(c), kCmps[c], 10, 1.5f);
            kb.p2r(21, 0x3f);
        },
        [](const Inputs &x) {
            Outputs o{};
            for (int c = 0; c < 6; ++c) {
                o[0] |= uint32_t{hostCmp(kCmps[c], floatOf(x[0]),
                                         floatOf(x[1]))}
                        << c;
                o[1] |= uint32_t{hostCmp(kCmps[c], floatOf(x[0]), 1.5f)}
                        << c;
            }
            return o;
        });
}

TEST_P(AluReference, FmnmxWithNaNAndSignedZero)
{
    check(
        edgeFloats(),
        [](KernelBuilder &kb) {
            kb.fmnmx(20, 10, 11, true);
            kb.fmnmx(21, 10, 11, false);
        },
        [](const Inputs &x) {
            // IEEE minNum/maxNum: a NaN operand yields the other one.
            const float a = floatOf(x[0]), b = floatOf(x[1]);
            return Outputs{bitsOf(std::fmin(a, b)),
                           bitsOf(std::fmax(a, b)),
                           0, 0, 0, 0, 0, 0};
        },
        {}, true);
}

TEST_P(AluReference, F2iSaturatesAndFloFindsTopBit)
{
    std::vector<Inputs> in = edgeFloats();
    const float more[] = {2147483520.0f, 2147483648.0f, -2147483648.0f,
                          -2147483904.0f, 2.7f, -2.7f, 0.5f, -0.5f};
    for (float f : more)
        in.push_back({bitsOf(f), bitsOf(f), 0, 0});
    for (const Inputs &x : edgeInts())
        in.push_back(x);
    check(
        in,
        [](KernelBuilder &kb) {
            kb.f2i(20, 10);
            kb.flo(21, 11);
        },
        [](const Inputs &x) {
            const double f = floatOf(x[0]);
            int32_t i;
            if (std::isnan(f))
                i = 0;
            else if (f >= 2147483648.0)
                i = INT32_MAX;
            else if (f < -2147483648.0)
                i = INT32_MIN;
            else
                i = static_cast<int32_t>(std::trunc(f));
            uint32_t top = 0xffffffffu;
            for (uint32_t bit = 0; bit < 32; ++bit)
                if (x[1] >> bit & 1)
                    top = bit;
            return Outputs{static_cast<uint32_t>(i), top, 0, 0, 0, 0, 0, 0};
        });
}

TEST_P(AluReference, P2rAndR2pTransferPredicatesAndCarry)
{
    check(
        edgeInts(),
        [](KernelBuilder &kb) {
            kb.r2p(11, 0xff);
            kb.r2p(10, 0x55);
            kb.p2r(20, 0xff);
            kb.p2r(21, 0x0f);
            // The carry bit reaches IADD.X.
            kb.iaddx(22, RZ, RZ);
        },
        [](const Inputs &x) {
            const uint32_t all = ((x[1] & ~0x55u) | (x[0] & 0x55u)) & 0xff;
            return Outputs{all, all & 0x0f, all >> 7, 0, 0, 0, 0, 0};
        });
}

TEST_P(AluReference, MufuRcpSqrtRsq)
{
    std::vector<Inputs> in = edgeFloats();
    for (const Inputs &f : finiteFloats())
        in.push_back(f);
    check(
        in,
        [](KernelBuilder &kb) {
            kb.mufu(MufuOp::Rcp, 20, 10);
            kb.mufu(MufuOp::Sqrt, 21, 10);
            kb.mufu(MufuOp::Rsq, 22, 10);
        },
        [](const Inputs &x) {
            const float a = floatOf(x[0]);
            return Outputs{bitsOf(1.0f / a), bitsOf(std::sqrt(a)),
                           bitsOf(1.0f / std::sqrt(a)),
                           0, 0, 0, 0, 0};
        },
        {}, true);
}

TEST_P(AluReference, GuardedOpsTouchOnlyTheirLanes)
{
    std::vector<Inputs> in = edgeInts();
    for (const Inputs &f : finiteFloats())
        in.push_back(f);
    check(
        in,
        [](KernelBuilder &kb) {
            for (int r = 20; r < 20 + NumOut; ++r)
                kb.mov32i(static_cast<RegId>(r),
                          0x11111111u * static_cast<uint32_t>(r - 19));
            kb.lopi(LogicOp::And, 14, 13, 1);
            kb.isetpi(0, CmpOp::NE, 14, 0);
            kb.onP(0).iadd(20, 10, 11);
            kb.onNotP(0).iadd(20, 10, 12);
            kb.onP(0).mov32i(21, 7);
            kb.onNotP(0).fmul(22, 12, 13);
            kb.onP(0).isetp(1, CmpOp::LT, 10, 11);
            kb.onNotP(0).isetp(1, CmpOp::GT, 10, 11, false);
            kb.p2r(23, 0x2);
            kb.onP(0).iaddcc(24, 10, 11);
            kb.onP(0).iaddx(25, RZ, RZ);
            kb.onNotP(0).sel(26, 10, 11, 0);
            kb.onP(0).shr(27, 10, 3, true);
        },
        [](const Inputs &x) {
            const bool p = x[3] & 1;
            const auto sa = static_cast<int32_t>(x[0]);
            const auto sb = static_cast<int32_t>(x[1]);
            Outputs o;
            for (int i = 0; i < NumOut; ++i)
                o[static_cast<size_t>(i)] =
                    0x11111111u * static_cast<uint32_t>(i + 1);
            o[0] = p ? x[0] + x[1] : x[0] + x[2];
            if (p)
                o[1] = 7;
            else
                o[2] = bitsOf(floatOf(x[2]) * floatOf(x[3]));
            o[3] = uint32_t{p ? sa < sb : x[0] > x[1]} << 1;
            if (p) {
                const uint64_t sum = uint64_t{x[0]} + x[1];
                o[4] = static_cast<uint32_t>(sum);
                o[5] = static_cast<uint32_t>(sum >> 32);
                o[7] = static_cast<uint32_t>(sa >> 3);
            } else {
                o[6] = x[1]; // SEL on P0, which is false here.
            }
            return o;
        },
        {}, true);
}

TEST_P(AluReference, DivergentRunsTouchOnlyActiveLanes)
{
    // Straight-line runs inside both sides of a divergent branch:
    // superblocks (and vector stores) under a partial active mask
    // must leave the other side's lanes alone.
    std::vector<Inputs> in = edgeInts();
    for (const Inputs &f : finiteFloats())
        in.push_back(f);
    check(
        in,
        [](KernelBuilder &kb) {
            for (int r = 20; r < 20 + NumOut; ++r)
                kb.mov(static_cast<RegId>(r), 13);
            kb.lopi(LogicOp::And, 14, 13, 1);
            kb.isetpi(0, CmpOp::NE, 14, 0);
            auto other = kb.newLabel();
            auto join = kb.newLabel();
            kb.ssy(join);
            kb.onNotP(0).bra(other);
            kb.iadd(20, 10, 11);
            kb.imul(21, 10, 11);
            kb.shr(22, 10, 5, true);
            kb.lop(LogicOp::Xor, 23, 10, 12);
            kb.sync();
            kb.bind(other);
            kb.fmul(24, 12, 13);
            kb.imnmx(25, 10, 11, true);
            kb.mov32i(26, 0x600d);
            kb.isetp(1, CmpOp::LE, 10, 11, false);
            kb.p2r(27, 0x2);
            kb.sync();
            kb.bind(join);
        },
        [](const Inputs &x) {
            Outputs o;
            o.fill(x[3]);
            if (x[3] & 1) {
                o[0] = x[0] + x[1];
                o[1] = x[0] * x[1];
                o[2] = static_cast<uint32_t>(static_cast<int32_t>(x[0]) >>
                                             5);
                o[3] = x[0] ^ x[2];
            } else {
                o[4] = bitsOf(floatOf(x[2]) * floatOf(x[3]));
                o[5] = static_cast<uint32_t>(
                    std::min(static_cast<int32_t>(x[0]),
                             static_cast<int32_t>(x[1])));
                o[6] = 0x600d;
                o[7] = uint32_t{x[0] <= x[1]} << 1;
            }
            return o;
        },
        {}, true);
}

INSTANTIATE_TEST_SUITE_P(Planes, AluReference,
                         ::testing::ValuesIn(kPlanes),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

} // namespace
