/**
 * @file
 * Functional tests for the SIMT executor: ALU semantics, memory
 * spaces, divergence-stack control flow, barriers, atomics, warp
 * operations, and fault detection.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sassir/builder.h"
#include "simt/device.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using sassi::ir::KernelBuilder;
using sassi::ir::Label;

namespace {

/** Build a single-kernel module and load it. */
void
loadKernel(Device &dev, ir::Kernel kernel)
{
    ir::Module mod;
    mod.kernels.push_back(std::move(kernel));
    dev.loadModule(std::move(mod));
}

/** vecadd: out[i] = a[i] + b[i] for i < n. */
ir::Kernel
buildVecAdd()
{
    KernelBuilder kb("vecadd");
    // Params: a(0), b(8), out(16), n(24).
    kb.s2r(16, SpecialReg::TidX);
    kb.s2r(17, SpecialReg::CtaIdX);
    kb.s2r(18, SpecialReg::NTidX);
    kb.imad(16, 17, 18, 16);          // gid = ctaid*ntid + tid
    kb.ldc(19, 24);                   // n
    Label done = kb.newLabel();
    kb.isetp(0, CmpOp::GE, 16, 19);
    kb.onP(0).bra(done);
    kb.shl(20, 16, 2);                // byte offset
    kb.ldc(8, 0, 8);                  // a base in R8:R9
    kb.ldc(10, 8, 8);                 // b base in R10:R11
    kb.ldc(12, 16, 8);                // out base in R12:R13
    kb.iaddcc(8, 8, 20);
    kb.iaddx(9, 9, RZ);
    kb.iaddcc(10, 10, 20);
    kb.iaddx(11, 11, RZ);
    kb.iaddcc(12, 12, 20);
    kb.iaddx(13, 13, RZ);
    kb.ldg(14, 8);
    kb.ldg(15, 10);
    kb.iadd(14, 14, 15);
    kb.stg(12, 0, 14);
    kb.bind(done);
    kb.exit();
    return kb.finish();
}

TEST(Executor, VecAddComputesSums)
{
    Device dev;
    loadKernel(dev, buildVecAdd());

    const uint32_t n = 1000; // not a multiple of 32 or the block size
    std::vector<uint32_t> a(n), b(n);
    for (uint32_t i = 0; i < n; ++i) {
        a[i] = i * 3;
        b[i] = 1000000 - i;
    }
    uint64_t da = dev.malloc(n * 4);
    uint64_t db = dev.malloc(n * 4);
    uint64_t dout = dev.malloc(n * 4);
    dev.memcpyHtoD(da, a.data(), n * 4);
    dev.memcpyHtoD(db, b.data(), n * 4);

    KernelArgs args;
    args.addU64(da);
    args.addU64(db);
    args.addU64(dout);
    args.addU32(n);

    LaunchResult r = dev.launch("vecadd", Dim3(8), Dim3(128), args);
    ASSERT_TRUE(r.ok()) << r.message;

    std::vector<uint32_t> out(n);
    dev.memcpyDtoH(out.data(), dout, n * 4);
    for (uint32_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], a[i] + b[i]) << "at index " << i;

    EXPECT_GT(r.stats.warpInstrs, 0u);
    EXPECT_GT(r.stats.threadInstrs, r.stats.warpInstrs);
    EXPECT_EQ(r.stats.ctas, 8u);
    EXPECT_EQ(r.stats.syntheticWarpInstrs, 0u);
}

TEST(Executor, DivergenceReconvergesWithSsySync)
{
    // Lanes with tid < 10 take one path, the rest the other; both
    // paths write a distinct tag, and after reconvergence all lanes
    // add 100. Exercises SSY / divergent BRA / SYNC.
    KernelBuilder kb("diverge");
    kb.s2r(4, SpecialReg::TidX);
    kb.ldc(8, 0, 8); // out base
    kb.shl(6, 4, 2);
    kb.iaddcc(8, 8, 6);
    kb.iaddx(9, 9, RZ);
    Label reconv = kb.newLabel();
    Label else_path = kb.newLabel();
    kb.ssy(reconv);
    kb.isetpi(0, CmpOp::LT, 4, 10);
    kb.onNotP(0).bra(else_path);
    kb.mov32i(5, 1); // then: tag 1
    kb.sync();
    kb.bind(else_path);
    kb.mov32i(5, 2); // else: tag 2
    kb.sync();
    kb.bind(reconv);
    kb.iaddi(5, 5, 100);
    kb.stg(8, 0, 5);
    kb.exit();

    Device dev;
    loadKernel(dev, kb.finish());
    uint64_t dout = dev.malloc(32 * 4);
    KernelArgs args;
    args.addU64(dout);

    LaunchResult r = dev.launch("diverge", Dim3(1), Dim3(32), args);
    ASSERT_TRUE(r.ok()) << r.message;

    std::vector<uint32_t> out(32);
    dev.memcpyDtoH(out.data(), dout, 32 * 4);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(out[i], i < 10 ? 101u : 102u) << "lane " << i;
}

TEST(Executor, LoopWithDivergentExit)
{
    // Each lane iterates tid+1 times: counter accumulates; exercises
    // backward branches with progressively diverging exit.
    KernelBuilder kb("loop");
    kb.s2r(4, SpecialReg::TidX);
    kb.ldc(8, 0, 8);
    kb.shl(6, 4, 2);
    kb.iaddcc(8, 8, 6);
    kb.iaddx(9, 9, RZ);
    kb.mov32i(5, 0);  // acc
    kb.mov32i(6, 0);  // i
    Label exit_l = kb.newLabel();
    Label top = kb.newLabel();
    kb.ssy(exit_l);
    kb.bind(top);
    kb.iaddi(5, 5, 7);
    kb.iaddi(6, 6, 1);
    kb.isetp(0, CmpOp::LE, 6, 4);
    kb.onP(0).bra(top);
    kb.sync();
    kb.bind(exit_l);
    kb.stg(8, 0, 5);
    kb.exit();

    Device dev;
    loadKernel(dev, kb.finish());
    uint64_t dout = dev.malloc(32 * 4);
    KernelArgs args;
    args.addU64(dout);

    LaunchResult r = dev.launch("loop", Dim3(1), Dim3(32), args);
    ASSERT_TRUE(r.ok()) << r.message;

    std::vector<uint32_t> out(32);
    dev.memcpyDtoH(out.data(), dout, 32 * 4);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(out[i], 7u * (static_cast<uint32_t>(i) + 1)) << i;
}

TEST(Executor, SharedMemoryAndBarrier)
{
    // Reverse 64 values within a CTA through shared memory.
    KernelBuilder kb("reverse");
    kb.setSharedBytes(64 * 4);
    kb.s2r(4, SpecialReg::TidX);
    kb.ldc(8, 0, 8); // in
    kb.ldc(10, 8, 8); // out
    kb.shl(6, 4, 2);
    kb.iaddcc(8, 8, 6);
    kb.iaddx(9, 9, RZ);
    kb.ldg(12, 8);
    kb.sts(6, 0, 12);
    kb.bar();
    // Read shared[63 - tid]: 63 - tid = 63 + ~tid + 1.
    kb.mov32i(13, 63);
    kb.lopi(LogicOp::Not, 15, 4, 0);
    kb.iadd(13, 13, 15);
    kb.iaddi(13, 13, 1);
    kb.shl(13, 13, 2);
    kb.lds(12, 13, 0);
    kb.shl(6, 4, 2);
    kb.iaddcc(10, 10, 6);
    kb.iaddx(11, 11, RZ);
    kb.stg(10, 0, 12);
    kb.exit();

    Device dev;
    loadKernel(dev, kb.finish());
    const int n = 64;
    std::vector<uint32_t> in(n);
    for (int i = 0; i < n; ++i)
        in[static_cast<size_t>(i)] = static_cast<uint32_t>(i * 11 + 5);
    uint64_t din = dev.malloc(n * 4);
    uint64_t dout = dev.malloc(n * 4);
    dev.memcpyHtoD(din, in.data(), n * 4);
    KernelArgs args;
    args.addU64(din);
    args.addU64(dout);

    LaunchResult r = dev.launch("reverse", Dim3(1), Dim3(64), args);
    ASSERT_TRUE(r.ok()) << r.message;

    std::vector<uint32_t> out(n);
    dev.memcpyDtoH(out.data(), dout, n * 4);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(out[static_cast<size_t>(i)],
                  in[static_cast<size_t>(n - 1 - i)]) << i;
}

TEST(Executor, GlobalAtomicsAccumulate)
{
    KernelBuilder kb("atom");
    kb.ldc(8, 0, 8);
    kb.mov32i(4, 1);
    kb.atom(AtomOp::Add, 6, 8, 4);
    kb.exit();

    Device dev;
    loadKernel(dev, kb.finish());
    uint64_t dctr = dev.malloc(4);
    dev.write<uint32_t>(dctr, 0);
    KernelArgs args;
    args.addU64(dctr);

    LaunchResult r = dev.launch("atom", Dim3(4), Dim3(256), args);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(dev.read<uint32_t>(dctr), 4u * 256u);
}

TEST(Executor, VoteBallotAndShfl)
{
    // ballot(tid & 1) then broadcast lane 0's ballot via shfl.
    KernelBuilder kb("vote");
    kb.ldc(8, 0, 8);
    kb.s2r(4, SpecialReg::TidX);
    kb.lopi(LogicOp::And, 5, 4, 1);
    kb.isetpi(0, CmpOp::NE, 5, 0);
    kb.ballot(6, 0);
    kb.shfli(ShflMode::Idx, 7, 6, 0);
    kb.shl(5, 4, 2);
    kb.iaddcc(8, 8, 5);
    kb.iaddx(9, 9, RZ);
    kb.stg(8, 0, 7);
    kb.exit();

    Device dev;
    loadKernel(dev, kb.finish());
    uint64_t dout = dev.malloc(32 * 4);
    KernelArgs args;
    args.addU64(dout);
    LaunchResult r = dev.launch("vote", Dim3(1), Dim3(32), args);
    ASSERT_TRUE(r.ok()) << r.message;

    std::vector<uint32_t> out(32);
    dev.memcpyDtoH(out.data(), dout, 32 * 4);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(out[static_cast<size_t>(i)], 0xaaaaaaaau);
}

TEST(Executor, FloatPipelineAndMufu)
{
    // out[i] = sqrt(float(i) * 2.0f + 1.0f)
    KernelBuilder kb("fp");
    kb.ldc(8, 0, 8);
    kb.s2r(4, SpecialReg::TidX);
    kb.i2f(5, 4);
    kb.fmov32i(6, 2.0f);
    kb.fmov32i(7, 1.0f);
    kb.ffma(5, 5, 6, 7);
    kb.mufu(MufuOp::Sqrt, 5, 5);
    kb.shl(6, 4, 2);
    kb.iaddcc(8, 8, 6);
    kb.iaddx(9, 9, RZ);
    kb.stg(8, 0, 5);
    kb.exit();

    Device dev;
    loadKernel(dev, kb.finish());
    uint64_t dout = dev.malloc(32 * 4);
    KernelArgs args;
    args.addU64(dout);
    LaunchResult r = dev.launch("fp", Dim3(1), Dim3(32), args);
    ASSERT_TRUE(r.ok()) << r.message;

    std::vector<float> out(32);
    dev.memcpyDtoH(out.data(), dout, 32 * 4);
    for (int i = 0; i < 32; ++i)
        EXPECT_FLOAT_EQ(out[static_cast<size_t>(i)],
                        std::sqrt(static_cast<float>(i) * 2.f + 1.f));
}

TEST(Executor, OutOfBoundsLoadFaults)
{
    KernelBuilder kb("oob");
    kb.mov32i(8, 0x666);
    kb.mov32i(9, 0);
    kb.ldg(4, 8);
    kb.exit();

    Device dev;
    loadKernel(dev, kb.finish());
    LaunchResult r = dev.launch("oob", Dim3(1), Dim3(32), KernelArgs());
    EXPECT_EQ(r.outcome, Outcome::MemFault);
    EXPECT_FALSE(r.message.empty());
}

TEST(Executor, InfiniteLoopHitsWatchdog)
{
    KernelBuilder kb("spin");
    Label top = kb.newLabel();
    kb.bind(top);
    kb.bra(top);
    kb.exit();

    Device dev;
    loadKernel(dev, kb.finish());
    LaunchOptions opts;
    opts.watchdog = 10000;
    LaunchResult r =
        dev.launch("spin", Dim3(1), Dim3(32), KernelArgs(), opts);
    EXPECT_EQ(r.outcome, Outcome::Hang);
}

TEST(Executor, BptTraps)
{
    KernelBuilder kb("trap");
    kb.bpt();
    kb.exit();
    Device dev;
    loadKernel(dev, kb.finish());
    LaunchResult r = dev.launch("trap", Dim3(1), Dim3(32), KernelArgs());
    EXPECT_EQ(r.outcome, Outcome::Trap);
}

TEST(Executor, PartialWarpAndMultiDimBlocks)
{
    // 2D block 5x3 = 15 threads: each writes tidy*16+tidx.
    KernelBuilder kb("dim2");
    kb.ldc(8, 0, 8);
    kb.s2r(4, SpecialReg::TidX);
    kb.s2r(5, SpecialReg::TidY);
    kb.shl(6, 5, 4);
    kb.iadd(6, 6, 4);
    kb.s2r(7, SpecialReg::NTidX);
    kb.imad(7, 5, 7, 4); // linear = tidy*ntidx + tidx
    kb.shl(7, 7, 2);
    kb.iaddcc(8, 8, 7);
    kb.iaddx(9, 9, RZ);
    kb.stg(8, 0, 6);
    kb.exit();

    Device dev;
    loadKernel(dev, kb.finish());
    uint64_t dout = dev.malloc(15 * 4);
    KernelArgs args;
    args.addU64(dout);
    LaunchResult r = dev.launch("dim2", Dim3(1), Dim3(5, 3), args);
    ASSERT_TRUE(r.ok()) << r.message;

    std::vector<uint32_t> out(15);
    dev.memcpyDtoH(out.data(), dout, 15 * 4);
    for (uint32_t y = 0; y < 3; ++y)
        for (uint32_t x = 0; x < 5; ++x)
            EXPECT_EQ(out[y * 5 + x], y * 16 + x);
}

TEST(Executor, CallAndReturn)
{
    // JCAL to a subroutine that doubles R4; verifies the call stack.
    KernelBuilder kb("call");
    Label fn = kb.newLabel();
    Label past = kb.newLabel();
    kb.ldc(8, 0, 8);
    kb.s2r(4, SpecialReg::TidX);
    kb.jcal(fn);
    kb.shl(6, 5, 2);
    kb.bra(past);
    kb.bind(fn);
    kb.iadd(5, 4, 4);
    kb.ret();
    kb.bind(past);
    kb.s2r(6, SpecialReg::TidX);
    kb.shl(6, 6, 2);
    kb.iaddcc(8, 8, 6);
    kb.iaddx(9, 9, RZ);
    kb.stg(8, 0, 5);
    kb.exit();

    Device dev;
    loadKernel(dev, kb.finish());
    uint64_t dout = dev.malloc(32 * 4);
    KernelArgs args;
    args.addU64(dout);
    LaunchResult r = dev.launch("call", Dim3(1), Dim3(32), args);
    ASSERT_TRUE(r.ok()) << r.message;
    std::vector<uint32_t> out(32);
    dev.memcpyDtoH(out.data(), dout, 32 * 4);
    for (uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(out[i], 2 * i);
}

TEST(Executor, CuptiCallbacksFireAroundLaunch)
{
    KernelBuilder kb("cb");
    kb.exit();
    Device dev;
    loadKernel(dev, kb.finish());

    std::vector<std::string> events;
    dev.callbacks().subscribe(
        [&](cupti::CallbackSite site, const cupti::CallbackData &data) {
            events.push_back(
                (site == cupti::CallbackSite::KernelLaunch ? "launch:"
                                                           : "exit:") +
                data.kernelName + "#" + std::to_string(data.invocation));
        });

    dev.launch("cb", Dim3(1), Dim3(32), KernelArgs());
    dev.launch("cb", Dim3(1), Dim3(32), KernelArgs());
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0], "launch:cb#1");
    EXPECT_EQ(events[1], "exit:cb#1");
    EXPECT_EQ(events[2], "launch:cb#2");
    EXPECT_EQ(events[3], "exit:cb#2");
}

} // namespace

namespace {

TEST(Executor, TextureAndSurfaceOpsActAsGlobalMemory)
{
    // TLD reads through the texture path; SULD/SUST through the
    // surface path (both map onto device global memory here), and
    // their classification flags reach instrumentation encodings.
    KernelBuilder kb("tex");
    kb.s2r(4, SpecialReg::TidX);
    kb.ldc(8, 0, 8);
    kb.shl(6, 4, 2);
    kb.iaddcc(8, 8, 6);
    kb.iaddx(9, 9, RZ);
    kb.tld(10, 8);              // texture load
    kb.iaddi(10, 10, 5);
    kb.ldc(12, 8, 8);
    kb.iaddcc(12, 12, 6);
    kb.iaddx(13, 13, RZ);
    kb.st(MemSpace::Surface, 12, 0, 10); // surface store
    kb.exit();

    Device dev;
    loadKernel(dev, kb.finish());
    const uint32_t n = 64;
    std::vector<uint32_t> in(n);
    for (uint32_t i = 0; i < n; ++i)
        in[i] = i * 3;
    uint64_t din = dev.malloc(n * 4);
    uint64_t dout = dev.malloc(n * 4);
    dev.memcpyHtoD(din, in.data(), n * 4);
    KernelArgs args;
    args.addU64(din);
    args.addU64(dout);
    LaunchResult r = dev.launch("tex", Dim3(1), Dim3(n), args);
    ASSERT_TRUE(r.ok()) << r.message;
    for (uint32_t i = 0; i < n; ++i)
        EXPECT_EQ(dev.read<uint32_t>(dout + 4 * i), in[i] + 5);
    EXPECT_EQ(r.stats.opcodeCounts[static_cast<size_t>(Opcode::TLD)],
              2u);
    EXPECT_EQ(r.stats.opcodeCounts[static_cast<size_t>(Opcode::SUST)],
              2u);
}

TEST(Executor, SubByteWidthLoadsExtendCorrectly)
{
    // LD.8/LD.16 with and without sign extension.
    KernelBuilder kb("narrow");
    kb.ldc(8, 0, 8);
    kb.ld(MemSpace::Global, 4, 8, 0, 1);        // u8
    kb.ld(MemSpace::Global, 5, 8, 0, 1, true);  // s8
    kb.ld(MemSpace::Global, 6, 8, 0, 2);        // u16
    kb.ld(MemSpace::Global, 7, 8, 0, 2, true);  // s16
    kb.ldc(10, 8, 8);
    kb.stg(10, 0, 4);
    kb.stg(10, 4, 5);
    kb.stg(10, 8, 6);
    kb.stg(10, 12, 7);
    kb.exit();

    Device dev;
    loadKernel(dev, kb.finish());
    uint64_t din = dev.malloc(4);
    dev.write<uint32_t>(din, 0x0000f9a3); // byte 0xa3, half 0xf9a3
    uint64_t dout = dev.malloc(16);
    KernelArgs args;
    args.addU64(din);
    args.addU64(dout);
    LaunchResult r = dev.launch("narrow", Dim3(1), Dim3(32), args);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(dev.read<uint32_t>(dout + 0), 0xa3u);
    EXPECT_EQ(dev.read<uint32_t>(dout + 4), 0xffffffa3u);
    EXPECT_EQ(dev.read<uint32_t>(dout + 8), 0xf9a3u);
    EXPECT_EQ(dev.read<uint32_t>(dout + 12), 0xfffff9a3u);
}

TEST(Executor, SharedAtomicsAndMinMaxExch)
{
    // ATOMS.MAX within a CTA, plus global ATOM.EXCH and CAS paths.
    KernelBuilder kb("atomics");
    kb.setSharedBytes(4);
    kb.s2r(4, SpecialReg::TidX);
    // shared[0] = max over tids
    kb.mov32i(5, 0);
    kb.atomShared(AtomOp::Max, 6, 5, 4);
    kb.bar();
    // first thread publishes it
    Label skip = kb.newLabel();
    kb.isetpi(0, CmpOp::NE, 4, 0);
    kb.onP(0).bra(skip);
    kb.lds(7, 5);
    kb.ldc(8, 0, 8);
    kb.stg(8, 0, 7);
    kb.bind(skip);
    kb.exit();

    Device dev;
    loadKernel(dev, kb.finish());
    uint64_t dout = dev.malloc(4);
    KernelArgs args;
    args.addU64(dout);
    LaunchResult r = dev.launch("atomics", Dim3(1), Dim3(100), args);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(dev.read<uint32_t>(dout), 99u);
}

} // namespace

namespace {

TEST(Executor, ShflModesUpDownBfly)
{
    // Each mode writes to a different output row.
    KernelBuilder kb("shfl");
    kb.ldc(8, 0, 8);
    kb.s2r(4, SpecialReg::LaneId);
    kb.shfli(ShflMode::Up, 5, 4, 1);
    kb.shfli(ShflMode::Down, 6, 4, 2);
    kb.shfli(ShflMode::Bfly, 7, 4, 3);
    kb.shl(10, 4, 2);
    kb.iaddcc(8, 8, 10);
    kb.iaddx(9, 9, RZ);
    kb.stg(8, 0, 5);
    kb.stg(8, 128, 6);
    kb.stg(8, 256, 7);
    kb.exit();
    Device dev;
    loadKernel(dev, kb.finish());
    uint64_t dout = dev.malloc(3 * 128);
    KernelArgs args;
    args.addU64(dout);
    ASSERT_TRUE(dev.launch("shfl", Dim3(1), Dim3(32), args).ok());
    for (uint32_t i = 0; i < 32; ++i) {
        // Up by 1: lane i reads lane i-1 (or keeps own at lane 0).
        uint32_t up = i == 0 ? 0 : i - 1;
        EXPECT_EQ(dev.read<uint32_t>(dout + 4 * i), up);
        // Down by 2: lane i reads lane i+2 (or keeps own near top).
        uint32_t down = i + 2 < 32 ? i + 2 : i;
        EXPECT_EQ(dev.read<uint32_t>(dout + 128 + 4 * i), down);
        // Bfly by 3: lane i reads lane i^3.
        EXPECT_EQ(dev.read<uint32_t>(dout + 256 + 4 * i), i ^ 3u);
    }
}

TEST(Executor, VoteAllAndAnyPredicates)
{
    // P0 = (lane < 32) always true; P1 = (lane == 5) mixed.
    KernelBuilder kb("voteaa");
    kb.ldc(8, 0, 8);
    kb.s2r(4, SpecialReg::LaneId);
    kb.isetpi(0, CmpOp::LT, 4, 32);
    kb.isetpi(1, CmpOp::EQ, 4, 5);
    kb.voteAll(2, 0);
    kb.voteAny(3, 1);
    kb.voteAll(4, 1);
    kb.p2r(5, 0x7f);
    kb.shl(6, 4, 2);
    kb.iaddcc(8, 8, 6);
    kb.iaddx(9, 9, RZ);
    kb.stg(8, 0, 5);
    kb.exit();
    Device dev;
    loadKernel(dev, kb.finish());
    uint64_t dout = dev.malloc(128);
    KernelArgs args;
    args.addU64(dout);
    ASSERT_TRUE(dev.launch("voteaa", Dim3(1), Dim3(32), args).ok());
    for (uint32_t i = 0; i < 32; ++i) {
        uint32_t preds = dev.read<uint32_t>(dout + 4 * i);
        EXPECT_TRUE(preds & (1 << 2)) << i;   // all(true) = true
        EXPECT_TRUE(preds & (1 << 3)) << i;   // any(mixed) = true
        EXPECT_FALSE(preds & (1 << 4)) << i;  // all(mixed) = false
    }
}

TEST(Executor, SharedAndConstantOutOfBoundsFault)
{
    {
        KernelBuilder kb("soob");
        kb.setSharedBytes(64);
        kb.mov32i(4, 1000);
        kb.lds(5, 4);
        kb.exit();
        Device dev;
        loadKernel(dev, kb.finish());
        LaunchResult r =
            dev.launch("soob", Dim3(1), Dim3(32), KernelArgs());
        EXPECT_EQ(r.outcome, Outcome::MemFault);
        EXPECT_NE(r.message.find("shared"), std::string::npos);
    }
    {
        KernelBuilder kb("coob");
        kb.ldc(4, 4096);
        kb.exit();
        Device dev;
        loadKernel(dev, kb.finish());
        LaunchResult r =
            dev.launch("coob", Dim3(1), Dim3(32), KernelArgs());
        EXPECT_EQ(r.outcome, Outcome::MemFault);
        EXPECT_NE(r.message.find("constant"), std::string::npos);
    }
}

TEST(Executor, DivergentInternalCallFaults)
{
    // Calls must be convergent; a guarded JCAL splitting the warp
    // is rejected (documented limitation, matching our ABI model).
    KernelBuilder kb("divcall");
    Label fn = kb.newLabel();
    Label after = kb.newLabel();
    kb.s2r(4, SpecialReg::LaneId);
    kb.isetpi(0, CmpOp::LT, 4, 7);
    kb.onP(0).jcal(fn);
    kb.bra(after);
    kb.bind(fn);
    kb.ret();
    kb.bind(after);
    kb.exit();
    Device dev;
    loadKernel(dev, kb.finish());
    LaunchResult r =
        dev.launch("divcall", Dim3(1), Dim3(32), KernelArgs());
    EXPECT_EQ(r.outcome, Outcome::InvalidPC);
}

TEST(Executor, BranchToOnePastEndFaultsAtTheBranch)
{
    // A label bound after the last instruction produces a branch
    // target of exactly code.size(). That target is outside the
    // kernel, and the fault must name the branch (its pc and the
    // bad target), not surface one fetch later as a bare
    // out-of-range pc.
    KernelBuilder kb("offend");
    Label end = kb.newLabel();
    kb.bra(end);
    kb.exit();
    kb.bind(end);
    Device dev;
    loadKernel(dev, kb.finish());
    LaunchResult r =
        dev.launch("offend", Dim3(1), Dim3(32), KernelArgs());
    EXPECT_EQ(r.outcome, Outcome::InvalidPC);
    EXPECT_NE(r.message.find("branch to invalid target 2"),
              std::string::npos)
        << r.message;
    EXPECT_NE(r.message.find("pc 0"), std::string::npos) << r.message;
}

TEST(Device, HeapReadsZeroUntilWrittenAndEndsAtTheMark)
{
    // The heap is one zeroed allocation of the full capacity; malloc
    // and mapSlack only raise the mapped mark.
    constexpr size_t kCapacity = 8u << 20;
    Device dev(kCapacity);
    auto expectZero = [&dev](uint64_t base, size_t bytes) {
        for (uint64_t off : {uint64_t{0}, uint64_t{bytes / 2},
                             uint64_t{bytes - 4}})
            EXPECT_EQ(dev.read<uint32_t>(base + off), 0u) << off;
    };
    auto expectMarkAt = [&dev](uint64_t mark) {
        EXPECT_TRUE(dev.isGlobal(mark - 1));
        EXPECT_FALSE(dev.isGlobal(mark));
        EXPECT_NE(dev.globalPtr(mark - 1, 1), nullptr);
        EXPECT_EQ(dev.globalPtr(mark, 1), nullptr);
        EXPECT_EQ(dev.globalPtr(mark - 1, 2), nullptr);
    };

    constexpr size_t kAlloc = 1u << 20;
    const uint64_t a = dev.malloc(kAlloc);
    ASSERT_EQ(a, Device::GlobalBase);
    expectZero(a, kAlloc);
    expectMarkAt(a + kAlloc);
    dev.write<uint32_t>(a + kAlloc / 2, 0xdeadbeefu);
    EXPECT_EQ(dev.read<uint32_t>(a + kAlloc / 2), 0xdeadbeefu);

    constexpr size_t kSlack = 2u << 20;
    dev.mapSlack(kSlack);
    expectZero(a + kAlloc, kSlack);
    expectMarkAt(a + kAlloc + kSlack);
    dev.write<uint32_t>(a + kAlloc + kSlack - 4, 0x12345678u);
    EXPECT_EQ(dev.read<uint32_t>(a + kAlloc + kSlack - 4), 0x12345678u);

    // Slack never maps past the capacity, and malloc cannot exceed it.
    dev.mapSlack(2 * kCapacity);
    expectMarkAt(Device::GlobalBase + kCapacity);
    EXPECT_DEATH((void)dev.malloc(kCapacity), "device out of memory");
}

} // namespace
