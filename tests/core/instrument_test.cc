/**
 * @file
 * Tests of the SASSI pass: transparency (instrumented kernels still
 * compute correct results), handler invocation semantics, parameter
 * correctness (Figure 2/3 behaviours), spilling, and state
 * modification through SASSIRegisterParams.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "core/sassi.h"
#include "sassir/builder.h"
#include "simt/device.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using sassi::ir::KernelBuilder;
using sassi::ir::Label;

namespace {

ir::Module
vecAddModule()
{
    KernelBuilder kb("vecadd");
    kb.s2r(16, SpecialReg::TidX);
    kb.s2r(17, SpecialReg::CtaIdX);
    kb.s2r(18, SpecialReg::NTidX);
    kb.imad(16, 17, 18, 16);
    kb.ldc(19, 24);
    Label done = kb.newLabel();
    kb.isetp(0, CmpOp::GE, 16, 19);
    kb.onP(0).bra(done);
    kb.shl(20, 16, 2);
    kb.ldc(8, 0, 8);
    kb.ldc(10, 8, 8);
    kb.ldc(12, 16, 8);
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
    ir::Module mod;
    mod.kernels.push_back(kb.finish());
    return mod;
}

struct VecAddSetup
{
    uint64_t da, db, dout;
    KernelArgs args;
    std::vector<uint32_t> a, b;
    uint32_t n;
};

VecAddSetup
setupVecAdd(Device &dev, uint32_t n = 300)
{
    VecAddSetup s;
    s.n = n;
    s.a.resize(n);
    s.b.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
        s.a[i] = i * 7 + 1;
        s.b[i] = i ^ 0x55aa;
    }
    s.da = dev.malloc(n * 4);
    s.db = dev.malloc(n * 4);
    s.dout = dev.malloc(n * 4);
    dev.memcpyHtoD(s.da, s.a.data(), n * 4);
    dev.memcpyHtoD(s.db, s.b.data(), n * 4);
    s.args.addU64(s.da);
    s.args.addU64(s.db);
    s.args.addU64(s.dout);
    s.args.addU32(n);
    return s;
}

void
checkVecAdd(Device &dev, const VecAddSetup &s)
{
    std::vector<uint32_t> out(s.n);
    dev.memcpyDtoH(out.data(), s.dout, s.n * 4);
    for (uint32_t i = 0; i < s.n; ++i)
        ASSERT_EQ(out[i], s.a[i] + s.b[i]) << "index " << i;
}

TEST(Instrument, BeforeAllIsTransparent)
{
    Device dev;
    dev.loadModule(vecAddModule());
    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.beforeAll = true;
    opts.memoryInfo = true;
    rt.instrument(opts);
    // No handler registered: pure overhead, no semantic change.
    auto s = setupVecAdd(dev);
    LaunchResult r = dev.launch("vecadd", Dim3(4), Dim3(128), s.args);
    ASSERT_TRUE(r.ok()) << r.message;
    checkVecAdd(dev, s);
    EXPECT_GT(r.stats.syntheticWarpInstrs, 0u);
    EXPECT_GT(r.stats.handlerCalls, 0u);
}

TEST(Instrument, Figure3OpcodeHistogram)
{
    // The paper's pedagogical handler: categorize instructions into
    // overlapping classes with device-side counters (Figure 3).
    Device dev;
    dev.loadModule(vecAddModule());
    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.beforeAll = true;
    opts.memoryInfo = true;
    rt.instrument(opts);

    uint64_t counters = dev.malloc(7 * 8);
    dev.memset(counters, 0, 7 * 8);

    rt.setBeforeHandler([&](const core::HandlerEnv &env) {
        const auto &bp = env.bp;
        const auto &mp = env.mp;
        if (bp.IsMem()) {
            cuda::atomicAdd64(counters + 0 * 8, 1);
            if (mp.GetWidth() > 4)
                cuda::atomicAdd64(counters + 1 * 8, 1);
        }
        if (bp.IsControlXfer())
            cuda::atomicAdd64(counters + 2 * 8, 1);
        if (bp.IsSync())
            cuda::atomicAdd64(counters + 3 * 8, 1);
        if (bp.IsNumeric())
            cuda::atomicAdd64(counters + 4 * 8, 1);
        if (bp.IsTexture())
            cuda::atomicAdd64(counters + 5 * 8, 1);
        cuda::atomicAdd64(counters + 6 * 8, 1);
    });

    auto s = setupVecAdd(dev, 256);
    LaunchResult r = dev.launch("vecadd", Dim3(2), Dim3(128), s.args);
    ASSERT_TRUE(r.ok()) << r.message;
    checkVecAdd(dev, s);

    uint64_t c[7];
    dev.memcpyDtoH(c, counters, sizeof(c));

    // 256 threads: each executes 5 LDC/LDG/STG memory ops (3 LDC +
    // 2 LDG + 1 STG = 6) ... count exactly: per thread with i < n:
    // LDC(n) + LDC*3(64-bit) + LDG*2 + STG = 7 memory ops; the three
    // 64-bit LDCs have width 8.
    EXPECT_EQ(c[0], 256u * 7u);
    EXPECT_EQ(c[1], 256u * 3u);
    // One conditional branch + one EXIT per thread.
    EXPECT_EQ(c[2], 256u * 2u);
    EXPECT_EQ(c[3], 0u);
    EXPECT_EQ(c[4], 0u);
    EXPECT_EQ(c[5], 0u);
    // Total = every executed original instruction, once per thread.
    EXPECT_GT(c[6], 256u * 10u);
    EXPECT_LT(c[6], r.stats.threadInstrs);
}

TEST(Instrument, InstrWillExecuteReflectsGuard)
{
    // Kernel with a guarded store: odd lanes execute it, even lanes
    // are predicated off. The handler sees all 32 lanes with the
    // correct instrWillExecute flag.
    KernelBuilder kb("guarded");
    kb.ldc(8, 0, 8);
    kb.s2r(4, SpecialReg::TidX);
    kb.shl(6, 4, 2);
    kb.iaddcc(8, 8, 6);
    kb.iaddx(9, 9, RZ);
    kb.lopi(LogicOp::And, 5, 4, 1);
    kb.isetpi(0, CmpOp::NE, 5, 0);
    kb.onP(0).stg(8, 0, 4);
    kb.exit();
    ir::Module mod;
    mod.kernels.push_back(kb.finish());

    Device dev;
    dev.loadModule(std::move(mod));
    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.beforeMem = true;
    opts.memoryInfo = true;
    rt.instrument(opts);

    int will = 0, wont = 0;
    rt.setBeforeHandler([&](const core::HandlerEnv &env) {
        if (!env.bp.IsMemWrite())
            return;
        if (env.bp.GetInstrWillExecute()) {
            ++will;
            EXPECT_EQ(env.lane % 2, 1);
        } else {
            ++wont;
            EXPECT_EQ(env.lane % 2, 0);
        }
    });

    uint64_t dout = dev.malloc(32 * 4);
    KernelArgs args;
    args.addU64(dout);
    LaunchResult r = dev.launch("guarded", Dim3(1), Dim3(32), args);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(will, 16);
    EXPECT_EQ(wont, 16);
}

TEST(Instrument, MemoryParamsCarryEffectiveAddress)
{
    Device dev;
    dev.loadModule(vecAddModule());
    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.beforeMem = true;
    opts.memoryInfo = true;
    rt.instrument(opts);

    auto s = setupVecAdd(dev, 64);

    std::map<uint64_t, int> store_addrs;
    rt.setBeforeHandler([&](const core::HandlerEnv &env) {
        if (!env.bp.GetInstrWillExecute())
            return;
        if (env.bp.IsMemWrite() && !env.bp.IsSpillOrFill()) {
            EXPECT_TRUE(env.mp.IsStore());
            EXPECT_FALSE(env.mp.IsLoad());
            EXPECT_EQ(env.mp.GetWidth(), 4);
            ++store_addrs[static_cast<uint64_t>(env.mp.GetAddress())];
        }
    });

    LaunchResult r = dev.launch("vecadd", Dim3(1), Dim3(64), s.args);
    ASSERT_TRUE(r.ok()) << r.message;
    checkVecAdd(dev, s);

    ASSERT_EQ(store_addrs.size(), 64u);
    for (uint32_t i = 0; i < 64; ++i) {
        EXPECT_EQ(store_addrs.count(s.dout + 4 * i), 1u)
            << "missing store to index " << i;
    }
}

TEST(Instrument, BranchParamsReportDirectionPerLane)
{
    KernelBuilder kb("br");
    Label skip = kb.newLabel();
    kb.s2r(4, SpecialReg::TidX);
    kb.isetpi(0, CmpOp::LT, 4, 20);
    kb.ssy(skip);
    kb.onP(0).bra(skip);
    kb.nop();
    kb.sync();
    kb.bind(skip);
    kb.exit();
    ir::Module mod;
    mod.kernels.push_back(kb.finish());

    Device dev;
    dev.loadModule(std::move(mod));
    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.beforeCondBranch = true;
    opts.branchInfo = true;
    rt.instrument(opts);

    int taken = 0, fell = 0;
    rt.setBeforeHandler([&](const core::HandlerEnv &env) {
        EXPECT_TRUE(env.bp.IsCondControlXfer());
        EXPECT_TRUE(env.brp.IsConditional());
        if (env.brp.GetDirection()) {
            ++taken;
            EXPECT_LT(env.lane, 20);
        } else {
            ++fell;
            EXPECT_GE(env.lane, 20);
        }
    });

    LaunchResult r = dev.launch("br", Dim3(1), Dim3(32), KernelArgs());
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(taken, 20);
    EXPECT_EQ(fell, 12);
}

TEST(Instrument, AfterRegWritesSeesValuesAndCanCorruptThem)
{
    // Kernel: R4 = tid; R5 = R4 + 100; store R5.
    // The after-handler flips bit 3 of every value written to R5 at
    // the IADD site, emulating the paper's error injector; the store
    // must then write the corrupted value.
    KernelBuilder kb("inject");
    kb.ldc(8, 0, 8);
    kb.s2r(4, SpecialReg::TidX);
    kb.iaddi(5, 4, 100);
    kb.shl(6, 4, 2);
    kb.iaddcc(8, 8, 6);
    kb.iaddx(9, 9, RZ);
    kb.stg(8, 0, 5);
    kb.exit();
    ir::Module mod;
    mod.kernels.push_back(kb.finish());

    Device dev;
    dev.loadModule(std::move(mod));
    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.afterRegWrites = true;
    opts.registerInfo = true;
    rt.instrument(opts);

    rt.setAfterHandler([&](const core::HandlerEnv &env) {
        if (!env.bp.GetInstrWillExecute())
            return;
        for (int d = 0; d < env.rp.GetNumGPRDsts(); ++d) {
            auto info = env.rp.GetGPRDst(d);
            if (env.rp.GetRegNum(info) != 5)
                continue;
            uint32_t v = env.rp.GetRegValue(info);
            EXPECT_EQ(v, static_cast<uint32_t>(env.lane) + 100);
            env.rp.SetRegValue(info, v ^ 8u);
        }
    });

    uint64_t dout = dev.malloc(32 * 4);
    KernelArgs args;
    args.addU64(dout);
    LaunchResult r = dev.launch("inject", Dim3(1), Dim3(32), args);
    ASSERT_TRUE(r.ok()) << r.message;

    std::vector<uint32_t> out(32);
    dev.memcpyDtoH(out.data(), dout, 32 * 4);
    for (uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(out[i], (i + 100) ^ 8u) << i;
}

TEST(Instrument, BallotInsideHandlerSeesActiveLanes)
{
    // Diverged warp: only lanes 0..9 are active at the guarded
    // store's site... they branch away; lanes 10..31 reach the
    // store. The handler's ballot(1) must equal the active mask.
    KernelBuilder kb("divmask");
    Label skip = kb.newLabel();
    kb.ldc(8, 0, 8);
    kb.s2r(4, SpecialReg::TidX);
    kb.ssy(skip);
    kb.isetpi(0, CmpOp::LT, 4, 10);
    kb.onP(0).bra(skip);
    kb.stg(8, 0, 4);
    kb.sync();
    kb.bind(skip);
    kb.exit();
    ir::Module mod;
    mod.kernels.push_back(kb.finish());

    Device dev;
    dev.loadModule(std::move(mod));
    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.beforeMem = true;
    rt.instrument(opts);

    std::vector<uint32_t> ballots;
    rt.setBeforeHandler([&](const core::HandlerEnv &env) {
        uint32_t active = cuda::ballot(1);
        if (!env.bp.IsMemWrite())
            return; // The LDC at kernel entry is also a memory op.
        int leader = cuda::ffs(active) - 1;
        if (env.lane == leader)
            ballots.push_back(active);
    });

    uint64_t dout = dev.malloc(4);
    KernelArgs args;
    args.addU64(dout);
    LaunchResult r =
        dev.launch("divmask", Dim3(1), Dim3(32), args);
    ASSERT_TRUE(r.ok()) << r.message;
    ASSERT_EQ(ballots.size(), 1u);
    EXPECT_EQ(ballots[0], 0xfffffc00u); // lanes 10..31
}

TEST(Instrument, SpillsRestoreLiveRegistersAroundClobberingHandler)
{
    // R2..R7 hold live values across an instrumented instruction;
    // the injected sequence itself uses those registers as scratch,
    // so correctness depends on the liveness-driven spills/fills.
    KernelBuilder kb("livespan");
    kb.ldc(8, 0, 8);
    kb.s2r(4, SpecialReg::TidX);
    kb.mov32i(2, 222);
    kb.mov32i(3, 333);
    kb.mov32i(5, 555);
    kb.mov32i(6, 666);
    kb.mov32i(7, 777);
    kb.shl(10, 4, 2);
    kb.iaddcc(8, 8, 10);
    kb.iaddx(9, 9, RZ);
    kb.stg(8, 0, 2); // instrumented site between defs and uses
    kb.iadd(2, 2, 3);
    kb.iadd(2, 2, 5);
    kb.iadd(2, 2, 6);
    kb.iadd(2, 2, 7);
    kb.stg(8, 0, 2);
    kb.exit();
    ir::Module mod;
    mod.kernels.push_back(kb.finish());

    Device dev;
    dev.loadModule(std::move(mod));
    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.beforeMem = true;
    opts.memoryInfo = true;
    rt.instrument(opts);
    rt.setBeforeHandler([](const core::HandlerEnv &) {});

    uint64_t dout = dev.malloc(32 * 4);
    KernelArgs args;
    args.addU64(dout);
    LaunchResult r = dev.launch("livespan", Dim3(1), Dim3(32), args);
    ASSERT_TRUE(r.ok()) << r.message;
    std::vector<uint32_t> out(32);
    dev.memcpyDtoH(out.data(), dout, 32 * 4);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(out[static_cast<size_t>(i)],
                  222u + 333u + 555u + 666u + 777u);
}

TEST(Instrument, KernelEntryAndExitSites)
{
    KernelBuilder kb("entry");
    kb.nop();
    kb.nop();
    kb.exit();
    ir::Module mod;
    mod.kernels.push_back(kb.finish());

    Device dev;
    dev.loadModule(std::move(mod));
    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.kernelEntry = true;
    opts.kernelExit = true;
    rt.instrument(opts);

    // Bumped from concurrent CTA workers.
    std::atomic<int> entries = 0, exits = 0;
    rt.setBeforeHandler([&](const core::HandlerEnv &env) {
        if (env.site->flavor == core::SiteFlavor::KernelEntry)
            ++entries;
        if (env.site->flavor == core::SiteFlavor::KernelExit)
            ++exits;
    });

    LaunchResult r =
        dev.launch("entry", Dim3(2), Dim3(64), KernelArgs());
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(entries.load(), 2 * 64);
    EXPECT_EQ(exits.load(), 2 * 64);
}

TEST(Instrument, BranchTargetsRemappedCorrectly)
{
    // Heavily instrumented loop still iterates the right number of
    // times (branch/SSY retargeting across splices).
    KernelBuilder kb("loopcount");
    kb.ldc(8, 0, 8);
    kb.mov32i(4, 0);
    kb.mov32i(5, 0);
    Label top = kb.newLabel();
    Label out_l = kb.newLabel();
    kb.ssy(out_l);
    kb.bind(top);
    kb.iaddi(5, 5, 3);
    kb.iaddi(4, 4, 1);
    kb.isetpi(0, CmpOp::LT, 4, 50);
    kb.onP(0).bra(top);
    kb.sync();
    kb.bind(out_l);
    kb.stg(8, 0, 5);
    kb.exit();
    ir::Module mod;
    mod.kernels.push_back(kb.finish());

    Device dev;
    dev.loadModule(std::move(mod));
    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.beforeAll = true;
    opts.afterRegWrites = true;
    opts.memoryInfo = true;
    opts.registerInfo = true;
    rt.instrument(opts);
    rt.setBeforeHandler([](const core::HandlerEnv &) {});
    rt.setAfterHandler([](const core::HandlerEnv &) {});

    uint64_t dout = dev.malloc(4);
    KernelArgs args;
    args.addU64(dout);
    LaunchResult r =
        dev.launch("loopcount", Dim3(1), Dim3(32), args);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(dev.read<uint32_t>(dout), 150u);
}

} // namespace

namespace {

TEST(Instrument, RegReadAndRegWriteSiteClasses)
{
    // before=reg-reads hits instructions with GPR sources;
    // before=reg-writes hits instructions with GPR destinations;
    // after=mem hits memory instructions post-execution.
    KernelBuilder kb("classes");
    kb.ldc(8, 0, 8);          // reg write (no GPR read: imm address)
    kb.s2r(4, SpecialReg::TidX); // reg write only
    kb.iadd(5, 4, 4);         // reg read + write
    kb.stg(8, 0, 5);          // reg read (mem)
    kb.exit();                // neither
    ir::Module mod;
    mod.kernels.push_back(kb.finish());

    // Count sites per class using three separate instrumentations.
    auto count_sites = [&](auto set_opts) {
        Device dev;
        ir::Module copy = mod;
        dev.loadModule(std::move(copy));
        core::SassiRuntime rt(dev);
        core::InstrumentOptions opts;
        set_opts(opts);
        rt.instrument(opts);
        return rt.numSites();
    };

    size_t reads = count_sites([](core::InstrumentOptions &o) {
        o.beforeRegReads = true;
    });
    size_t writes = count_sites([](core::InstrumentOptions &o) {
        o.beforeRegWrites = true;
    });
    size_t after_mem = count_sites([](core::InstrumentOptions &o) {
        o.afterMem = true;
        o.memoryInfo = true;
    });

    EXPECT_EQ(reads, 2u);     // IADD, STG
    EXPECT_EQ(writes, 3u);    // LDC, S2R, IADD
    EXPECT_EQ(after_mem, 2u); // LDC, STG (EXIT/branches excluded)
}

TEST(Instrument, AfterMemSeesPostExecutionState)
{
    // After a load completes, the destination register already
    // holds the loaded value.
    KernelBuilder kb("aftermem");
    kb.ldc(8, 0, 8);
    kb.ldg(4, 8);
    kb.exit();
    ir::Module mod;
    mod.kernels.push_back(kb.finish());

    Device dev;
    dev.loadModule(std::move(mod));
    uint64_t din = dev.malloc(4);
    dev.write<uint32_t>(din, 0xfeedface);

    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.afterMem = true;
    opts.registerInfo = true;
    rt.instrument(opts);
    std::vector<uint32_t> seen;
    rt.setAfterHandler([&](const core::HandlerEnv &env) {
        if (env.rp.GetNumGPRDsts() == 1 && env.lane == 0)
            seen.push_back(env.rp.GetRegValue(env.rp.GetGPRDst(0)));
    });
    KernelArgs args;
    args.addU64(din);
    ASSERT_TRUE(dev.launch("aftermem", Dim3(1), Dim3(32), args).ok());
    ASSERT_FALSE(seen.empty());
    EXPECT_EQ(seen.back(), 0xfeedfaceu);
}

} // namespace
