/**
 * @file
 * Tests for the §9.1 redundant-spill-elision optimization: it must
 * be transparent, produce strictly fewer spill instructions, keep
 * GetRegValue/SetRegValue working through the persistent slots, and
 * agree with the unoptimized pass on every profile it feeds.
 */

#include <gtest/gtest.h>

#include "core/sassi.h"
#include "sassir/builder.h"
#include "handlers/value_profiler.h"
#include "workloads/suite.h"

using namespace sassi;
using namespace sassi::simt;
using namespace sassi::handlers;

namespace {

/** Count SASSI spill/fill stores in a module. */
uint64_t
countSpillStores(const ir::Module &mod)
{
    uint64_t n = 0;
    for (const auto &k : mod.kernels) {
        for (const auto &ins : k.code) {
            if (ins.spillFill && ins.op == sass::Opcode::STL)
                ++n;
        }
    }
    return n;
}

TEST(SpillElision, TransparentAndStrictlyFewerSpills)
{
    uint64_t spills[2];
    uint64_t synthetic[2];
    for (int mode = 0; mode < 2; ++mode) {
        auto w = workloads::makeSgemm(16, "small");
        Device dev;
        w->setup(dev);
        core::SassiRuntime rt(dev);
        core::InstrumentOptions opts = ValueProfiler::options();
        opts.elideRedundantSpills = mode == 1;
        rt.instrument(opts);
        ValueProfiler profiler(dev, rt);
        ASSERT_TRUE(w->run(dev).ok());
        ASSERT_TRUE(w->verify(dev)) << "mode " << mode;
        spills[mode] = countSpillStores(dev.module());
        synthetic[mode] = dev.totalStats().syntheticWarpInstrs;
    }
    EXPECT_LT(spills[1], spills[0]);
    EXPECT_LT(synthetic[1], synthetic[0]);
}

TEST(SpillElision, ValueProfilesAgreeWithBaselinePass)
{
    ValueSummary summaries[2];
    for (int mode = 0; mode < 2; ++mode) {
        auto w = workloads::makeHeartwall(128, 16);
        Device dev;
        w->setup(dev);
        core::SassiRuntime rt(dev);
        core::InstrumentOptions opts = ValueProfiler::options();
        opts.elideRedundantSpills = mode == 1;
        rt.instrument(opts);
        ValueProfiler profiler(dev, rt);
        ASSERT_TRUE(w->run(dev).ok());
        ASSERT_TRUE(w->verify(dev));
        summaries[mode] = profiler.summarize();
    }
    // The profiler reads register values through the spill slots;
    // both spill layouts must observe identical values.
    EXPECT_DOUBLE_EQ(summaries[0].dynamicConstBitsPct,
                     summaries[1].dynamicConstBitsPct);
    EXPECT_DOUBLE_EQ(summaries[0].dynamicScalarPct,
                     summaries[1].dynamicScalarPct);
    EXPECT_DOUBLE_EQ(summaries[0].staticConstBitsPct,
                     summaries[1].staticConstBitsPct);
}

TEST(SpillElision, SetRegValueCorruptsThroughPersistentSlots)
{
    // Same scenario as the baseline SetRegValue test, but with the
    // optimization on: the fill must still load the modified value.
    using namespace sassi::sass;
    ir::KernelBuilder kb("inject");
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
    opts.elideRedundantSpills = true;
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
    for (uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(dev.read<uint32_t>(dout + 4 * i), (i + 100) ^ 8u);
}

TEST(SpillElision, TransparentAcrossTheWholeSuite)
{
    // Every workload must still verify with the optimization on and
    // the heaviest instrumentation applied.
    for (const auto &entry : workloads::fig10Suite()) {
        auto w = entry.make();
        Device dev;
        w->setup(dev);
        core::SassiRuntime rt(dev);
        core::InstrumentOptions opts;
        opts.afterRegWrites = true;
        opts.beforeMem = true;
        opts.memoryInfo = true;
        opts.registerInfo = true;
        opts.elideRedundantSpills = true;
        rt.instrument(opts);
        core::HandlerTraits traits;
        traits.warpSynchronous = false;
        rt.setBeforeHandler([](const core::HandlerEnv &) {}, traits);
        rt.setAfterHandler([](const core::HandlerEnv &) {}, traits);
        simt::LaunchResult r = w->run(dev);
        ASSERT_TRUE(r.ok()) << entry.name << ": " << r.message;
        EXPECT_TRUE(w->verify(dev)) << entry.name;
    }
}

} // namespace
