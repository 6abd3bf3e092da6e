/**
 * @file
 * A device's compiled micro-programs follow its code. Instrumenting a
 * module that has already run, or loading new code under an old
 * kernel name, must run the new code at the next launch, never a
 * program compiled from the old one.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "core/sassi.h"
#include "handlers/instr_counter.h"
#include "sassir/builder.h"
#include "simt/device.h"
#include "workloads/suite.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using sassi::ir::KernelBuilder;

namespace {

/** What one instrumented vecadd run leaves behind. */
struct Observed
{
    LaunchStats stats;
    std::string metrics;
    uint64_t output = 0;
    std::array<uint64_t, handlers::InstrCounter::NumCategories> counts{};
};

/** Run vecadd under InstrCounter, optionally after a bare run on the
 *  same device (whose statistics are then reset). */
Observed
runInstrumented(const LaunchOptions &opts, bool bare_first)
{
    auto w = workloads::makeVecAdd();
    w->launchOptions = opts;
    Device dev;
    w->setup(dev);
    if (bare_first) {
        EXPECT_TRUE(w->run(dev).ok());
        EXPECT_EQ(dev.totalStats().handlerCalls, 0u);
        dev.resetStats();
    }
    core::SassiRuntime rt(dev);
    rt.instrument(handlers::InstrCounter::options());
    handlers::InstrCounter counter(dev, rt);
    const LaunchResult r = w->run(dev);
    EXPECT_TRUE(r.ok()) << r.message;
    EXPECT_TRUE(w->verify(dev));

    Observed obs;
    obs.stats = dev.totalStats();
    obs.metrics = dev.metrics().serialize();
    obs.output = w->outputHash(dev);
    obs.counts = counter.counts();
    return obs;
}

void
expectSame(const Observed &a, const Observed &b)
{
    EXPECT_EQ(a.stats.warpInstrs, b.stats.warpInstrs);
    EXPECT_EQ(a.stats.threadInstrs, b.stats.threadInstrs);
    EXPECT_EQ(a.stats.syntheticWarpInstrs, b.stats.syntheticWarpInstrs);
    EXPECT_EQ(a.stats.handlerCalls, b.stats.handlerCalls);
    EXPECT_EQ(a.stats.handlerCostInstrs, b.stats.handlerCostInstrs);
    EXPECT_EQ(a.stats.memWarpInstrs, b.stats.memWarpInstrs);
    EXPECT_EQ(a.stats.ctas, b.stats.ctas);
    EXPECT_EQ(a.stats.opcodeCounts, b.stats.opcodeCounts);
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.counts, b.counts);
}

TEST(DeviceReload, InstrumentingAfterALaunchRunsTheInstrumentedCode)
{
    LaunchOptions generic;
    generic.handlerFastpath = 0;
    for (const LaunchOptions &opts : {LaunchOptions{}, generic}) {
        SCOPED_TRACE(opts.handlerFastpath ? "fused sites"
                                          : "generic dispatch");
        const Observed late = runInstrumented(opts, true);
        const Observed early = runInstrumented(opts, false);
        EXPECT_GT(late.stats.handlerCalls, 0u);
        EXPECT_GT(late.counts[handlers::InstrCounter::TotalExecuted],
                  0u);
        expectSame(late, early);
    }
}

/** Kernel "k" stores 3 to param 0, doubled first when asked: the
 *  two codes differ in shape, not just in an immediate. */
ir::Module
storeModule(bool doubled)
{
    KernelBuilder kb("k");
    kb.ldc(8, 0, 8);
    kb.mov32i(4, 3);
    if (doubled)
        kb.iadd(4, 4, 4);
    kb.stg(8, 0, 4);
    kb.exit();
    ir::Module mod;
    mod.kernels.push_back(kb.finish());
    return mod;
}

TEST(DeviceReload, SameNameKernelWithNewCodeRuns)
{
    Device dev;
    const uint64_t out = dev.malloc(4);
    KernelArgs args;
    args.addU64(out);

    dev.loadModule(storeModule(false));
    ASSERT_TRUE(dev.launch("k", Dim3(1), Dim3(1), args).ok());
    EXPECT_EQ(dev.read<uint32_t>(out), 3u);

    dev.loadModule(storeModule(true));
    const LaunchResult r = dev.launch("k", Dim3(1), Dim3(1), args);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(dev.read<uint32_t>(out), 6u);
}

} // namespace
