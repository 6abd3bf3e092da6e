/**
 * @file
 * Tests of the SASSIFI-style store-corruption extension: store
 * census, store-value flips observable in the output, and
 * store-address flips redirecting the write.
 */

#include <gtest/gtest.h>

#include "core/sassi.h"
#include "handlers/error_injector.h"
#include "handlers/injection_campaign.h"
#include "sassir/builder.h"
#include "workloads/suite.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using namespace sassi::handlers;
using sassi::ir::KernelBuilder;

namespace {

/** out[tid] = tid + 1000: one store per thread, known layout. */
ir::Module
storeModule()
{
    KernelBuilder kb("plain");
    kb.ldc(8, 0, 8);
    kb.s2r(4, SpecialReg::TidX);
    kb.shl(6, 4, 2);
    kb.iaddcc(8, 8, 6);
    kb.iaddx(9, 9, RZ);
    kb.iaddi(5, 4, 1000);
    kb.stg(8, 0, 5);
    kb.exit();
    ir::Module mod;
    mod.kernels.push_back(kb.finish());
    return mod;
}

TEST(Sassifi, StoreCensusCountsExactly)
{
    Device dev;
    dev.loadModule(storeModule());
    core::SassiRuntime rt(dev);
    rt.instrument(ErrorInjectionProfiler::options(true));
    ErrorInjectionProfiler profiler(dev, rt, 1 << 16, true);

    uint64_t dout = dev.malloc(64 * 4);
    KernelArgs args;
    args.addU64(dout);
    ASSERT_TRUE(dev.launch("plain", Dim3(1), Dim3(64), args).ok());

    ASSERT_EQ(profiler.storeProfiles().size(), 1u);
    const auto &sp = profiler.storeProfiles()[0];
    EXPECT_EQ(sp.total, 64u); // One STG per thread.
    for (uint32_t c : sp.perThread)
        EXPECT_EQ(c, 1u);
    // The register-write census is separate and larger.
    EXPECT_GT(profiler.profiles()[0].total, sp.total);
}

TEST(Sassifi, StoreValueFlipCorruptsExactlyOneElement)
{
    Device dev;
    dev.loadModule(storeModule());
    core::SassiRuntime rt(dev);
    rt.instrument(ErrorInjector::options(true));

    InjectionSite site;
    site.kernelName = "plain";
    site.invocation = 1;
    site.thread = 17;
    site.instrIndex = 0;
    site.dstSeed = 0;
    site.bitSeed = 3; // flip bit 3
    site.mode = InjectionMode::StoreValue;
    ErrorInjector injector(dev, rt, site);

    uint64_t dout = dev.malloc(64 * 4);
    KernelArgs args;
    args.addU64(dout);
    ASSERT_TRUE(dev.launch("plain", Dim3(1), Dim3(64), args).ok());
    EXPECT_TRUE(injector.injected());

    for (uint32_t i = 0; i < 64; ++i) {
        uint32_t expect = i + 1000;
        if (i == 17)
            expect ^= 8u;
        EXPECT_EQ(dev.read<uint32_t>(dout + 4 * i), expect) << i;
    }
}

TEST(Sassifi, StoreAddressFlipRedirectsTheWrite)
{
    Device dev;
    dev.loadModule(storeModule());
    core::SassiRuntime rt(dev);
    rt.instrument(ErrorInjector::options(true));

    InjectionSite site;
    site.kernelName = "plain";
    site.invocation = 1;
    site.thread = 5;
    site.instrIndex = 0;
    site.dstSeed = 0; // low address word
    site.bitSeed = 4; // +- 16 bytes: stays in the buffer
    site.mode = InjectionMode::StoreAddress;
    ErrorInjector injector(dev, rt, site);

    uint64_t dout = dev.malloc(64 * 4);
    dev.memset(dout, 0, 64 * 4);
    KernelArgs args;
    args.addU64(dout);
    ASSERT_TRUE(dev.launch("plain", Dim3(1), Dim3(64), args).ok());
    EXPECT_TRUE(injector.injected());

    // Thread 5's store went to element 5 ^ 4 = 1 (bit 4 of the byte
    // address is bit 2 of the element index): element 5 keeps its
    // default and element 1 was overwritten last by thread 5.
    EXPECT_EQ(dev.read<uint32_t>(dout + 4 * 5), 0u);
    EXPECT_EQ(dev.read<uint32_t>(dout + 4 * 1), 1005u);
}

TEST(Sassifi, CampaignOverStoreModesProducesOutcomes)
{
    // End-to-end mini campaign with both store modes on a real
    // workload; outcomes must be deterministic and non-empty.
    for (InjectionMode mode : {InjectionMode::StoreValue,
                               InjectionMode::StoreAddress}) {
        Rng rng(7 + static_cast<uint64_t>(mode));
        const InjectionCampaignResult res = runInjectionCampaign(
            [] { return workloads::makePathfinder(256, 16); }, mode, 6,
            rng);
        ASSERT_FALSE(res.records.empty());
        for (const InjectionRecord &rec : res.records) {
            EXPECT_EQ(rec.site.mode, mode);
            EXPECT_TRUE(rec.injected) << injectionModeName(mode);
        }
    }
}

} // namespace
