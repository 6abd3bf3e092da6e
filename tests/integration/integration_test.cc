/**
 * @file
 * Cross-stack integration tests: assembly-text kernels through the
 * full instrumentation pipeline, determinism of instrumented runs,
 * cross-validation of the Figure 6 handler against the coalescer
 * oracle, and pinned "shape" facts from the paper's evaluation.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/sassi.h"
#include "handlers/branch_profiler.h"
#include "handlers/injection_campaign.h"
#include "handlers/mem_tracer.h"
#include "handlers/memdiv_profiler.h"
#include "mem/coalescer.h"
#include "sassir/parser.h"
#include "workloads/suite.h"

using namespace sassi;
using namespace sassi::simt;
using namespace sassi::handlers;

namespace {

TEST(Integration, AssemblyTextThroughFullPipeline)
{
    // Kernel written as text, instrumented, profiled, verified.
    const char *src = R"(
.kernel squares
    S2R R4, SR_TID.X
    LDC.64 R8, c[0x0][0x0]
    SHL R6, R4, 0x2
    IADD.CC R8, R8, R6
    IADD.X R9, R9, RZ
    IMUL R5, R4, R4
    STG [R8], R5
    EXIT
.endkernel
)";
    Device dev;
    dev.loadModule(ir::parseAssembly(src));
    core::SassiRuntime rt(dev);
    rt.instrument(MemDivProfiler::options());
    MemDivProfiler profiler(dev, rt);

    uint64_t dout = dev.malloc(64 * 4);
    KernelArgs args;
    args.addU64(dout);
    LaunchResult r = dev.launch("squares", Dim3(1), Dim3(64), args);
    ASSERT_TRUE(r.ok()) << r.message;
    for (uint32_t i = 0; i < 64; ++i)
        EXPECT_EQ(dev.read<uint32_t>(dout + 4 * i), i * i);
    // Consecutive 4B stores from full warps: 4 unique 32B lines.
    auto m = profiler.matrix();
    EXPECT_EQ(m[31][3], 2u);
}

TEST(Integration, InstrumentedRunsAreDeterministic)
{
    auto run_once = [](uint64_t *hash, LaunchStats *stats) {
        auto w = workloads::makeBfsParboil(workloads::GraphKind::RoadUT);
        Device dev;
        w->setup(dev);
        core::SassiRuntime rt(dev);
        rt.instrument(BranchProfiler::options());
        BranchProfiler profiler(dev, rt);
        ASSERT_TRUE(w->run(dev).ok());
        *hash = w->outputHash(dev);
        *stats = dev.totalStats();
    };
    uint64_t h1 = 0, h2 = 0;
    LaunchStats s1, s2;
    run_once(&h1, &s1);
    run_once(&h2, &s2);
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(s1.warpInstrs, s2.warpInstrs);
    EXPECT_EQ(s1.handlerCalls, s2.handlerCalls);
}

TEST(Integration, MemDivHandlerMatchesCoalescerOracle)
{
    // The Figure 6 handler's leader-election loop must count the
    // same unique-line totals as the host-side coalescer applied to
    // a SASSI-collected trace of the same (deterministic) run.
    auto w1 = workloads::makeSpmv(workloads::SpmvShape::Small);
    uint64_t handler_unique = 0, handler_events = 0;
    {
        Device dev;
        w1->setup(dev);
        core::SassiRuntime rt(dev);
        rt.instrument(MemDivProfiler::options());
        MemDivProfiler profiler(dev, rt);
        ASSERT_TRUE(w1->run(dev).ok());
        auto m = profiler.matrix();
        for (int a = 0; a < 32; ++a) {
            for (int u = 0; u < 32; ++u) {
                uint64_t c = m[static_cast<size_t>(a)]
                              [static_cast<size_t>(u)];
                handler_unique += c * static_cast<uint64_t>(u + 1);
                handler_events += c;
            }
        }
    }

    auto w2 = workloads::makeSpmv(workloads::SpmvShape::Small);
    uint64_t oracle_unique = 0, oracle_events = 0;
    {
        Device dev;
        w2->setup(dev);
        core::SassiRuntime rt(dev);
        rt.instrument(MemTracer::options());
        MemTracer tracer(dev, rt);
        ASSERT_TRUE(w2->run(dev).ok());
        std::map<uint32_t, std::vector<uint64_t>> events;
        for (const auto &rec : tracer.trace())
            events[rec.warpEvent].push_back(rec.address);
        for (const auto &[id, addrs] : events) {
            oracle_unique += static_cast<uint64_t>(
                mem::coalesce(addrs, 32).uniqueLines());
            ++oracle_events;
        }
    }
    EXPECT_EQ(handler_events, oracle_events);
    EXPECT_EQ(handler_unique, oracle_unique);
}

TEST(Integration, ErrorInjectionIsReproducible)
{
    // The same site tuple must produce the same outcome and the
    // same output hash on every run.
    auto campaign = [] {
        Rng rng(99);
        return runInjectionCampaign(
            [] { return workloads::makeHeartwall(256, 32); },
            InjectionMode::DestReg, 5, rng);
    };
    const InjectionCampaignResult a = campaign(), b = campaign();
    ASSERT_EQ(a.records.size(), 5u);
    for (const InjectionCampaignResult &run : {a, b})
        for (const InjectionRecord &rec : run.records)
            EXPECT_TRUE(rec.injected);
    // Outcomes and output hashes included.
    EXPECT_TRUE(a.records == b.records);
}

TEST(Integration, PaperShapeFactsPin)
{
    // sgemm never diverges (Table 1).
    {
        auto w = workloads::makeSgemm(16, "small");
        Device dev;
        w->setup(dev);
        core::SassiRuntime rt(dev);
        rt.instrument(BranchProfiler::options());
        BranchProfiler profiler(dev, rt);
        ASSERT_TRUE(w->run(dev).ok());
        EXPECT_EQ(profiler.summarize(1).dynamicDivergent, 0u);
    }
    // streamcluster never diverges (Table 1).
    {
        auto w = workloads::makeStreamcluster(512, 4);
        Device dev;
        w->setup(dev);
        core::SassiRuntime rt(dev);
        rt.instrument(BranchProfiler::options());
        BranchProfiler profiler(dev, rt);
        ASSERT_TRUE(w->run(dev).ok());
        EXPECT_EQ(profiler.summarize(1).dynamicDivergent, 0u);
    }
    // miniFE-CSR is far more address divergent than ELL (Figure 8).
    double mean_csr = 0, mean_ell = 0;
    for (bool ell : {false, true}) {
        auto w = workloads::makeMiniFE(ell);
        Device dev;
        w->setup(dev);
        core::SassiRuntime rt(dev);
        rt.instrument(MemDivProfiler::options());
        MemDivProfiler profiler(dev, rt);
        ASSERT_TRUE(w->run(dev).ok());
        (ell ? mean_ell : mean_csr) = profiler.pmf().meanUniqueLines;
    }
    EXPECT_GT(mean_csr, 2.5 * mean_ell);
}

TEST(Integration, HandlersComposeAcrossReinstrumentation)
{
    // A fresh runtime + module per tool, same device-building code:
    // the standard experiment loop used by every bench binary.
    for (int pass = 0; pass < 2; ++pass) {
        auto w = workloads::makeVecAdd(512);
        Device dev;
        w->setup(dev);
        core::SassiRuntime rt(dev);
        if (pass == 0) {
            rt.instrument(BranchProfiler::options());
            BranchProfiler profiler(dev, rt);
            ASSERT_TRUE(w->run(dev).ok());
            EXPECT_TRUE(w->verify(dev));
        } else {
            rt.instrument(MemDivProfiler::options());
            MemDivProfiler profiler(dev, rt);
            ASSERT_TRUE(w->run(dev).ok());
            EXPECT_TRUE(w->verify(dev));
        }
    }
}

} // namespace
