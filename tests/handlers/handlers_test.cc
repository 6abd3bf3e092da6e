/**
 * @file
 * Tests of the case-study instrumentation libraries against
 * kernels with known, analytically derivable profiles.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "core/sassi.h"
#include "handlers/bb_counter.h"
#include "handlers/branch_profiler.h"
#include "handlers/dev_hash.h"
#include "handlers/error_injector.h"
#include "handlers/injection_campaign.h"
#include "handlers/instr_counter.h"
#include "handlers/mem_tracer.h"
#include "handlers/memdiv_profiler.h"
#include "handlers/value_profiler.h"
#include "sassir/builder.h"
#include "workloads/suite.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using namespace sassi::handlers;
using sassi::ir::KernelBuilder;
using sassi::ir::Label;

namespace {

void
loadKernel(Device &dev, ir::Kernel k)
{
    ir::Module mod;
    mod.kernels.push_back(std::move(k));
    dev.loadModule(std::move(mod));
}

TEST(DevHash, InsertCollectRoundTrip)
{
    // findOrInsert is device-side code; drive it through a handler.
    KernelBuilder kb("touch");
    kb.s2r(4, SpecialReg::TidX);
    kb.exit();
    Device dev;
    loadKernel(dev, kb.finish());
    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.beforeAll = true;
    rt.instrument(opts);

    DevHashTable table(dev, 64, 2);
    rt.setBeforeHandler([&](const core::HandlerEnv &env) {
        // Key by lane (+1: zero keys are reserved).
        uint64_t payload = table.findOrInsert(env.lane + 1);
        cuda::atomicAdd64(payload, 1);
        cuda::atomicAdd64(payload + 8,
                          static_cast<uint64_t>(env.lane) * 10);
    });

    dev.launch("touch", Dim3(1), Dim3(32), KernelArgs());
    auto entries = table.collect();
    ASSERT_EQ(entries.size(), 32u);
    std::map<int32_t, std::vector<uint64_t>> by_key;
    for (auto &e : entries)
        by_key[e.key] = e.payload;
    // Two dynamic instructions per thread (S2R + EXIT).
    for (int lane = 0; lane < 32; ++lane) {
        auto it = by_key.find(lane + 1);
        ASSERT_NE(it, by_key.end());
        EXPECT_EQ(it->second[0], 2u);
        EXPECT_EQ(it->second[1],
                  2u * static_cast<uint64_t>(lane) * 10);
    }
}

TEST(DevHash, HandlesCollisionsViaProbing)
{
    KernelBuilder kb("touch");
    kb.exit();
    Device dev;
    loadKernel(dev, kb.finish());
    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.beforeAll = true;
    rt.instrument(opts);

    // Capacity 40 with 32 distinct keys: plenty of collisions.
    DevHashTable table(dev, 40, 1);
    rt.setBeforeHandler([&](const core::HandlerEnv &env) {
        uint64_t payload =
            table.findOrInsert((env.lane + 1) * 1000);
        cuda::atomicAdd64(payload, 1);
    });
    dev.launch("touch", Dim3(1), Dim3(32), KernelArgs());
    auto entries = table.collect();
    EXPECT_EQ(entries.size(), 32u);
    for (auto &e : entries)
        EXPECT_EQ(e.payload[0], 1u);
}

TEST(BranchProfiler, CountsDivergenceExactly)
{
    // One branch: lanes < 12 taken. Executed once per warp, 2 warps.
    KernelBuilder kb("br");
    Label skip = kb.newLabel();
    kb.s2r(4, SpecialReg::TidX);
    kb.lopi(LogicOp::And, 4, 4, 31);
    kb.isetpi(0, CmpOp::LT, 4, 12);
    kb.ssy(skip);
    kb.onP(0).bra(skip);
    kb.nop();
    kb.sync();
    kb.bind(skip);
    kb.exit();
    Device dev;
    loadKernel(dev, kb.finish());
    core::SassiRuntime rt(dev);
    rt.instrument(BranchProfiler::options());
    BranchProfiler profiler(dev, rt);

    dev.launch("br", Dim3(1), Dim3(64), KernelArgs());
    auto stats = profiler.results();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].totalBranches, 2u);
    EXPECT_EQ(stats[0].activeThreads, 64u);
    EXPECT_EQ(stats[0].takenThreads, 24u);
    EXPECT_EQ(stats[0].takenNotThreads, 40u);
    EXPECT_EQ(stats[0].divergentBranches, 2u);

    auto summary = profiler.summarize(
        countStaticCondBranches(dev.module()));
    EXPECT_EQ(summary.staticBranches, 1u);
    EXPECT_EQ(summary.staticDivergent, 1u);
    EXPECT_EQ(summary.dynamicBranches, 2u);
    EXPECT_EQ(summary.dynamicDivergent, 2u);
}

TEST(BranchProfiler, UniformBranchesAreNotDivergent)
{
    KernelBuilder kb("uni");
    Label skip = kb.newLabel();
    kb.s2r(4, SpecialReg::CtaIdX);
    kb.isetpi(0, CmpOp::EQ, 4, 0);
    kb.ssy(skip);
    kb.onP(0).bra(skip);
    kb.nop();
    kb.sync();
    kb.bind(skip);
    kb.exit();
    Device dev;
    loadKernel(dev, kb.finish());
    core::SassiRuntime rt(dev);
    rt.instrument(BranchProfiler::options());
    BranchProfiler profiler(dev, rt);
    dev.launch("uni", Dim3(4), Dim3(32), KernelArgs());
    auto summary = profiler.summarize(1);
    EXPECT_EQ(summary.dynamicBranches, 4u);
    EXPECT_EQ(summary.dynamicDivergent, 0u);
}

TEST(MemDivProfiler, FullyCoalescedVsFullyDiverged)
{
    // Kernel A: lane-indexed 4B loads -> 32 threads in 4 unique 32B
    // lines. Kernel B: 128B-strided loads -> 32 unique lines.
    // Params: base(0), shift(8).
    KernelBuilder kb("strided");
    kb.s2r(4, SpecialReg::LaneId);
    kb.ldc(5, 8);
    kb.shl(6, 4, 2);
    kb.imul(7, 4, 5); // lane * stride
    kb.ldc(8, 0, 8);
    kb.iaddcc(8, 8, 7);
    kb.iaddx(9, 9, RZ);
    kb.ldg(10, 8);
    kb.exit();
    Device dev;
    loadKernel(dev, kb.finish());
    uint64_t buf = dev.malloc(128 * 1024);

    core::SassiRuntime rt(dev);
    rt.instrument(MemDivProfiler::options());
    MemDivProfiler profiler(dev, rt);

    {
        KernelArgs args;
        args.addU64(buf);
        args.addU32(4); // stride 4B: fully coalesced
        dev.launch("strided", Dim3(1), Dim3(32), args);
        auto m = profiler.matrix();
        EXPECT_EQ(m[31][3], 1u); // 32 active, 4 unique lines
        profiler.reset();
    }
    {
        KernelArgs args;
        args.addU64(buf);
        args.addU32(128); // stride 128B: fully diverged
        dev.launch("strided", Dim3(1), Dim3(32), args);
        auto m = profiler.matrix();
        EXPECT_EQ(m[31][31], 1u); // 32 active, 32 unique lines
        auto pmf = profiler.pmf();
        EXPECT_DOUBLE_EQ(pmf.fullyDivergedShare, 1.0);
    }
}

TEST(ValueProfiler, DetectsScalarAndConstantBits)
{
    // R5 = 7 for every thread (scalar, constant); R6 = laneid
    // (non-scalar, low 5 bits vary).
    KernelBuilder kb("vals");
    kb.mov32i(5, 7);
    kb.s2r(6, SpecialReg::LaneId);
    kb.exit();
    Device dev;
    loadKernel(dev, kb.finish());
    core::SassiRuntime rt(dev);
    rt.instrument(ValueProfiler::options());
    ValueProfiler profiler(dev, rt);

    dev.launch("vals", Dim3(2), Dim3(32), KernelArgs());
    auto results = profiler.results();
    ASSERT_EQ(results.size(), 2u);
    for (const auto &v : results) {
        ASSERT_EQ(v.numDsts, 1);
        if (v.regNum[0] == 5) {
            EXPECT_TRUE(v.isScalar[0]);
            // 7 = 0b111: three constant ones, 29 constant zeros.
            EXPECT_EQ(v.constantOnes[0], 7u);
            EXPECT_EQ(v.constantZeros[0], ~7u);
        } else {
            ASSERT_EQ(v.regNum[0], 6);
            EXPECT_FALSE(v.isScalar[0]);
            // Lane ids 0..31: low five bits vary, rest always 0.
            EXPECT_EQ(v.constantOnes[0], 0u);
            EXPECT_EQ(v.constantZeros[0], ~31u);
        }
    }
    auto summary = profiler.summarize();
    EXPECT_GT(summary.dynamicConstBitsPct, 80.0);
    EXPECT_NEAR(summary.dynamicScalarPct, 50.0, 1.0);
}

TEST(ErrorInjector, ProfilesAndInjectsAtSelectedSite)
{
    // Use a deterministic workload; profile, select sites, and
    // check one injection actually flips observable output.
    Rng rng(42);
    const InjectionCampaignResult res = runInjectionCampaign(
        [] { return workloads::makeVecAdd(256); },
        InjectionMode::DestReg, 20, rng);
    const auto &profiles = res.census;
    ASSERT_EQ(profiles.size(), 1u);
    EXPECT_EQ(profiles[0].kernel, "vecadd");
    EXPECT_EQ(profiles[0].perThread.size(), 256u);
    // Every thread executes the same eligible instruction count.
    for (uint32_t c : profiles[0].perThread)
        EXPECT_EQ(c, profiles[0].perThread[0]);
    EXPECT_GT(profiles[0].total, 0u);
    ASSERT_EQ(res.records.size(), 20u);

    // The corrupted run may legitimately fault afterwards; the flip
    // itself must still have happened: every selected site is
    // reached (same deterministic run).
    for (const InjectionRecord &rec : res.records) {
        EXPECT_TRUE(rec.injected);
        EXPECT_FALSE(rec.description.empty());
    }
}

/** Live fused visits (a handler body ran) of one launch. */
uint64_t
liveVisits(const LaunchResult &r)
{
    return r.dispatch.inlineHandlerCalls - r.dispatch.idleHandlerCalls;
}

TEST(ErrorInjector, CensusAndInjectionDispatchInline)
{
    // Both error tools are reentrant-safe lane loops: with the fast
    // path on, every site they instrument runs fused, none falls back
    // to the generic JCAL, and no dispatch needs a fiber.
    auto fastPath = [](workloads::Workload &w) {
        w.launchOptions.superblocks = 1;
        w.launchOptions.handlerFastpath = 1;
    };
    auto expectInline = [](const LaunchResult &r) {
        EXPECT_EQ(r.dispatch.inlineFallbacks, 0u);
        EXPECT_GT(r.dispatch.inlineHandlerCalls, 0u);
        EXPECT_EQ(r.dispatch.fiberHandlerCalls, 0u);
    };
    // An injection's sites, each served by a no-op handler in the
    // injector's slot that accepts only the warp holding the target
    // thread: @return that warp's visits to them.
    auto targetWarpVisits = [&fastPath](const InjectionSite &site,
                                        bool stores) {
        auto w = workloads::makeVecAdd(256);
        fastPath(*w);
        Device dev;
        w->setup(dev);
        core::SassiRuntime rt(dev);
        rt.instrument(ErrorInjector::options(stores));
        core::HandlerTraits traits;
        traits.warpSynchronous = false;
        traits.reentrantSafe = true;
        traits.warpFilter = [thread = site.thread](
                                Executor &exec, Warp &warp,
                                const core::SiteInfo &) {
            const uint64_t first = exec.globalThreadLinear(warp, 0);
            return thread >= first && thread < first + 32;
        };
        const auto noop = [](const core::HandlerEnv &) {};
        if (stores)
            rt.setBeforeHandler(noop, traits);
        else
            rt.setAfterHandler(noop, traits);
        const LaunchResult r = w->run(dev);
        EXPECT_TRUE(r.ok()) << r.message;
        return liveVisits(r);
    };
    std::vector<ErrorInjectionProfiler::LaunchProfile> profiles[2];
    for (bool stores : {false, true}) {
        SCOPED_TRACE(stores ? "census with stores" : "census");
        auto w = workloads::makeVecAdd(256);
        fastPath(*w);
        Device dev;
        w->setup(dev);
        core::SassiRuntime rt(dev);
        rt.instrument(ErrorInjectionProfiler::options(stores));
        ErrorInjectionProfiler profiler(dev, rt, 1 << 16, stores);
        const LaunchResult r = w->run(dev);
        ASSERT_TRUE(r.ok()) << r.message;
        expectInline(r);
        // Every site has a handler and no warp filter: none idles.
        EXPECT_EQ(r.dispatch.idleHandlerCalls, 0u);
        profiles[stores] =
            stores ? profiler.storeProfiles() : profiler.profiles();
    }

    for (InjectionMode mode :
         {InjectionMode::DestReg, InjectionMode::StoreValue,
          InjectionMode::StoreAddress}) {
        SCOPED_TRACE(injectionModeName(mode));
        const bool stores = mode != InjectionMode::DestReg;
        Rng rng(5);
        auto sites = selectInjectionSites(profiles[stores], 1, rng);
        ASSERT_EQ(sites.size(), 1u);
        sites[0].mode = mode;
        auto w = workloads::makeVecAdd(256);
        fastPath(*w);
        Device dev;
        w->setup(dev);
        core::SassiRuntime rt(dev);
        rt.instrument(ErrorInjector::options(stores));
        ErrorInjector injector(dev, rt, sites[0]);
        const LaunchResult r = w->run(dev);
        expectInline(r);
        EXPECT_TRUE(injector.injected());
        // Armed, the injector's warp filter passes only the target
        // warp, and only until the flip disarms it; a store mode's
        // after sites have no handler at all. So every other visit
        // idles, and the target warp's live visits number at least
        // one (the flip) and at most all of them.
        EXPECT_GT(liveVisits(r), 0u);
        EXPECT_LE(liveVisits(r), targetWarpVisits(sites[0], stores));
    }
}

TEST(ErrorInjectionProfiler, LaunchBeyondThreadBoundIsFatal)
{
    // Dropping the threads past the bound would bias site selection.
    auto w = workloads::makeVecAdd(256);
    Device dev;
    w->setup(dev);
    core::SassiRuntime rt(dev);
    rt.instrument(ErrorInjectionProfiler::options());
    ErrorInjectionProfiler profiler(dev, rt, 255);
    EXPECT_DEATH((void)w->run(dev), "more than its bound of 255");
}

TEST(InstrCounter, MatchesExecutorStatistics)
{
    auto w = workloads::makeVecAdd(512);
    Device dev;
    w->setup(dev);
    core::SassiRuntime rt(dev);
    rt.instrument(InstrCounter::options());
    InstrCounter counter(dev, rt);
    ASSERT_TRUE(w->run(dev).ok());
    auto counts = counter.counts();
    // The handler's "total executed" equals the executor's
    // thread-level count of non-synthetic instructions.
    uint64_t synthetic_threads = 0;
    (void)synthetic_threads;
    EXPECT_GT(counts[InstrCounter::TotalExecuted], 0u);
    EXPECT_GT(counts[InstrCounter::Memory], 0u);
    EXPECT_EQ(counts[InstrCounter::Texture], 0u);
    EXPECT_GE(counts[InstrCounter::TotalExecuted],
              counts[InstrCounter::Memory]);
}

TEST(MemTracer, CapturesGlobalAccesses)
{
    auto w = workloads::makeVecAdd(128);
    Device dev;
    w->setup(dev);
    core::SassiRuntime rt(dev);
    rt.instrument(MemTracer::options());
    MemTracer tracer(dev, rt);
    ASSERT_TRUE(w->run(dev).ok());
    // vecadd: 2 loads + 1 store per thread (LDCs are not global).
    uint64_t loads = 0, stores = 0;
    for (const auto &rec : tracer.trace()) {
        EXPECT_EQ(rec.width, 4);
        if (rec.isStore)
            ++stores;
        else
            ++loads;
    }
    EXPECT_EQ(loads, 2u * 128u);
    EXPECT_EQ(stores, 128u);
}

} // namespace

namespace {

TEST(BlockCounter, CountsHeaderEntriesPerWarpAndThread)
{
    // Kernel with a loop: the loop-body block is entered 10x per
    // warp; entry/exit blocks once.
    using sassi::ir::KernelBuilder;
    using sassi::ir::Label;
    KernelBuilder kb("blocks");
    Label top = kb.newLabel();
    Label out_l = kb.newLabel();
    kb.mov32i(4, 0);
    kb.ssy(out_l);
    kb.bind(top);
    kb.iaddi(4, 4, 1);
    kb.isetpi(0, CmpOp::LT, 4, 10);
    kb.onP(0).bra(top);
    kb.sync();
    kb.bind(out_l);
    kb.exit();
    Device dev;
    loadKernel(dev, kb.finish());
    core::SassiRuntime rt(dev);
    rt.instrument(BlockCounter::options());
    BlockCounter counter(dev, rt);
    ASSERT_TRUE(dev.launch("blocks", Dim3(1), Dim3(64),
                           KernelArgs()).ok());
    auto blocks = counter.results();
    ASSERT_FALSE(blocks.empty());
    // Hottest block: the loop body, 10 iterations x 2 warps.
    EXPECT_EQ(blocks[0].warpEntries, 20u);
    EXPECT_EQ(blocks[0].threadEntries, 640u);
}

TEST(OpcodeHistogram, AgreesWithExecutorOpcodeCounts)
{
    auto w = workloads::makeVecAdd(256);
    Device dev;
    w->setup(dev);
    core::SassiRuntime rt(dev);
    rt.instrument(OpcodeHistogram::options());
    OpcodeHistogram histo(dev, rt);
    ASSERT_TRUE(w->run(dev).ok());
    auto counts = histo.counts();
    // Spot checks against what vecadd executes per thread.
    EXPECT_EQ(counts[static_cast<size_t>(sass::Opcode::STG)], 256u);
    EXPECT_EQ(counts[static_cast<size_t>(sass::Opcode::LDG)],
              2u * 256u);
    EXPECT_EQ(counts[static_cast<size_t>(sass::Opcode::EXIT)], 256u);
    EXPECT_EQ(counts[static_cast<size_t>(sass::Opcode::TLD)], 0u);
}

TEST(Cupti, UnsubscribeStopsDelivery)
{
    KernelBuilder kb("noop");
    kb.exit();
    Device dev;
    loadKernel(dev, kb.finish());
    int fired = 0;
    int handle = dev.callbacks().subscribe(
        [&](cupti::CallbackSite, const cupti::CallbackData &) {
            ++fired;
        });
    dev.launch("noop", Dim3(1), Dim3(32), KernelArgs());
    EXPECT_EQ(fired, 2);
    dev.callbacks().unsubscribe(handle);
    dev.launch("noop", Dim3(1), Dim3(32), KernelArgs());
    EXPECT_EQ(fired, 2);
}

} // namespace

namespace {

TEST(ValueProfiler, WideLoadsProfileEveryDestination)
{
    // A 64-bit load writes two registers; the profile must carry
    // both destinations (the paper's §7.2 TLD example).
    KernelBuilder kb("wide");
    kb.ldc(8, 0, 8);
    kb.ldg(12, 8, 0, 8); // R12, R13
    kb.exit();
    Device dev;
    loadKernel(dev, kb.finish());
    uint64_t din = dev.malloc(8);
    dev.write<uint32_t>(din, 0x0003ffff); // low 18 bits set
    dev.write<uint32_t>(din + 4, 1);      // the paper's "always 1"
    core::SassiRuntime rt(dev);
    rt.instrument(ValueProfiler::options());
    ValueProfiler profiler(dev, rt);
    KernelArgs args;
    args.addU64(din);
    ASSERT_TRUE(dev.launch("wide", Dim3(1), Dim3(32), args).ok());

    bool found = false;
    for (const auto &v : profiler.results()) {
        // The LDC.64 pointer load also has two destinations; select
        // the LDG by its destination pair.
        if (v.numDsts != 2 || v.regNum[0] != 12)
            continue;
        found = true;
        EXPECT_EQ(v.regNum[1], 13);
        // R12: low 18 bits vary... here constant 0x3ffff; R13 == 1.
        EXPECT_TRUE(v.isScalar[0]);
        EXPECT_TRUE(v.isScalar[1]);
        EXPECT_EQ(v.constantOnes[1], 1u);
        EXPECT_EQ(v.constantZeros[1], ~1u);
    }
    EXPECT_TRUE(found);
}

TEST(Intrinsics, WarpOpInFastPathHandlerDies)
{
    KernelBuilder kb("fastpath");
    kb.exit();
    Device dev;
    loadKernel(dev, kb.finish());
    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.beforeAll = true;
    rt.instrument(opts);
    core::HandlerTraits traits;
    traits.warpSynchronous = false;
    rt.setBeforeHandler(
        [](const core::HandlerEnv &) { (void)cuda::ballot(1); },
        traits);
    EXPECT_DEATH(dev.launch("fastpath", Dim3(1), Dim3(32),
                            KernelArgs()),
                 "intrinsic");
}

TEST(Intrinsics, AtomicsLoadsAndVotesMatchHost)
{
    // The documented intrinsics no bundled tool calls, each checked
    // against a host-computed value on one 24-lane partial warp:
    // atomics and devLoad64 from a lane-loop handler, then any and
    // shflF from a warp-synchronous handler on fibers.
    constexpr int kLanes = 24;
    constexpr uint32_t kLaneBits = (1u << kLanes) - 1;
    constexpr uint64_t kLoaded = 0x0123456789abcdefull;
    constexpr uint32_t kExchInit = 7;
    KernelBuilder kb("intrinsics");
    kb.exit(); // One site per thread.
    Device dev;
    loadKernel(dev, kb.finish());
    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.beforeAll = true;
    rt.instrument(opts);

    // Words: and32, or32, max32, exch32, then 64-bit and64, load64,
    // loadSum, exchOldSum, then kLanes shuffled floats.
    const uint64_t w32 = dev.malloc(16 + 32 + kLanes * 4);
    const uint64_t w64 = w32 + 16;
    const uint64_t shuffled = w64 + 32;
    const uint32_t init32[4] = {~0u, 0, 0, kExchInit};
    const uint64_t init64[4] = {~0ull, kLoaded, 0, 0};
    dev.memcpyHtoD(w32, init32, sizeof(init32));
    dev.memcpyHtoD(w64, init64, sizeof(init64));

    core::HandlerTraits laneLoop;
    laneLoop.warpSynchronous = false;
    rt.setBeforeHandler([&](const core::HandlerEnv &env) {
        const uint32_t lane = env.lane;
        cuda::atomicAnd32(w32, ~(1u << lane));
        cuda::atomicOr32(w32 + 4, 1u << lane);
        cuda::atomicMax32(w32 + 8, lane * 7 + 3);
        const uint32_t old = cuda::atomicExch32(w32 + 12, 0x100 + lane);
        cuda::atomicAnd64(w64, ~(1ull << (lane + 32)));
        cuda::atomicAdd64(w64 + 16, cuda::devLoad64(w64 + 8) + lane);
        cuda::atomicAdd64(w64 + 24, old);
    }, laneLoop);
    ASSERT_TRUE(dev.launch("intrinsics", Dim3(1), Dim3(kLanes),
                           KernelArgs()).ok());

    rt.setBeforeHandler([&](const core::HandlerEnv &env) {
        const int lane = env.lane;
        const int votes =
            cuda::any(lane == 17) + 2 * cuda::any(lane >= kLanes);
        const float got =
            cuda::shflF(1.5f * float(lane), (lane + 1) % kLanes);
        uint32_t bits;
        std::memcpy(&bits, &got, 4);
        cuda::devStore32(shuffled + 4 * lane, bits + votes);
    });
    ASSERT_TRUE(dev.launch("intrinsics", Dim3(1), Dim3(kLanes),
                           KernelArgs()).ok());

    uint32_t got32[4];
    uint64_t got64[4];
    std::vector<uint32_t> got(kLanes);
    dev.memcpyDtoH(got32, w32, sizeof(got32));
    dev.memcpyDtoH(got64, w64, sizeof(got64));
    dev.memcpyDtoH(got.data(), shuffled, kLanes * 4);

    uint64_t laneSum = 0, exchSum = kExchInit;
    for (uint32_t lane = 0; lane < kLanes; ++lane) {
        laneSum += lane;
        exchSum += 0x100 + lane;
    }
    EXPECT_EQ(got32[0], ~kLaneBits);
    EXPECT_EQ(got32[1], kLaneBits);
    EXPECT_EQ(got32[2], uint32_t(kLanes - 1) * 7 + 3);
    // The exchanges chain: the final word plus every returned old
    // value is the initial word plus every value exchanged in.
    EXPECT_GE(got32[3], 0x100u);
    EXPECT_LT(got32[3], 0x100u + kLanes);
    EXPECT_EQ(got32[3] + got64[3], exchSum);
    EXPECT_EQ(got64[0], ~(uint64_t(kLaneBits) << 32));
    EXPECT_EQ(got64[1], kLoaded);
    EXPECT_EQ(got64[2], kLanes * kLoaded + laneSum);
    for (int lane = 0; lane < kLanes; ++lane) {
        const float want = 1.5f * float((lane + 1) % kLanes);
        uint32_t bits;
        std::memcpy(&bits, &want, 4);
        EXPECT_EQ(got[lane], bits + 1) << "lane " << lane;
    }
}

} // namespace
