/**
 * @file
 * Compiled instrumentation sites: frame-template unit tests and the
 * fast-path differential matrix.
 *
 * The unit tests pin the template compiler to its contract: every
 * instrumented site's bundle is recognized, the template's GPR spill
 * set matches both the SASSI pass's recorded spillMask and an
 * independent liveness.cc computation at the site's original PC, and
 * the identity marking (fills that merely reload what the prologue
 * spilled) is exact. The differential matrix then runs every bundled
 * handler at 1/2/8 worker threads with the compiled-handler fast
 * path off vs on and demands bit-identical device memory, launch
 * stats, and the metrics registry — the observational-equivalence
 * contract that lets the fast path stay on by default.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/sassi.h"
#include "handlers/bb_counter.h"
#include "handlers/branch_profiler.h"
#include "handlers/error_injector.h"
#include "handlers/instr_counter.h"
#include "handlers/mem_tracer.h"
#include "handlers/memdiv_profiler.h"
#include "handlers/value_profiler.h"
#include "sassir/builder.h"
#include "sassir/cfg.h"
#include "sassir/liveness.h"
#include "simt/site_fuse.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using sassi::ir::KernelBuilder;
using sassi::ir::Label;

namespace {

constexpr int kCtas = 8;
constexpr int kBlock = 64;

/**
 * A kernel with varied live sets across its sites: a loop-carried
 * ALU chain, a divergent diamond (live predicates), a carry-chain
 * address computation (live CC at the dependent IADD.X), and global
 * memory traffic. Takes one u32[kCtas*kBlock] buffer argument.
 */
ir::Kernel
stressKernel()
{
    KernelBuilder kb("sfstress");
    kb.s2r(4, SpecialReg::TidX);
    kb.s2r(5, SpecialReg::CtaIdX);
    kb.s2r(6, SpecialReg::NTidX);
    kb.imad(7, 5, 6, 4); // gid

    kb.ldc(16, 0, 8);
    kb.shl(10, 7, 2);
    kb.iaddcc(16, 16, 10);
    kb.iaddx(17, 17, RZ);
    kb.ldg(12, 16);

    // Loop (tid & 3) + 1 times; 12..15 stay live across the body.
    kb.lopi(LogicOp::And, 8, 4, 3);
    kb.iaddi(8, 8, 1);
    kb.mov32i(9, 0);
    kb.mov32i(14, 0x5a5a);
    kb.mov32i(15, 7);
    Label top = kb.newLabel();
    Label done = kb.newLabel();
    Label out = kb.newLabel();
    kb.ssy(out);
    kb.bind(top);
    kb.isetp(0, CmpOp::GE, 9, 8);
    kb.onP(0).bra(done);
    kb.iadd(12, 12, 7);
    kb.shl(13, 12, 3);
    kb.lop(LogicOp::Xor, 12, 12, 13);
    kb.imad(14, 14, 15, 12);
    kb.iaddi(9, 9, 1);
    kb.bra(top);
    kb.bind(done);
    kb.sync();
    kb.bind(out);

    // Divergent diamond on tid parity.
    Label else_ = kb.newLabel();
    Label join = kb.newLabel();
    kb.lopi(LogicOp::And, 11, 4, 1);
    kb.isetpi(1, CmpOp::EQ, 11, 0);
    kb.ssy(join);
    kb.onP(1).bra(else_);
    kb.iadd(12, 12, 14);
    kb.sync();
    kb.bind(else_);
    kb.lopi(LogicOp::Xor, 12, 12, 0x33);
    kb.sync();
    kb.bind(join);

    kb.stg(16, 0, 12);
    kb.exit();
    return kb.finish();
}

/** The spilled-GPR mask a SiteRun's frame template materializes. */
uint32_t
templateSpillMask(const SiteRun &run)
{
    uint32_t mask = 0;
    for (const SiteStore &st : run.stores)
        if (st.kind == SiteStore::Kind::Reg && st.spill)
            mask |= 1u << st.reg;
    return mask;
}

/** Instrumented device + runtime over stressKernel, plus the
 *  original (pre-pass) kernel for independent liveness analysis. */
struct FusedEnv
{
    std::unique_ptr<Device> dev;
    std::unique_ptr<core::SassiRuntime> rt;
    ir::Kernel orig;
    std::vector<SiteRun> runs;
};

FusedEnv
makeFusedEnv(const core::InstrumentOptions &opts)
{
    FusedEnv env;
    env.orig = stressKernel();
    env.dev = std::make_unique<Device>();
    ir::Module mod;
    mod.kernels.push_back(env.orig);
    env.dev->loadModule(std::move(mod));
    env.rt = std::make_unique<core::SassiRuntime>(*env.dev);
    env.rt->instrument(opts);

    const ir::Kernel &k = env.dev->module().kernels.at(0);
    env.runs = compileSiteRuns(k, ir::blockLeaders(k));
    return env;
}

TEST(SiteFuseTemplate, EverySiteIsRecognized)
{
    FusedEnv env =
        makeFusedEnv(handlers::InstrCounter::options());
    // beforeAll instruments every original instruction, and every
    // bundle the pass emits must be recognized — an unrecognized
    // bundle silently falls back to the slow path, which this test
    // exists to catch.
    EXPECT_EQ(env.runs.size(), env.rt->numSites());
    for (const SiteRun &run : env.runs) {
        EXPECT_GE(run.siteKey, 0);
        EXPECT_LT(static_cast<size_t>(run.siteKey),
                  env.rt->numSites());
        EXPECT_GT(run.jcalIdx, 0u);
        EXPECT_GT(run.len, run.jcalIdx);
    }
}

TEST(SiteFuseTemplate, SpillSetMatchesPassAndLiveness)
{
    FusedEnv env =
        makeFusedEnv(handlers::InstrCounter::options());
    ASSERT_FALSE(env.runs.empty());

    // Independent recomputation of what the pass should have
    // spilled: the live caller-saved GPRs at each site's original
    // PC, capped at the handler register budget.
    ir::Cfg cfg = ir::buildCfg(env.orig);
    ir::Liveness live(env.orig, cfg);
    const int cap =
        std::min(env.rt->options().handlerRegCap,
                 std::min(env.orig.numRegs, 32));

    for (const SiteRun &run : env.runs) {
        const core::SiteInfo &site = env.rt->site(run.siteKey);
        ASSERT_FALSE(site.persistentSpills);
        SCOPED_TRACE(site.kernelName + "@" +
                     std::to_string(site.origPc));

        // Template vs the mask the pass recorded.
        EXPECT_EQ(templateSpillMask(run), site.spillMask);

        // Pass vs liveness.cc. InstrCounter carries no register
        // info, so no dead destination slots are added.
        const ir::LiveSet &in = live.liveIn(site.origPc);
        uint32_t expect = 0;
        for (int r = 0; r < cap; ++r) {
            if (r == sass::abi::StackPtr)
                continue;
            if (in.gpr.test(static_cast<size_t>(r)))
                expect |= 1u << r;
        }
        EXPECT_EQ(site.spillMask, expect);
    }
}

TEST(SiteFuseTemplate, IdentityMarkingIsExact)
{
    FusedEnv env =
        makeFusedEnv(handlers::InstrCounter::options());
    ASSERT_FALSE(env.runs.empty());

    for (const SiteRun &run : env.runs) {
        SCOPED_TRACE("site " + std::to_string(run.siteKey));
        uint32_t spilled = templateSpillMask(run);
        for (const SiteRegEffect &e : run.effects) {
            switch (e.kind) {
              case SiteRegEffect::Kind::Load:
                // A fill is an identity exactly when it reloads the
                // slot the prologue spilled that same register to.
                EXPECT_EQ(e.identity,
                          (spilled >> e.reg) & 1u &&
                              e.off == static_cast<uint32_t>(
                                           core::frame::gprSpillSlot(
                                               e.reg)))
                    << "reg " << int(e.reg) << " off " << e.off;
                break;
              case SiteRegEffect::Kind::FrameRel:
                // The epilogue's stack pop restores R1 exactly.
                EXPECT_EQ(e.identity,
                          e.reg == sass::abi::StackPtr && e.rel == 0);
                break;
              default:
                EXPECT_FALSE(e.identity);
                break;
            }
        }
        // The pred/CC restores reload full-file spills taken before
        // anything in the bundle could change them, so with a clean
        // frame both are no-ops.
        if (run.restorePred) {
            EXPECT_TRUE(run.restorePredIdentity);
        }
    }
}

/// @name Fast-path differential matrix
/// @{

constexpr int kThreadCounts[] = {1, 2, 8};

void
expectStatsEqual(const LaunchStats &a, const LaunchStats &b)
{
    EXPECT_EQ(a.warpInstrs, b.warpInstrs);
    EXPECT_EQ(a.threadInstrs, b.threadInstrs);
    EXPECT_EQ(a.syntheticWarpInstrs, b.syntheticWarpInstrs);
    EXPECT_EQ(a.handlerCalls, b.handlerCalls);
    EXPECT_EQ(a.handlerCostInstrs, b.handlerCostInstrs);
    EXPECT_EQ(a.memWarpInstrs, b.memWarpInstrs);
    EXPECT_EQ(a.ctas, b.ctas);
    for (size_t i = 0; i < a.opcodeCounts.size(); ++i)
        EXPECT_EQ(a.opcodeCounts[i], b.opcodeCounts[i])
            << "opcode index " << i;
}

struct ToolEnv
{
    std::unique_ptr<Device> dev;
    std::unique_ptr<core::SassiRuntime> rt;
    uint64_t buf = 0;
};

ToolEnv
makeToolEnv(const core::InstrumentOptions &opts)
{
    ToolEnv env;
    env.dev = std::make_unique<Device>();
    ir::Module mod;
    mod.kernels.push_back(stressKernel());
    env.dev->loadModule(std::move(mod));
    env.rt = std::make_unique<core::SassiRuntime>(*env.dev);
    env.rt->instrument(opts);

    const size_t n = kCtas * kBlock;
    env.buf = env.dev->malloc(n * 4);
    std::vector<uint32_t> init(n);
    for (size_t i = 0; i < n; ++i)
        init[i] = static_cast<uint32_t>(i * 2654435761u);
    env.dev->memcpyHtoD(env.buf, init.data(), n * 4);
    return env;
}

LaunchResult
launchTool(ToolEnv &env, int threads, int fastpath)
{
    KernelArgs args;
    args.addU64(env.buf);
    LaunchOptions opts;
    opts.numThreads = threads;
    opts.superblocks = 1;
    opts.handlerFastpath = fastpath;
    return env.dev->launch("sfstress", Dim3(kCtas), Dim3(kBlock),
                           args, opts);
}

/**
 * Run the stress kernel under a tool with the compiled-handler fast
 * path off vs on (superblocks on in both) at one thread count and
 * assert every observable matches bit for bit: launch stats, the
 * metrics registry, the tool's published aggregate, and device
 * memory.
 */
template <typename Tool>
void
expectFastpathInvariant(int threads)
{
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::string serialized[2];
    std::vector<uint32_t> out[2];
    LaunchResult results[2];
    for (int fp = 0; fp < 2; ++fp) {
        ToolEnv env = makeToolEnv(Tool::options());
        Tool tool(*env.dev, *env.rt);
        results[fp] = launchTool(env, threads, fp);
        ASSERT_TRUE(results[fp].ok()) << results[fp].message;
        Metrics m;
        tool.publish(m);
        serialized[fp] = m.serialize();
        out[fp].resize(kCtas * kBlock);
        env.dev->memcpyDtoH(out[fp].data(), env.buf,
                            out[fp].size() * 4);
    }
    expectStatsEqual(results[0].stats, results[1].stats);
    EXPECT_EQ(results[0].metrics.serialize(),
              results[1].metrics.serialize());
    EXPECT_EQ(serialized[0], serialized[1])
        << "handler aggregates differ between fast-path modes";
    EXPECT_EQ(out[0], out[1]) << "device memory differs";
}

TEST(FastpathHandlerDiff, InstrCounter)
{
    for (int threads : kThreadCounts)
        expectFastpathInvariant<handlers::InstrCounter>(threads);
}

TEST(FastpathHandlerDiff, BlockCounter)
{
    for (int threads : kThreadCounts)
        expectFastpathInvariant<handlers::BlockCounter>(threads);
}

TEST(FastpathHandlerDiff, BranchProfiler)
{
    for (int threads : kThreadCounts)
        expectFastpathInvariant<handlers::BranchProfiler>(threads);
}

TEST(FastpathHandlerDiff, MemDivProfiler)
{
    for (int threads : kThreadCounts)
        expectFastpathInvariant<handlers::MemDivProfiler>(threads);
}

TEST(FastpathHandlerDiff, ValueProfiler)
{
    // No publish(): compare the per-instruction profiles directly.
    for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::vector<handlers::ValueStats> profiles[2];
        std::vector<uint32_t> out[2];
        LaunchResult results[2];
        for (int fp = 0; fp < 2; ++fp) {
            ToolEnv env =
                makeToolEnv(handlers::ValueProfiler::options());
            handlers::ValueProfiler tool(*env.dev, *env.rt);
            results[fp] = launchTool(env, threads, fp);
            ASSERT_TRUE(results[fp].ok()) << results[fp].message;
            profiles[fp] = tool.results();
            out[fp].resize(kCtas * kBlock);
            env.dev->memcpyDtoH(out[fp].data(), env.buf,
                                out[fp].size() * 4);
        }
        expectStatsEqual(results[0].stats, results[1].stats);
        EXPECT_EQ(out[0], out[1]) << "device memory differs";
        ASSERT_EQ(profiles[0].size(), profiles[1].size());
        for (size_t i = 0; i < profiles[0].size(); ++i) {
            const auto &a = profiles[0][i];
            const auto &b = profiles[1][i];
            EXPECT_EQ(a.insAddr, b.insAddr);
            EXPECT_EQ(a.weight, b.weight);
            for (int d = 0; d < 4; ++d) {
                EXPECT_EQ(a.regNum[d], b.regNum[d]);
                EXPECT_EQ(a.constantOnes[d], b.constantOnes[d]);
                EXPECT_EQ(a.constantZeros[d], b.constantZeros[d]);
                EXPECT_EQ(a.isScalar[d], b.isScalar[d]);
            }
        }
    }
}

TEST(FastpathHandlerDiff, MemTracer)
{
    // Trace order is only reproducible serially, which is also how
    // trace consumers run.
    std::vector<handlers::TraceRecord> traces[2];
    for (int fp = 0; fp < 2; ++fp) {
        ToolEnv env = makeToolEnv(handlers::MemTracer::options());
        handlers::MemTracer tool(*env.dev, *env.rt);
        LaunchResult r = launchTool(env, 1, fp);
        ASSERT_TRUE(r.ok()) << r.message;
        traces[fp] = tool.trace();
    }
    ASSERT_EQ(traces[0].size(), traces[1].size());
    for (size_t i = 0; i < traces[0].size(); ++i) {
        EXPECT_EQ(traces[0][i].address, traces[1][i].address);
        EXPECT_EQ(traces[0][i].width, traces[1][i].width);
        EXPECT_EQ(traces[0][i].isStore, traces[1][i].isStore);
        EXPECT_EQ(traces[0][i].insAddr, traces[1][i].insAddr);
        EXPECT_EQ(traces[0][i].warpEvent, traces[1][i].warpEvent);
    }
}

TEST(FastpathHandlerDiff, ErrorInjectionProfiler)
{
    // The census tool (fiber-path handler: not reentrant-safe, so
    // the fast path must route it through the per-site fallback).
    for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::vector<uint32_t> out[2];
        LaunchResult results[2];
        uint64_t totals[2] = {0, 0};
        for (int fp = 0; fp < 2; ++fp) {
            ToolEnv env = makeToolEnv(
                handlers::ErrorInjectionProfiler::options());
            handlers::ErrorInjectionProfiler tool(*env.dev,
                                                  *env.rt);
            results[fp] = launchTool(env, threads, fp);
            ASSERT_TRUE(results[fp].ok()) << results[fp].message;
            for (const auto &p : tool.profiles())
                totals[fp] += p.total;
            out[fp].resize(kCtas * kBlock);
            env.dev->memcpyDtoH(out[fp].data(), env.buf,
                                out[fp].size() * 4);
        }
        expectStatsEqual(results[0].stats, results[1].stats);
        EXPECT_EQ(totals[0], totals[1]);
        EXPECT_EQ(out[0], out[1]) << "device memory differs";
    }
}

/// @}

/// @name Handler faults on both dispatch paths
/// @{

/** Below Device::GlobalBase: no device allocation covers it. */
constexpr uint64_t kUnmapped = 0x40;

/** Whether env is the stress kernel's store site in warp 1 of CTA 5
 *  (the STG is its only store; every lane of the warp is active). */
bool
isFaultSite(const core::HandlerEnv &env)
{
    return env.blockIdx.x == 5 && env.threadIdx.x / 32 == 1 &&
           env.bp.IsMem() && env.mp.IsStore();
}

core::InstrumentOptions
faultOptions()
{
    core::InstrumentOptions o;
    o.beforeAll = true;
    o.memoryInfo = true;
    return o;
}

TEST(FastpathHandlerDiff, LaneFaultMatchesAcrossPaths)
{
    // A reentrant-safe handler with no warp body is a lane loop on
    // both paths: generic with the fast path off, fused with it on.
    // One lane loads an unmapped address; both paths must report the
    // same fault, at the same point, with the same statistics.
    for (int threads : {1, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        LaunchResult results[2];
        for (int fp = 0; fp < 2; ++fp) {
            ToolEnv env = makeToolEnv(faultOptions());
            core::HandlerTraits traits;
            traits.warpSynchronous = false;
            traits.reentrantSafe = true;
            env.rt->setBeforeHandler([](const core::HandlerEnv &h) {
                if (isFaultSite(h) && h.lane == 5)
                    (void)cuda::devLoad32(kUnmapped);
            }, traits);
            results[fp] = launchTool(env, threads, fp);
            EXPECT_EQ(results[fp].outcome, Outcome::MemFault);
        }
        EXPECT_EQ(results[0].dispatch.inlineHandlerCalls, 0u);
        EXPECT_GT(results[1].dispatch.inlineHandlerCalls, 0u)
            << "the fast path never fused a site";
        EXPECT_NE(results[0].message.find("0x40"), std::string::npos)
            << results[0].message;
        EXPECT_EQ(results[0].message, results[1].message);
        expectStatsEqual(results[0].stats, results[1].stats);
    }
}

TEST(FastpathHandlerDiff, WarpSynchronousFaultDrainsFiberGroup)
{
    // A warp-synchronous handler without a warp body runs on fibers
    // with the fast path off and on. Lane 5 faults before the ballot;
    // its fiber finishes, the other 31 lanes' ballot completes
    // without it, and the launch reports the fault once the group
    // has drained.
    for (int threads : {1, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        LaunchResult results[2];
        for (int fp = 0; fp < 2; ++fp) {
            ToolEnv env = makeToolEnv(faultOptions());
            std::atomic<uint32_t> ballot_seen{0};
            env.rt->setBeforeHandler(
                [&ballot_seen](const core::HandlerEnv &h) {
                    const bool site = isFaultSite(h);
                    if (site && h.lane == 5)
                        (void)cuda::devLoad32(kUnmapped);
                    const uint32_t mask = cuda::ballot(1);
                    if (site && h.lane == 6)
                        ballot_seen = mask;
                });
            results[fp] = launchTool(env, threads, fp);
            EXPECT_EQ(results[fp].outcome, Outcome::MemFault);
            EXPECT_EQ(ballot_seen.load(), ~(1u << 5));
            EXPECT_EQ(results[fp].dispatch.inlineHandlerCalls, 0u);
        }
        EXPECT_NE(results[0].message.find("0x40"), std::string::npos)
            << results[0].message;
        EXPECT_EQ(results[0].message, results[1].message);
        expectStatsEqual(results[0].stats, results[1].stats);
    }
}

/// @}

} // namespace
