/**
 * @file
 * Determinism tests for parallel CTA execution: the same launch run
 * at 1, 2, and 8 worker threads must produce bit-identical outputs,
 * statistics, and fault reports. The ParallelDeterminism suite uses
 * only the executor (no instrumentation fibers), so it is the suite
 * the TSan preset runs; ParallelHandlers adds the fiber-based
 * instrumentation tools and asserts their aggregates are
 * thread-count-invariant.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "core/sassi.h"
#include "handlers/bb_counter.h"
#include "handlers/instr_counter.h"
#include "handlers/value_profiler.h"
#include "sassir/builder.h"
#include "simt/decode.h"
#include "simt/device.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using sassi::ir::KernelBuilder;
using sassi::ir::Label;

namespace {

/** A launch splits a 64-CTA grid into 16 chunks of 4 CTAs at 2
 *  workers and 64 single-CTA chunks at 8, so every worker claims
 *  several chunks off the shared cursor on these grids. */
constexpr int kCtas = 64;
constexpr int kBlock = 64;
constexpr int kThreadCounts[] = {1, 2, 8};

void
loadKernel(Device &dev, ir::Kernel k)
{
    ir::Module mod;
    mod.kernels.push_back(std::move(k));
    dev.loadModule(std::move(mod));
}

/**
 * A kernel exercising every mechanism the parallel path must keep
 * deterministic at once: shared memory with a barrier, divergent
 * control flow, and commutative global atomics (ADD/MAX/red-OR).
 *
 * Params: out u32[gridDim*blockDim] (0), counters u32[3] (8).
 * Per thread: v = gid ^ 0x5A is staged through shared memory and
 * read back from the tid^1 partner slot after BAR; odd tids then
 * add 1000 while even tids XOR 0x33 (divergent if/else); the result
 * lands in out[gid] and feeds counters[0] += 1, counters[1] =
 * max(gid), counters[2] |= v.
 */
ir::Kernel
buildStress()
{
    KernelBuilder kb("stress");
    kb.setSharedBytes(kBlock * 4);
    kb.s2r(4, SpecialReg::TidX);
    kb.s2r(5, SpecialReg::CtaIdX);
    kb.s2r(6, SpecialReg::NTidX);
    kb.imad(7, 5, 6, 4); // gid

    // Stage gid ^ 0x5A into shared[tid], barrier, read partner.
    kb.shl(10, 4, 2);
    kb.lopi(LogicOp::Xor, 11, 7, 0x5A);
    kb.sts(10, 0, 11);
    kb.bar();
    kb.lopi(LogicOp::Xor, 12, 4, 1);
    kb.shl(12, 12, 2);
    kb.lds(13, 12, 0);

    // Divergent if/else on tid parity.
    Label else_ = kb.newLabel();
    Label end = kb.newLabel();
    kb.lopi(LogicOp::And, 14, 4, 1);
    kb.isetpi(0, CmpOp::EQ, 14, 0);
    kb.ssy(end);
    kb.onP(0).bra(else_);
    kb.iaddi(13, 13, 1000); // Odd tids.
    kb.sync();
    kb.bind(else_);
    kb.lopi(LogicOp::Xor, 13, 13, 0x33); // Even tids.
    kb.sync();
    kb.bind(end);

    // Commutative global atomics on counters[0..2].
    kb.ldc(16, 8, 8);
    kb.mov32i(18, 1);
    kb.atom(AtomOp::Add, 20, 16, 18);
    kb.iaddcci(22, 16, 4);
    kb.iaddx(23, 17, RZ);
    kb.atom(AtomOp::Max, 20, 22, 7);
    kb.iaddcci(24, 16, 8);
    kb.iaddx(25, 17, RZ);
    kb.red(AtomOp::Or, 24, 13);

    // out[gid] = combined value.
    kb.ldc(28, 0, 8);
    kb.shl(26, 7, 2);
    kb.iaddcc(28, 28, 26);
    kb.iaddx(29, 29, RZ);
    kb.stg(28, 0, 13);
    kb.exit();
    return kb.finish();
}

/** One run of the stress kernel at a given worker-thread count. */
struct StressRun
{
    LaunchResult result;
    std::vector<uint32_t> out;
    uint32_t counters[3] = {0, 0, 0};
};

StressRun
runStress(int threads)
{
    Device dev;
    loadKernel(dev, buildStress());
    const size_t n = kCtas * kBlock;
    uint64_t d_out = dev.malloc(n * 4);
    uint64_t d_cnt = dev.malloc(3 * 4);
    std::vector<uint32_t> zeros(n, 0);
    dev.memcpyHtoD(d_out, zeros.data(), n * 4);
    dev.memcpyHtoD(d_cnt, zeros.data(), 3 * 4);

    KernelArgs args;
    args.addU64(d_out);
    args.addU64(d_cnt);
    LaunchOptions opts;
    opts.numThreads = threads;

    StressRun run;
    run.result = dev.launch("stress", Dim3(kCtas), Dim3(kBlock),
                            args, opts);
    run.out.resize(n);
    dev.memcpyDtoH(run.out.data(), d_out, n * 4);
    dev.memcpyDtoH(run.counters, d_cnt, 3 * 4);
    return run;
}

/** Assert two LaunchStats are bit-identical, field by field. */
void
expectStatsEqual(const LaunchStats &a, const LaunchStats &b,
                 int threads)
{
    SCOPED_TRACE("threads=" + std::to_string(threads));
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

TEST(ParallelDeterminism, StressKernelBitIdenticalAcrossThreads)
{
    StressRun ref = runStress(1);
    ASSERT_TRUE(ref.result.ok()) << ref.result.message;

    // Sanity-check the serial reference itself first.
    const uint32_t total = kCtas * kBlock;
    EXPECT_EQ(ref.counters[0], total);
    EXPECT_EQ(ref.counters[1], total - 1);
    EXPECT_EQ(ref.result.stats.ctas, uint64_t(kCtas));
    for (uint32_t gid = 0; gid < total; ++gid) {
        uint32_t tid = gid % kBlock;
        uint32_t partner = gid ^ 1; // tid^1 within the same CTA.
        uint32_t v = partner ^ 0x5A;
        v = (tid & 1) ? v + 1000 : v ^ 0x33;
        ASSERT_EQ(ref.out[gid], v) << "gid " << gid;
    }

    for (int threads : kThreadCounts) {
        StressRun run = runStress(threads);
        ASSERT_EQ(run.result.outcome, ref.result.outcome);
        EXPECT_EQ(run.result.message, ref.result.message);
        expectStatsEqual(run.result.stats, ref.result.stats, threads);
        EXPECT_EQ(run.result.metrics.serialize(),
                  ref.result.metrics.serialize())
            << "metrics registry differs at threads=" << threads;
        EXPECT_EQ(run.counters[0], ref.counters[0]);
        EXPECT_EQ(run.counters[1], ref.counters[1]);
        EXPECT_EQ(run.counters[2], ref.counters[2]);
        EXPECT_EQ(0, std::memcmp(run.out.data(), ref.out.data(),
                                 run.out.size() * 4))
            << "output buffer differs at threads=" << threads;
    }
}

/**
 * Many Devices launching the same kernel from concurrent host
 * threads each compile their own micro-program while the others
 * read the process-wide UopCache tally, and still produce
 * bit-identical results. This is the test the TSan preset leans on
 * to prove the tally's locking: noteCompile(), noteUsage() and
 * snapshot() all run while other threads compile and launch.
 */
TEST(ParallelDeterminism, UopCacheSharedAcrossConcurrentDevices)
{
    constexpr int kRacers = 8;
    StressRun ref = runStress(1);
    ASSERT_TRUE(ref.result.ok()) << ref.result.message;

    auto compiles = [] {
        const Metrics snap = UopCache::global().snapshot();
        for (const auto &[name, v] : snap.counters())
            if (name == "uop/cache/compiles")
                return v;
        return uint64_t{0};
    };
    const uint64_t compiles_before = compiles();

    std::vector<StressRun> runs(kRacers);
    {
        std::vector<std::thread> racers;
        for (int i = 0; i < kRacers; ++i) {
            racers.emplace_back([i, &runs] {
                // Worker pools are not reentrant, so each racer
                // runs its launch serially; the contention under
                // test is on the shared tally.
                runs[i] = runStress(1);
                Metrics snap = UopCache::global().snapshot();
                (void)snap;
            });
        }
        for (auto &t : racers)
            t.join();
    }

    for (int i = 0; i < kRacers; ++i) {
        SCOPED_TRACE("racer " + std::to_string(i));
        ASSERT_EQ(runs[i].result.outcome, ref.result.outcome);
        expectStatsEqual(runs[i].result.stats, ref.result.stats, 1);
        EXPECT_EQ(runs[i].result.metrics.serialize(),
                  ref.result.metrics.serialize());
        EXPECT_EQ(0,
                  std::memcmp(runs[i].out.data(), ref.out.data(),
                              runs[i].out.size() * 4));
    }

    // Programs belong to their device: every racer compiled its own.
    EXPECT_EQ(compiles() - compiles_before,
              static_cast<uint64_t>(kRacers));
}

/** Every CTA faults; the report must come from CTA 0 regardless of
 *  which worker hit its fault first. */
TEST(ParallelDeterminism, FaultReportDeterministicAcrossThreads)
{
    LaunchResult ref;
    for (int i = 0; i < 3; ++i) {
        int threads = kThreadCounts[i];
        Device dev;
        KernelBuilder kb("fault");
        kb.mov32i(8, 0x7fffff00);
        kb.mov32i(9, 0x7fffffff);
        kb.ldg(4, 8);
        kb.exit();
        loadKernel(dev, kb.finish());
        LaunchOptions opts;
        opts.numThreads = threads;
        LaunchResult r = dev.launch("fault", Dim3(kCtas),
                                    Dim3(kBlock), KernelArgs(), opts);
        EXPECT_EQ(r.outcome, Outcome::MemFault);
        if (i == 0) {
            ref = r;
        } else {
            EXPECT_EQ(r.outcome, ref.outcome);
            EXPECT_EQ(r.message, ref.message)
                << "fault message differs at threads=" << threads;
        }
    }
}

/**
 * A loop kernel with enough basic blocks to make the block-header
 * profile interesting: iterates tid+1 times so every thread takes a
 * different trip count.
 */
ir::Kernel
buildLoop()
{
    KernelBuilder kb("loop");
    kb.s2r(4, SpecialReg::TidX);
    kb.iaddi(5, 4, 1); // bound = tid + 1
    kb.mov32i(6, 0);
    Label top = kb.newLabel();
    Label out = kb.newLabel();
    kb.ssy(out);
    kb.bind(top);
    Label done = kb.newLabel();
    kb.isetp(0, CmpOp::GE, 6, 5);
    kb.onP(0).bra(done);
    kb.lopi(LogicOp::Xor, 7, 6, 0x21);
    kb.iaddi(6, 6, 1);
    kb.bra(top);
    kb.bind(done);
    kb.sync();
    kb.bind(out);
    kb.exit();
    return kb.finish();
}

TEST(ParallelHandlers, BlockCounterInvariantAcrossThreads)
{
    std::map<int32_t, std::pair<uint64_t, uint64_t>> ref;
    for (int i = 0; i < 3; ++i) {
        int threads = kThreadCounts[i];
        Device dev;
        loadKernel(dev, buildLoop());
        core::SassiRuntime rt(dev);
        rt.instrument(handlers::BlockCounter::options());
        handlers::BlockCounter counter(dev, rt);

        LaunchOptions opts;
        opts.numThreads = threads;
        auto r = dev.launch("loop", Dim3(kCtas), Dim3(kBlock),
                            KernelArgs(), opts);
        ASSERT_TRUE(r.ok()) << r.message;

        std::map<int32_t, std::pair<uint64_t, uint64_t>> got;
        for (const auto &b : counter.results())
            got[b.headerAddr] = {b.warpEntries, b.threadEntries};
        ASSERT_FALSE(got.empty());
        if (i == 0)
            ref = got;
        else
            EXPECT_EQ(got, ref)
                << "block profile differs at threads=" << threads;
    }
}

/**
 * A deliberately imbalanced grid: every thread iterates tid+1
 * times, and CTA 0 additionally runs 2048 extra iterations, so the
 * worker that claimed CTA 0 grinds while its siblings claim the
 * rest of the grid off the cursor. Params: out u32[gridDim*blockDim].
 */
ir::Kernel
buildImbalanced()
{
    KernelBuilder kb("imbalanced");
    kb.s2r(4, SpecialReg::TidX);
    kb.s2r(8, SpecialReg::CtaIdX);
    kb.s2r(9, SpecialReg::NTidX);
    kb.imad(10, 8, 9, 4); // gid
    kb.iaddi(5, 4, 1);    // bound = tid + 1
    kb.isetpi(0, CmpOp::EQ, 8, 0);
    kb.onP(0).iaddi(5, 5, 2048); // ... plus 2048 in the long CTA.
    kb.mov32i(6, 0);
    kb.mov32i(7, 0);
    Label top = kb.newLabel();
    Label out = kb.newLabel();
    kb.ssy(out);
    kb.bind(top);
    Label done = kb.newLabel();
    kb.isetp(0, CmpOp::GE, 6, 5);
    kb.onP(0).bra(done);
    kb.lopi(LogicOp::Xor, 7, 7, 0x21);
    kb.iaddi(7, 7, 3);
    kb.iaddi(6, 6, 1);
    kb.bra(top);
    kb.bind(done);
    kb.sync();
    kb.bind(out);
    kb.ldc(12, 0, 8); // out[gid] = accumulated value
    kb.shl(14, 10, 2);
    kb.iaddcc(12, 12, 14);
    kb.iaddx(13, 13, RZ);
    kb.stg(12, 0, 7);
    kb.exit();
    return kb.finish();
}

TEST(ParallelDeterminism, ImbalancedGridBitIdentical)
{
    LaunchResult ref;
    std::vector<uint32_t> ref_out;
    for (int i = 0; i < 3; ++i) {
        int threads = kThreadCounts[i];
        Device dev;
        loadKernel(dev, buildImbalanced());
        const size_t n = kCtas * kBlock;
        uint64_t d_out = dev.malloc(n * 4);
        std::vector<uint32_t> zeros(n, 0);
        dev.memcpyHtoD(d_out, zeros.data(), n * 4);
        KernelArgs args;
        args.addU64(d_out);
        LaunchOptions opts;
        opts.numThreads = threads;
        LaunchResult r = dev.launch("imbalanced", Dim3(kCtas),
                                    Dim3(kBlock), args, opts);
        ASSERT_TRUE(r.ok()) << r.message;
        std::vector<uint32_t> got(n);
        dev.memcpyDtoH(got.data(), d_out, n * 4);
        if (i == 0) {
            ref = r;
            ref_out = got;
        } else {
            expectStatsEqual(r.stats, ref.stats, threads);
            EXPECT_EQ(r.metrics.serialize(), ref.metrics.serialize())
                << "metrics differ at threads=" << threads;
            EXPECT_EQ(got, ref_out)
                << "output buffer differs at threads=" << threads;
        }
    }
}

TEST(ParallelHandlers, InstrCounterImbalancedGridInvariant)
{
    std::array<uint64_t, handlers::InstrCounter::NumCategories> ref{};
    for (int i = 0; i < 3; ++i) {
        int threads = kThreadCounts[i];
        Device dev;
        loadKernel(dev, buildImbalanced());
        core::SassiRuntime rt(dev);
        rt.instrument(handlers::InstrCounter::options());
        handlers::InstrCounter counter(dev, rt);

        const size_t n = kCtas * kBlock;
        uint64_t d_out = dev.malloc(n * 4);
        std::vector<uint32_t> zeros(n, 0);
        dev.memcpyHtoD(d_out, zeros.data(), n * 4);
        KernelArgs args;
        args.addU64(d_out);
        LaunchOptions opts;
        opts.numThreads = threads;
        auto r = dev.launch("imbalanced", Dim3(kCtas), Dim3(kBlock),
                            args, opts);
        ASSERT_TRUE(r.ok()) << r.message;

        auto got = counter.counts();
        ASSERT_GT(got[handlers::InstrCounter::TotalExecuted], 0u);
        if (i == 0)
            ref = got;
        else
            EXPECT_EQ(got, ref)
                << "instruction-category counters differ at threads="
                << threads;
    }
}

/**
 * Faults land in the grid's tail chunks: CTA 0 grinds a long uniform
 * loop while every CTA past the midpoint faults on a wild load, so at
 * 2+ threads the other workers claim and fault on the tail long
 * before the worker running CTA 0 finishes it. The reported fault must still be
 * the earliest faulting CTA's, and the merged statistics must match
 * the serial run bit for bit (stats past the first faulted chunk
 * are discarded from the merge).
 */
TEST(ParallelDeterminism, TailChunkFaultReportsEarliestCta)
{
    LaunchResult ref;
    for (int i = 0; i < 3; ++i) {
        int threads = kThreadCounts[i];
        Device dev;
        KernelBuilder kb("tailfault");
        kb.s2r(4, SpecialReg::CtaIdX);
        // CTA 0: 4096 iterations of busywork (uniform branch).
        Label skip = kb.newLabel();
        kb.isetpi(0, CmpOp::NE, 4, 0);
        kb.onP(0).bra(skip);
        kb.mov32i(6, 0);
        Label top = kb.newLabel();
        kb.bind(top);
        kb.lopi(LogicOp::Xor, 7, 6, 0x21);
        kb.iaddi(6, 6, 1);
        kb.isetpi(1, CmpOp::LT, 6, 4096);
        kb.onP(1).bra(top);
        kb.bind(skip);
        // CTAs >= kCtas/2 fault on a wild load.
        kb.mov32i(8, 0x7fffff00);
        kb.mov32i(9, 0x7fffffff);
        kb.isetpi(2, CmpOp::GE, 4, kCtas / 2);
        kb.onP(2).ldg(10, 8);
        kb.exit();
        loadKernel(dev, kb.finish());

        LaunchOptions opts;
        opts.numThreads = threads;
        LaunchResult r = dev.launch("tailfault", Dim3(kCtas),
                                    Dim3(kBlock), KernelArgs(), opts);
        EXPECT_EQ(r.outcome, Outcome::MemFault);
        if (i == 0) {
            ref = r;
        } else {
            EXPECT_EQ(r.outcome, ref.outcome);
            EXPECT_EQ(r.message, ref.message)
                << "fault message differs at threads=" << threads;
            expectStatsEqual(r.stats, ref.stats, threads);
        }
    }
}

TEST(ParallelHandlers, ValueProfilerInvariantAcrossThreads)
{
    handlers::ValueSummary ref;
    uint64_t ref_weight = 0;
    for (int i = 0; i < 3; ++i) {
        int threads = kThreadCounts[i];
        Device dev;
        loadKernel(dev, buildLoop());
        core::SassiRuntime rt(dev);
        rt.instrument(handlers::ValueProfiler::options());
        handlers::ValueProfiler prof(dev, rt);

        LaunchOptions opts;
        opts.numThreads = threads;
        auto r = dev.launch("loop", Dim3(kCtas), Dim3(kBlock),
                            KernelArgs(), opts);
        ASSERT_TRUE(r.ok()) << r.message;

        handlers::ValueSummary s = prof.summarize();
        uint64_t weight = 0;
        for (const auto &v : prof.results())
            weight += v.weight;
        ASSERT_GT(weight, 0u);
        if (i == 0) {
            ref = s;
            ref_weight = weight;
        } else {
            EXPECT_EQ(weight, ref_weight);
            EXPECT_DOUBLE_EQ(s.dynamicConstBitsPct,
                             ref.dynamicConstBitsPct);
            EXPECT_DOUBLE_EQ(s.dynamicScalarPct, ref.dynamicScalarPct);
            EXPECT_DOUBLE_EQ(s.staticConstBitsPct,
                             ref.staticConstBitsPct);
            EXPECT_DOUBLE_EQ(s.staticScalarPct, ref.staticScalarPct);
        }
    }
}

} // namespace
