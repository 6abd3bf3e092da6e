/**
 * @file
 * Interpreter hot-path microbenchmark: measures warp-instruction
 * throughput with the superblock micro-op fast path off vs on
 * (LaunchOptions::superblocks, see simt/decode.h) on three kernel
 * shapes — ALU-heavy (long straight-line runs, the case the fast
 * path targets), branch-heavy (short blocks, the fast path mostly
 * disengaged), and the ALU-heavy kernel instrumented with the
 * Figure 3 instruction counter (JCAL sites chop every run). A
 * second sweep holds superblocks on and toggles the SIMD
 * lane-vectorized tier (LaunchOptions::simd) to isolate its
 * contribution, and a third prints the 64x128 grid's speedup,
 * plain and instrumented, at 1/2/4/8 workers. Results go to stdout
 * only; the timed benchmark the project is judged on is
 * perfbench/run.py (BENCHMARK.json).
 *
 * --smoke runs a short differential pass instead: every kernel is
 * executed in each of the fuzz oracle's dispatch modes
 * (fuzz::kModes: generic, superblock, simd, fused, fused_simd), and
 * the LaunchStats and metrics registry must match the generic
 * interpreter's bit for bit (exit 1 otherwise).
 * --slowdown-gate measures the 8-worker instrumented alu_heavy
 * slowdown and fails when it exceeds kMaxSlowdown.
 * --scaling-gate measures the speedup of a plain 64x128 alu_heavy
 * grid at w = min(8, hardware threads) workers over serial and
 * fails when every attempt falls below 0.5 * w, skipping (exit 77)
 * on a single-threaded host. All three are wired up as
 * bench-labeled ctests so the benchmark can't rot and neither
 * instrumentation overhead nor parallel scaling can silently
 * regress.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sassi.h"
#include "fuzz/oracle.h"
#include "handlers/instr_counter.h"
#include "gate_timing.h"
#include "sassir/builder.h"
#include "simt/decode.h"
#include "simt/simd/simd_exec.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using sassi::ir::KernelBuilder;
using sassi::ir::Label;

namespace {

constexpr int Ctas = 16;
constexpr int Block = 128;

/**
 * A counted loop whose body is a long straight-line run of
 * unpredicated integer and float ALU ops — the superblock
 * compiler's best case (one ~50-instruction run per iteration).
 */
ir::Kernel
aluHeavyKernel(int iters)
{
    KernelBuilder kb("alu_heavy");
    kb.s2r(6, SpecialReg::TidX);
    kb.mov32i(4, 0);
    kb.mov32i(5, iters);
    kb.iaddi(8, 6, 0x1234);
    kb.mov32i(9, 0x9e3779b9);
    kb.fmov32i(12, 1.5f);
    kb.fmov32i(13, 0.25f);
    Label top = kb.newLabel();
    Label done = kb.newLabel();
    Label out = kb.newLabel();
    kb.ssy(out);
    kb.bind(top);
    kb.isetp(0, CmpOp::GE, 4, 5);
    kb.onP(0).bra(done);
    // 48 straight-line ALU ops (6 rounds of an 8-op integer/float
    // mixing step), all unpredicated: one superblock per iteration.
    for (int round = 0; round < 6; ++round) {
        kb.iadd(10, 8, 9);
        kb.shl(11, 10, 5);
        kb.lop(LogicOp::Xor, 8, 10, 11);
        kb.imad(9, 9, 9, 10);
        kb.shr(14, 8, 3);
        kb.lopi(LogicOp::And, 14, 14, 0xffff);
        kb.ffma(12, 12, 13, 12);
        kb.iadd(8, 8, 14);
    }
    kb.iaddi(4, 4, 1);
    kb.bra(top);
    kb.bind(done);
    kb.sync();
    kb.bind(out);
    kb.exit();
    return kb.finish();
}

/**
 * The same trip count spent on short, data-dependent divergent
 * diamonds: basic blocks of one or two instructions, so almost no
 * superblocks form and both modes should measure alike.
 */
ir::Kernel
branchHeavyKernel(int iters)
{
    KernelBuilder kb("branch_heavy");
    kb.s2r(6, SpecialReg::TidX);
    kb.mov32i(4, 0);
    kb.mov32i(5, iters);
    kb.iaddi(8, 6, 7);
    Label top = kb.newLabel();
    Label done = kb.newLabel();
    Label out = kb.newLabel();
    kb.ssy(out);
    kb.bind(top);
    kb.isetp(0, CmpOp::GE, 4, 5);
    kb.onP(0).bra(done);
    // Four data-dependent if/else diamonds per iteration.
    for (int d = 0; d < 4; ++d) {
        Label else_ = kb.newLabel();
        Label join = kb.newLabel();
        kb.lopi(LogicOp::And, 10, 8, 1 << d);
        kb.isetpi(1, CmpOp::EQ, 10, 0);
        kb.ssy(join);
        kb.onP(1).bra(else_);
        kb.iaddi(8, 8, 3);
        kb.sync();
        kb.bind(else_);
        kb.lopi(LogicOp::Xor, 8, 8, 0x5b);
        kb.sync();
        kb.bind(join);
    }
    kb.iaddi(4, 4, 1);
    kb.bra(top);
    kb.bind(done);
    kb.sync();
    kb.bind(out);
    kb.exit();
    return kb.finish();
}

struct Bench
{
    const char *name;
    ir::Kernel (*make)(int iters);
    bool instrumented;
};

constexpr Bench kBenches[] = {
    {"alu_heavy", aluHeavyKernel, false},
    {"branch_heavy", branchHeavyKernel, false},
    {"alu_heavy_instrumented", aluHeavyKernel, true},
};

struct Setup
{
    std::unique_ptr<Device> dev;
    std::unique_ptr<core::SassiRuntime> rt;
    std::unique_ptr<handlers::InstrCounter> counter;
    std::string kernel;
};

Setup
prepare(const Bench &b, int iters)
{
    Setup s;
    s.dev = std::make_unique<Device>();
    ir::Module mod;
    mod.kernels.push_back(b.make(iters));
    s.kernel = mod.kernels.back().name;
    s.dev->loadModule(std::move(mod));
    if (b.instrumented) {
        s.rt = std::make_unique<core::SassiRuntime>(*s.dev);
        s.rt->instrument(handlers::InstrCounter::options());
        s.counter =
            std::make_unique<handlers::InstrCounter>(*s.dev, *s.rt);
    }
    return s;
}

LaunchResult
launchOnce(Setup &s, int superblocks, int fastpath = -1,
           int threads = 1, int ctas = Ctas, int simd = -1)
{
    LaunchOptions opts;
    opts.numThreads = threads;
    opts.superblocks = superblocks;
    opts.handlerFastpath = fastpath;
    opts.simd = simd;
    return s.dev->launch(s.kernel, Dim3(ctas), Dim3(Block),
                         KernelArgs(), opts);
}

/** Average per-launch wall seconds over `launches` timed launches
 *  (after one warmup) at the given worker count and grid size. */
double
perLaunchSecs(Setup &s, int threads, int ctas, int launches = 3)
{
    launchOnce(s, 1, -1, threads, ctas); // Warm pool + compile.
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < launches; ++i) {
        auto r = launchOnce(s, 1, -1, threads, ctas);
        if (!r.ok()) {
            std::fprintf(stderr, "%s: launch failed: %s\n",
                         s.kernel.c_str(), r.message.c_str());
            std::exit(1);
        }
    }
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
               .count() /
           launches;
}

struct Rate
{
    double instrsPerSec = 0;
    double secs = 0;
};

Rate
measure(Setup &s, int superblocks, double min_secs, int simd = -1,
        int fastpath = -1)
{
    // Warm caches and the worker pool.
    launchOnce(s, superblocks, fastpath, 1, Ctas, simd);
    Rate rate;
    uint64_t instrs = 0;
    auto t0 = std::chrono::steady_clock::now();
    do {
        auto r = launchOnce(s, superblocks, fastpath, 1, Ctas, simd);
        if (!r.ok()) {
            std::fprintf(stderr, "%s: launch failed: %s\n",
                         s.kernel.c_str(), r.message.c_str());
            std::exit(1);
        }
        instrs += r.stats.warpInstrs;
        rate.secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    } while (rate.secs < min_secs);
    rate.instrsPerSec = static_cast<double>(instrs) / rate.secs;
    return rate;
}

/** --smoke: every dispatch mode must produce bit-identical
 *  observables: generic, superblocks, superblocks + compiled
 *  handlers. */
int
runSmoke()
{
    // The fuzz oracle's dispatch modes; kModes[0] is the reference
    // generic interpreter.
    constexpr size_t kNumModes = std::size(fuzz::kModes);
    int failures = 0;
    for (const Bench &b : kBenches) {
        LaunchResult r[kNumModes];
        for (size_t mode = 0; mode < kNumModes; ++mode) {
            const fuzz::DispatchMode &m = fuzz::kModes[mode];
            Setup s = prepare(b, 64);
            r[mode] = launchOnce(s, m.sb, m.fp, 1, Ctas, m.sd);
        }
        bool same = true;
        for (size_t mode = 1; mode < kNumModes; ++mode) {
            const LaunchResult &r0 = r[0];
            const LaunchResult &r1 = r[mode];
            same = same && r0.outcome == r1.outcome &&
                   r0.stats.warpInstrs == r1.stats.warpInstrs &&
                   r0.stats.threadInstrs == r1.stats.threadInstrs &&
                   r0.stats.syntheticWarpInstrs ==
                       r1.stats.syntheticWarpInstrs &&
                   r0.stats.handlerCalls == r1.stats.handlerCalls &&
                   r0.stats.handlerCostInstrs ==
                       r1.stats.handlerCostInstrs &&
                   r0.stats.memWarpInstrs == r1.stats.memWarpInstrs &&
                   r0.stats.opcodeCounts == r1.stats.opcodeCounts &&
                   r0.metrics.serialize() == r1.metrics.serialize();
        }
        std::printf("smoke %-24s %s\n", b.name,
                    same ? "ok" : "MISMATCH");
        if (!same)
            ++failures;
    }
    return failures ? 1 : 0;
}

/**
 * --slowdown-gate: the perf-regression tripwire. Measures the
 * 8-worker instrumented alu_heavy wall-clock against the
 * uninstrumented kernel (superblocks and the compiled-handler fast
 * path both on, their default) and fails when the slowdown exceeds
 * kMaxSlowdown (75x — the measured ratio is ~44–63x at 8 workers
 * now that the warp-batched dispatch tier materializes frames with
 * transposed 256-bit stores and calls handlers through the
 * devirtualized inline path; the budget trips on a 1.2–1.7x
 * regression while tolerating CI noise).
 */
int
runSlowdownGate()
{
    constexpr double kMaxSlowdown = 75.0;
    constexpr int kIters = 256;
    constexpr int kThreads = 8;
    auto timeOne = [](const Bench &b, int launches) {
        Setup s = prepare(b, kIters);
        return perLaunchSecs(s, kThreads, Ctas, launches);
    };

    // The instrumented side goes first: its ~1s of work spins the
    // host out of any idle-frequency state before the base is timed.
    // The uninstrumented launch is ~10ms, so its average needs many
    // launches to keep the ratio's denominator out of the noise —
    // the gate's spread comes almost entirely from there.
    double instr = timeOne(kBenches[2], 3); // instrumented
    double base = timeOne(kBenches[0], 30); // alu_heavy
    double slowdown = base > 0 ? instr / base : 0;
    bool ok = slowdown <= kMaxSlowdown;
    std::printf("slowdown gate: alu_heavy %d workers  base "
                "%.3fs/launch  instrumented %.3fs/launch  slowdown "
                "%.1fx  budget %.1fx  %s\n",
                kThreads, base, instr, slowdown, kMaxSlowdown,
                ok ? "ok" : "EXCEEDED");
    return ok ? 0 : 1;
}

/**
 * --scaling-gate: the parallel-scaling tripwire. A 64x128 alu_heavy
 * grid (64 CTAs of 128 threads on ALU work, no shared state) must
 * speed up by at least 0.5 * w at w = min(8, hardware threads)
 * workers over serial — 4x at 8 workers, 2x at 4. Workers claim
 * CTA chunks off one cursor, which must keep every worker busy on
 * this shape. Each side is timed kGateReps times, alternating, and
 * the medians are compared, up to kGateAttempts times until one
 * passes (bench/gate_timing.h). A single-threaded host cannot show
 * any speedup, so it reports a ctest SKIP (exit 77).
 */
int
runScalingGate()
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw < 2) {
        std::printf("scaling gate: skipped (%u hardware thread)\n", hw);
        return 77;
    }
    const int workers = bench::gateWorkers(hw);
    const double need = bench::kMinScalingEfficiency * workers;

    constexpr int kIters = 256;
    constexpr int kCtas = 64;
    Setup s = prepare(kBenches[0], kIters);
    for (int attempt = 1; attempt <= bench::kGateAttempts; ++attempt) {
        std::vector<double> serials, pars;
        bench::GrantedCpus serialCpus, parCpus;
        for (int rep = 0; rep < bench::kGateReps; ++rep) {
            serials.push_back(
                serialCpus.time([&] { return perLaunchSecs(s, 1, kCtas); }));
            pars.push_back(parCpus.time(
                [&] { return perLaunchSecs(s, workers, kCtas); }));
        }
        double serial = bench::median(serials);
        double par = bench::median(pars);
        double speedup = par > 0 ? serial / par : 0;
        bool ok = speedup >= need;
        std::printf("scaling gate: granted parallelism serial %.2f cpus, "
                    "%d workers %.2f cpus (process CPU time / wall time)\n",
                    serialCpus.cpus(), workers, parCpus.cpus());
        std::printf("scaling gate: alu_heavy %dx%d  serial %.3fs/launch  "
                    "%d workers %.3fs/launch  speedup %.2fx  need "
                    "%.2fx  %s\n",
                    kCtas, Block, serial, workers, par, speedup, need,
                    ok ? "ok" : "TOO SLOW");
        if (ok)
            return 0;
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool gate = false;
    bool scaling_gate = false;
    double min_secs = 0.4;
    int iters = 512;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--slowdown-gate") == 0) {
            gate = true;
        } else if (std::strcmp(argv[i], "--scaling-gate") == 0) {
            scaling_gate = true;
        } else if (std::strcmp(argv[i], "--seconds") == 0 &&
                   i + 1 < argc) {
            min_secs = std::atof(argv[++i]);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            return 1;
        }
    }
    if (smoke)
        return runSmoke();
    if (gate)
        return runSlowdownGate();
    if (scaling_gate)
        return runScalingGate();

    std::printf("-- interpreter throughput, superblocks off vs on "
                "(%d CTAs x %d threads, 1 worker) --\n",
                Ctas, Block);
    for (const Bench &b : kBenches) {
        Setup s = prepare(b, iters);
        Rate off = measure(s, 0, min_secs);
        Rate on = measure(s, 1, min_secs);
        double speedup = off.instrsPerSec > 0
                             ? on.instrsPerSec / off.instrsPerSec
                             : 0;
        std::printf("%-24s off %8.2f Mwi/s   on %8.2f Mwi/s   "
                    "speedup %.2fx\n",
                    b.name, off.instrsPerSec / 1e6,
                    on.instrsPerSec / 1e6, speedup);
        if (b.instrumented) {
            // Isolate the compiled-handler contribution: superblocks
            // on but sites forced back onto the fiber path.
            Rate fiber = measure(s, 1, min_secs, -1, 0);
            std::printf("%-24s sb on, handler fastpath off "
                        "%8.2f Mwi/s\n",
                        b.name, fiber.instrsPerSec / 1e6);
        }
    }

    // SIMD-tier contribution: superblocks pinned on, the
    // lane-vectorized exec functions off vs on. The simd=0 rows are
    // the control; on hosts without AVX2 both modes run the scalar
    // tier and the speedup reads ~1.0x.
    std::printf("\n-- SIMD tier, superblocks on, simd off vs on "
                "(avx2 %s) --\n",
                simd::cpuHasAvx2() ? "present" : "absent");
    for (const Bench &b : kBenches) {
        Setup s = prepare(b, iters);
        Rate off = measure(s, 1, min_secs, 0);
        Rate on = measure(s, 1, min_secs, 1);
        double speedup = off.instrsPerSec > 0
                             ? on.instrsPerSec / off.instrsPerSec
                             : 0;
        std::printf("%-24s off %8.2f Mwi/s   on %8.2f Mwi/s   "
                    "speedup %.2fx\n",
                    b.name, off.instrsPerSec / 1e6,
                    on.instrsPerSec / 1e6, speedup);
    }

    // Parallel scaling snapshot: the 64x128 grid, plain and
    // instrumented, from serial up to 8 workers. On a loaded or
    // small host the absolute speedups are noise; --scaling-gate is
    // what enforces the bound, this sweep just shows the shape of
    // the curve.
    std::printf("\n-- parallel scaling (64x%d grid) --\n", Block);
    for (const Bench *b : {&kBenches[0], &kBenches[2]}) {
        Setup s = prepare(*b, 256);
        double serial = 0;
        for (int threads : {1, 2, 4, 8}) {
            double secs = perLaunchSecs(s, threads, 64, 2);
            if (threads == 1)
                serial = secs;
            double speedup = secs > 0 ? serial / secs : 0;
            std::printf("%-24s threads=%d  %.3fs/launch  "
                        "speedup %.2fx\n",
                        b->name, threads, secs, speedup);
        }
    }

    Metrics uop = UopCache::global().snapshot();
    std::printf("\n-- micro-op tally --\n");
    for (const auto &[name, value] : uop.counters())
        std::printf("%-32s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
    return 0;
}
