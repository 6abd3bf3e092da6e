/**
 * @file
 * google-benchmark microbenchmarks of the substrate itself:
 * simulator issue rate, instrumentation dispatch cost (fiber vs
 * fast path), device hash table, and the coalescer. These quantify
 * the claims in §9.1 at the component level.
 */

#include <benchmark/benchmark.h>

#include "core/sassi.h"
#include "handlers/dev_hash.h"
#include "mem/coalescer.h"
#include "sassir/builder.h"
#include "util/rng.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using sassi::ir::KernelBuilder;
using sassi::ir::Label;

namespace {

/** A spin kernel executing ~n ALU warp instructions. */
ir::Kernel
spinKernel(int iters)
{
    KernelBuilder kb("spin");
    kb.mov32i(4, 0);
    kb.mov32i(5, static_cast<int64_t>(iters));
    Label top = kb.newLabel();
    Label out = kb.newLabel();
    kb.ssy(out);
    kb.bind(top);
    Label done = kb.newLabel();
    kb.isetp(0, CmpOp::GE, 4, 5);
    kb.onP(0).bra(done);
    kb.iaddi(6, 6, 3);
    kb.lopi(LogicOp::Xor, 7, 6, 0x55);
    kb.iaddi(4, 4, 1);
    kb.bra(top);
    kb.bind(done);
    kb.sync();
    kb.bind(out);
    kb.exit();
    return kb.finish();
}

void
BM_SimulatorIssueRate(benchmark::State &state)
{
    Device dev;
    ir::Module mod;
    mod.kernels.push_back(spinKernel(static_cast<int>(state.range(0))));
    dev.loadModule(std::move(mod));
    uint64_t instrs = 0;
    for (auto _ : state) {
        auto r = dev.launch("spin", Dim3(4), Dim3(128), KernelArgs());
        instrs += r.stats.warpInstrs;
    }
    state.counters["warp_instrs_per_s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorIssueRate)->Arg(256)->Arg(1024);

void
dispatchBench(benchmark::State &state, bool warp_sync)
{
    Device dev;
    ir::Module mod;
    mod.kernels.push_back(spinKernel(64));
    dev.loadModule(std::move(mod));
    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.beforeAll = true;
    rt.instrument(opts);
    core::HandlerTraits traits;
    traits.warpSynchronous = warp_sync;
    uint64_t sink = 0;
    rt.setBeforeHandler(
        [&sink](const core::HandlerEnv &env) {
            sink += static_cast<uint64_t>(env.lane);
        },
        traits);
    uint64_t calls = 0;
    for (auto _ : state) {
        auto r = dev.launch("spin", Dim3(1), Dim3(128), KernelArgs());
        calls += r.stats.handlerCalls;
    }
    benchmark::DoNotOptimize(sink);
    state.counters["handler_calls_per_s"] = benchmark::Counter(
        static_cast<double>(calls), benchmark::Counter::kIsRate);
}

void
BM_DispatchFiber(benchmark::State &state)
{
    dispatchBench(state, true);
}
BENCHMARK(BM_DispatchFiber);

void
BM_DispatchFastPath(benchmark::State &state)
{
    dispatchBench(state, false);
}
BENCHMARK(BM_DispatchFastPath);

void
BM_Coalescer(benchmark::State &state)
{
    Rng rng(7);
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 32; ++i)
        addrs.push_back(rng.nextBelow(1 << 20));
    for (auto _ : state) {
        auto r = mem::coalesce(addrs, 32);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_Coalescer);

} // namespace

BENCHMARK_MAIN();
