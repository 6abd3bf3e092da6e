#include "handlers/instr_counter.h"

#include "core/intrinsics.h"

namespace sassi::handlers {

namespace {

/**
 * Figure 3, verbatim logic, for n threads at env's instruction:
 * overlapping category counters bumped with blind adds (countAdd64
 * defers visibility to launch end — the host only reads them after
 * the launch, and sharded adds commute to the same totals).
 */
void
countCategories(uint64_t counters, const core::HandlerEnv &env,
                uint64_t n)
{
    const auto &bp = env.bp;
    const auto &mp = env.mp;
    if (bp.IsMem()) {
        cuda::countAdd64(counters + InstrCounter::Memory * 8, n);
        if (mp.GetWidth() > 4 /*bytes*/)
            cuda::countAdd64(counters + InstrCounter::ExtendedMemory * 8,
                             n);
    }
    if (bp.IsControlXfer())
        cuda::countAdd64(counters + InstrCounter::ControlXfer * 8, n);
    if (bp.IsSync())
        cuda::countAdd64(counters + InstrCounter::Sync * 8, n);
    if (bp.IsNumeric())
        cuda::countAdd64(counters + InstrCounter::Numeric * 8, n);
    if (bp.IsTexture())
        cuda::countAdd64(counters + InstrCounter::Texture * 8, n);
    cuda::countAdd64(counters + InstrCounter::TotalExecuted * 8, n);
}

/**
 * Warp-level form for the fused-site path (ctx = the counter block's
 * device address): every category test reads only the
 * (lane-invariant) instruction encoding, so the per-lane +1 adds
 * collapse to one +num_active per category.
 */
void
instrCounterWarpBody(const void *ctx, const core::WarpHandlerEnv &we)
{
    countCategories(
        *static_cast<const uint64_t *>(ctx),
        we.envs[static_cast<size_t>(cuda::ffs(we.activeMask) - 1)],
        static_cast<uint64_t>(cuda::popc(we.activeMask)));
}

} // namespace

InstrCounter::InstrCounter(simt::Device &dev, core::SassiRuntime &rt)
    : dev_(dev)
{
    counters_ = dev_.malloc(NumCategories * 8);
    reset();

    uint64_t counters = counters_;
    core::HandlerTraits traits;
    traits.warpSynchronous = false; // Figure 3 uses only atomics.
    traits.reentrantSafe = true;    // ...so it can run inline, too.
    traits.warpFn = instrCounterWarpBody;
    traits.warpCtx = &counters_;
    rt.setBeforeHandler([counters](const core::HandlerEnv &env) {
        countCategories(counters, env, 1);
    }, traits);
}

std::array<uint64_t, InstrCounter::NumCategories>
InstrCounter::counts() const
{
    std::array<uint64_t, NumCategories> out{};
    dev_.memcpyDtoH(out.data(), counters_, sizeof(out));
    return out;
}

void
InstrCounter::publish(Metrics &m) const
{
    static const char *const names[NumCategories] = {
        "memory",  "extended_memory", "control_xfer",   "sync",
        "numeric", "texture",         "total_executed",
    };
    std::array<uint64_t, NumCategories> c = counts();
    for (int i = 0; i < NumCategories; ++i)
        m.counter(std::string("handlers/instr_counter/") + names[i]) +=
            c[static_cast<size_t>(i)];
}

void
InstrCounter::reset()
{
    dev_.memset(counters_, 0, NumCategories * 8);
}

} // namespace sassi::handlers
