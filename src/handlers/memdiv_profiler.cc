#include "handlers/memdiv_profiler.h"

#include "core/intrinsics.h"

namespace sassi::handlers {

namespace {

/**
 * Warp-level form of the Figure 6 handler for the fused-site path
 * (ctx = the counter matrix's device address). The per-lane body's
 * early-outs happen before its first ballot, so the rendezvous set
 * is the lanes passing all three filters; here that set is computed
 * directly, and the leader-election loop walks the collected line
 * addresses instead of shuffling them.
 */
void
memDivWarpBody(const void *ctx, const core::WarpHandlerEnv &we)
{
    const uint64_t counters = *static_cast<const uint64_t *>(ctx);
    uint32_t parts = 0;
    uint32_t lines[32] = {};
    for (int lane = 0; lane < 32; ++lane) {
        if (!(we.activeMask & (1u << lane)))
            continue;
        const core::HandlerEnv &env = we.envs[static_cast<size_t>(lane)];
        if (!env.bp.GetInstrWillExecute())
            continue;
        if (env.bp.IsSpillOrFill())
            continue;
        int64_t addr_as_int = env.mp.GetAddress();
        if (!cuda::isGlobal(addr_as_int))
            continue;
        lines[lane] = static_cast<uint32_t>(
            static_cast<uint64_t>(addr_as_int) >>
            MemDivProfiler::OffsetBits);
        parts |= 1u << lane;
    }
    if (!parts)
        return;
    int num_active = cuda::popc(parts);
    unsigned unique = 0;
    uint32_t workset = parts;
    while (workset) {
        int leader = cuda::ffs(workset) - 1;
        uint32_t leaders_addr = lines[leader];
        uint32_t matches = 0;
        for (int lane = 0; lane < 32; ++lane) {
            if ((parts & (1u << lane)) && lines[lane] == leaders_addr)
                matches |= 1u << lane;
        }
        workset &= ~matches;
        unique++;
    }
    uint64_t cell = counters +
        (static_cast<uint64_t>(num_active - 1) * 32 + (unique - 1)) * 8;
    cuda::countAdd64(cell, 1);
}

} // namespace

MemDivProfiler::MemDivProfiler(simt::Device &dev, core::SassiRuntime &rt)
    : dev_(dev)
{
    counters_ = dev_.malloc(32 * 32 * 8);
    reset();

    uint64_t counters = counters_;
    core::HandlerTraits traits;
    traits.reentrantSafe = true;
    traits.warpFn = memDivWarpBody;
    traits.warpCtx = &counters_;
    rt.setBeforeHandler([counters](const core::HandlerEnv &env) {
        // Figure 6: the memory-divergence handler. Note that unlike
        // the branch handler, lanes whose guard predicate is false
        // or whose access is not to global memory drop out before
        // the first ballot, so the warp-wide ops see exactly the
        // participating lanes (CUDA active-thread semantics).
        if (!env.bp.GetInstrWillExecute())
            return;
        if (env.bp.IsSpillOrFill())
            return;
        int64_t addr_as_int = env.mp.GetAddress();
        if (!cuda::isGlobal(addr_as_int))
            return;

        // Shift off the offset bits into the cache line.
        auto line_addr = static_cast<uint32_t>(
            static_cast<uint64_t>(addr_as_int) >> OffsetBits);

        unsigned unique = 0; // Num unique lines per warp.
        uint32_t workset = cuda::ballot(1);
        int first_active = cuda::ffs(workset) - 1;
        int num_active = cuda::popc(workset);
        while (workset) {
            // Elect a leader, get its cache line, see who matches it.
            int leader = cuda::ffs(workset) - 1;
            uint32_t leaders_addr = cuda::shfl(line_addr, leader);
            uint32_t not_matches_leader =
                cuda::ballot(leaders_addr != line_addr);

            // All values matching the leader's are accounted for;
            // remove them from the workset.
            workset = workset & not_matches_leader;
            unique++;
        }

        // Each thread independently computed num_active and unique;
        // the first active thread tallies the result in the 32x32
        // matrix of counters.
        int thread_idx_in_warp = env.lane;
        if (first_active == thread_idx_in_warp) {
            uint64_t cell = counters +
                (static_cast<uint64_t>(num_active - 1) * 32 +
                 (unique - 1)) * 8;
            cuda::countAdd64(cell, 1);
        }
    }, traits);
}

DivergenceMatrix
MemDivProfiler::matrix() const
{
    DivergenceMatrix m;
    std::vector<uint64_t> flat(32 * 32);
    dev_.memcpyDtoH(flat.data(), counters_, flat.size() * 8);
    for (int a = 0; a < 32; ++a)
        for (int u = 0; u < 32; ++u)
            m[static_cast<size_t>(a)][static_cast<size_t>(u)] =
                flat[static_cast<size_t>(a) * 32 +
                     static_cast<size_t>(u)];
    return m;
}

DivergencePmf
MemDivProfiler::pmf() const
{
    DivergenceMatrix m = matrix();
    DivergencePmf out;
    double total_threads = 0, total_warps = 0, weighted_unique = 0;
    std::array<double, 32> threads_by_unique{};
    std::array<double, 32> warps_by_unique{};
    for (int a = 0; a < 32; ++a) {
        for (int u = 0; u < 32; ++u) {
            double count = static_cast<double>(
                m[static_cast<size_t>(a)][static_cast<size_t>(u)]);
            if (count == 0)
                continue;
            threads_by_unique[static_cast<size_t>(u)] +=
                count * (a + 1);
            warps_by_unique[static_cast<size_t>(u)] += count;
            total_threads += count * (a + 1);
            total_warps += count;
            weighted_unique += count * (u + 1);
        }
    }
    for (int u = 0; u < 32; ++u) {
        out.byThreadAccesses[static_cast<size_t>(u)] =
            total_threads ? threads_by_unique[static_cast<size_t>(u)] /
                                total_threads
                          : 0.0;
        out.byWarpInstructions[static_cast<size_t>(u)] =
            total_warps ? warps_by_unique[static_cast<size_t>(u)] /
                              total_warps
                        : 0.0;
    }
    out.meanUniqueLines =
        total_warps ? weighted_unique / total_warps : 0.0;
    out.fullyDivergedShare = out.byThreadAccesses[31];
    return out;
}

void
MemDivProfiler::publish(Metrics &met) const
{
    DivergenceMatrix m = matrix();
    uint64_t warp_instrs = 0, thread_accesses = 0, transactions = 0;
    uint64_t fully_diverged = 0;
    for (size_t a = 0; a < 32; ++a) {
        for (size_t u = 0; u < 32; ++u) {
            uint64_t count = m[a][u];
            if (!count)
                continue;
            warp_instrs += count;
            thread_accesses += count * (a + 1);
            transactions += count * (u + 1);
            if (u == 31)
                fully_diverged += count;
        }
    }
    met.counter("handlers/memdiv/warp_instrs") += warp_instrs;
    met.counter("handlers/memdiv/thread_accesses") += thread_accesses;
    met.counter("handlers/memdiv/line_transactions") += transactions;
    met.counter("handlers/memdiv/fully_diverged_warp_instrs") +=
        fully_diverged;
}

void
MemDivProfiler::reset()
{
    dev_.memset(counters_, 0, 32 * 32 * 8);
}

} // namespace sassi::handlers
