#include "handlers/branch_profiler.h"

#include <algorithm>

#include "core/intrinsics.h"

namespace sassi::handlers {

namespace {

/** Payload word indices in the device hash table. */
enum : uint32_t {
    PTotal = 0,
    PActive,
    PTaken,
    PNotTaken,
    PDivergent,
    PayloadWords,
};

/**
 * Warp-level form of the Figure 4 handler for the fused-site path
 * (ctx = the DevHashTable): the three ballots become direct mask
 * computations over the lane environments; only the leader's table
 * lookup and five adds touch the device, exactly as in the per-lane
 * body.
 */
void
branchProfilerWarpBody(const void *ctx, const core::WarpHandlerEnv &we)
{
    auto *table = static_cast<DevHashTable *>(const_cast<void *>(ctx));
    uint32_t active = we.activeMask;
    uint32_t taken = 0;
    for (int lane = 0; lane < 32; ++lane) {
        if (!(active & (1u << lane)))
            continue;
        if (we.envs[static_cast<size_t>(lane)].brp.GetDirection())
            taken |= 1u << lane;
    }
    uint32_t ntaken = active & ~taken;
    int num_active = cuda::popc(active);
    int num_taken = cuda::popc(taken);
    int num_not_taken = cuda::popc(ntaken);
    const core::HandlerEnv &lead =
        we.envs[static_cast<size_t>(cuda::ffs(active) - 1)];
    uint64_t stats = table->findOrInsert(lead.bp.GetInsAddr());
    cuda::countAdd64(stats + PTotal * 8, 1);
    cuda::countAdd64(stats + PActive * 8,
                     static_cast<uint64_t>(num_active));
    cuda::countAdd64(stats + PTaken * 8, static_cast<uint64_t>(num_taken));
    cuda::countAdd64(stats + PNotTaken * 8,
                     static_cast<uint64_t>(num_not_taken));
    if (num_taken != num_active && num_not_taken != num_active)
        cuda::countAdd64(stats + PDivergent * 8, 1);
}

} // namespace

BranchProfiler::BranchProfiler(simt::Device &dev, core::SassiRuntime &rt,
                               uint32_t table_capacity)
    : table_(dev, table_capacity, PayloadWords)
{
    DevHashTable *table = &table_;
    core::HandlerTraits traits;
    traits.reentrantSafe = true;
    traits.warpFn = branchProfilerWarpBody;
    traits.warpCtx = table;
    rt.setBeforeHandler([table](const core::HandlerEnv &env) {
        // Figure 4: the conditional-branch analysis handler.
        int thread_idx_in_warp = env.lane;

        // Which way is this thread going to branch?
        bool dir = env.brp.GetDirection();

        // Masks and counts of active/taken/not-taken threads.
        uint32_t active = cuda::ballot(1);
        uint32_t taken = cuda::ballot(dir == true);
        uint32_t ntaken = cuda::ballot(dir == false);
        int num_active = cuda::popc(active);
        int num_taken = cuda::popc(taken);
        int num_not_taken = cuda::popc(ntaken);

        // The first active thread in each warp writes the results.
        if ((cuda::ffs(active) - 1) == thread_idx_in_warp) {
            uint64_t stats = table->findOrInsert(env.bp.GetInsAddr());
            cuda::countAdd64(stats + PTotal * 8, 1);
            cuda::countAdd64(stats + PActive * 8,
                              static_cast<uint64_t>(num_active));
            cuda::countAdd64(stats + PTaken * 8,
                              static_cast<uint64_t>(num_taken));
            cuda::countAdd64(stats + PNotTaken * 8,
                              static_cast<uint64_t>(num_not_taken));
            if (num_taken != num_active && num_not_taken != num_active) {
                // Threads went different ways: a divergent branch.
                cuda::countAdd64(stats + PDivergent * 8, 1);
            }
        }
    }, traits);
}

std::vector<BranchStats>
BranchProfiler::results() const
{
    std::vector<BranchStats> out;
    for (const auto &e : table_.collect()) {
        BranchStats b;
        b.insAddr = e.key;
        b.totalBranches = e.payload[PTotal];
        b.activeThreads = e.payload[PActive];
        b.takenThreads = e.payload[PTaken];
        b.takenNotThreads = e.payload[PNotTaken];
        b.divergentBranches = e.payload[PDivergent];
        out.push_back(b);
    }
    std::sort(out.begin(), out.end(),
              [](const BranchStats &a, const BranchStats &b) {
                  return a.totalBranches > b.totalBranches;
              });
    return out;
}

BranchSummary
BranchProfiler::summarize(uint64_t static_branch_count) const
{
    BranchSummary s;
    s.staticBranches = static_branch_count;
    for (const auto &b : results()) {
        s.dynamicBranches += b.totalBranches;
        s.dynamicDivergent += b.divergentBranches;
        if (b.divergentBranches > 0)
            ++s.staticDivergent;
    }
    return s;
}

void
BranchProfiler::publish(Metrics &m) const
{
    uint64_t dynamic = 0, divergent = 0, ever_divergent = 0;
    std::vector<BranchStats> rs = results();
    for (const auto &b : rs) {
        dynamic += b.totalBranches;
        divergent += b.divergentBranches;
        if (b.divergentBranches > 0)
            ++ever_divergent;
    }
    m.counter("handlers/branch/profiled_branches") += rs.size();
    m.counter("handlers/branch/dynamic_branches") += dynamic;
    m.counter("handlers/branch/dynamic_divergent") += divergent;
    m.counter("handlers/branch/static_divergent") += ever_divergent;
}

uint64_t
countStaticCondBranches(const ir::Module &module)
{
    uint64_t n = 0;
    for (const auto &k : module.kernels) {
        for (const auto &ins : k.code) {
            if (!ins.synthetic && ins.op == sass::Opcode::BRA &&
                ins.guard != sass::PT) {
                ++n;
            }
        }
    }
    return n;
}

} // namespace sassi::handlers
