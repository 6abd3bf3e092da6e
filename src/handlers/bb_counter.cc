#include "handlers/bb_counter.h"

#include <algorithm>

#include "core/intrinsics.h"

namespace sassi::handlers {

namespace {

/**
 * Warp-level form of the block-header handler for the fused-site
 * path (ctx = the DevHashTable): the flavor test and block key are
 * warp-uniform, so the ballot collapses to the active mask and the
 * per-lane thread-entry adds to one add of popc(active) — same table
 * state, same counter sums.
 */
void
blockCounterWarpBody(const void *ctx, const core::WarpHandlerEnv &we)
{
    auto *table = static_cast<DevHashTable *>(const_cast<void *>(ctx));
    uint32_t active = we.activeMask;
    const core::HandlerEnv &lead =
        we.envs[static_cast<size_t>(cuda::ffs(active) - 1)];
    if (lead.site->flavor != core::SiteFlavor::BlockHeader)
        return;
    uint64_t stats = table->findOrInsert(lead.bp.GetInsAddr());
    cuda::countAdd64(stats, 1);
    cuda::countAdd64(stats + 8, static_cast<uint64_t>(cuda::popc(active)));
}

} // namespace

BlockCounter::BlockCounter(simt::Device &dev, core::SassiRuntime &rt,
                           uint32_t table_capacity)
    : table_(dev, table_capacity, 2)
{
    DevHashTable *table = &table_;
    core::HandlerTraits traits;
    traits.reentrantSafe = true;
    traits.warpFn = blockCounterWarpBody;
    traits.warpCtx = table;
    rt.setBeforeHandler([table](const core::HandlerEnv &env) {
        if (env.site->flavor != core::SiteFlavor::BlockHeader)
            return;
        uint32_t active = cuda::ballot(1);
        uint64_t stats = table->findOrInsert(env.bp.GetInsAddr());
        if (env.lane == cuda::ffs(active) - 1)
            cuda::countAdd64(stats, 1);
        cuda::countAdd64(stats + 8, 1);
    }, traits);
}

std::vector<BlockStats>
BlockCounter::results() const
{
    std::vector<BlockStats> out;
    for (const auto &e : table_.collect()) {
        BlockStats b;
        b.headerAddr = e.key;
        b.warpEntries = e.payload[0];
        b.threadEntries = e.payload[1];
        out.push_back(b);
    }
    std::sort(out.begin(), out.end(),
              [](const BlockStats &a, const BlockStats &b) {
                  return a.threadEntries > b.threadEntries;
              });
    return out;
}

void
BlockCounter::publish(Metrics &m) const
{
    uint64_t warp_entries = 0, thread_entries = 0;
    std::vector<BlockStats> rs = results();
    for (const auto &b : rs) {
        warp_entries += b.warpEntries;
        thread_entries += b.threadEntries;
    }
    m.counter("handlers/bb_counter/profiled_blocks") += rs.size();
    m.counter("handlers/bb_counter/warp_entries") += warp_entries;
    m.counter("handlers/bb_counter/thread_entries") += thread_entries;
}

OpcodeHistogram::OpcodeHistogram(simt::Device &dev,
                                 core::SassiRuntime &rt)
    : dev_(dev)
{
    counters_ = dev_.malloc(static_cast<size_t>(sass::NumOpcodes) * 8);
    dev_.memset(counters_, 0, static_cast<size_t>(sass::NumOpcodes) * 8);

    uint64_t counters = counters_;
    core::HandlerTraits traits;
    traits.warpSynchronous = false;
    traits.reentrantSafe = true;
    rt.setBeforeHandler([counters](const core::HandlerEnv &env) {
        auto op = static_cast<uint32_t>(env.bp.GetOpcode());
        cuda::countAdd64(counters + op * 8, 1);
    }, traits);
}

std::vector<uint64_t>
OpcodeHistogram::counts() const
{
    std::vector<uint64_t> out(static_cast<size_t>(sass::NumOpcodes));
    dev_.memcpyDtoH(out.data(), counters_, out.size() * 8);
    return out;
}

} // namespace sassi::handlers
