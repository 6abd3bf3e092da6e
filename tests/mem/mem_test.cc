/**
 * @file
 * Tests of the memory-hierarchy substrate: coalescer properties
 * (including a brute-force property sweep) and cache behaviour.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/cache.h"
#include "mem/coalescer.h"
#include "util/rng.h"

using namespace sassi;
using namespace sassi::mem;

namespace {

TEST(Coalescer, SameLineCollapsesToOneTransaction)
{
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 32; ++i)
        addrs.push_back(0x1000 + static_cast<uint64_t>(i));
    auto r = coalesce(addrs, 32);
    EXPECT_EQ(r.uniqueLines(), 1);
    EXPECT_EQ(r.lines[0].line, 0x1000u);
    EXPECT_EQ(r.lines[0].laneMask, 0xffffffffu);
}

TEST(Coalescer, StridedAccessesSplitPredictably)
{
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 32; ++i)
        addrs.push_back(static_cast<uint64_t>(i) * 128);
    auto r = coalesce(addrs, 32);
    EXPECT_EQ(r.uniqueLines(), 32);
    r = coalesce(addrs, 128);
    EXPECT_EQ(r.uniqueLines(), 32);
    r = coalesce(addrs, 4096);
    EXPECT_EQ(r.uniqueLines(), 1);
}

/** Property sweep: unique count matches a brute-force set. */
class CoalesceProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CoalesceProperty, MatchesBruteForceSet)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 3);
    for (int trial = 0; trial < 50; ++trial) {
        uint32_t line = 1u << rng.nextRange(4, 8);
        std::vector<uint64_t> addrs;
        int n = static_cast<int>(rng.nextRange(1, 32));
        for (int i = 0; i < n; ++i)
            addrs.push_back(rng.nextBelow(1 << 16));
        auto r = coalesce(addrs, line);
        std::set<uint64_t> expect;
        for (uint64_t a : addrs)
            expect.insert(a / line);
        EXPECT_EQ(static_cast<size_t>(r.uniqueLines()), expect.size());
        // Unique lines, full coverage, and a lane-mask partition:
        // every lane appears in exactly one mask, on its own line.
        std::set<uint64_t> got;
        uint32_t all_lanes = 0;
        for (const CoalescedLine &cl : r.lines) {
            EXPECT_TRUE(got.insert(cl.line).second);
            EXPECT_EQ(cl.line % line, 0u);
            EXPECT_TRUE(expect.count(cl.line / line));
            EXPECT_EQ(all_lanes & cl.laneMask, 0u);
            all_lanes |= cl.laneMask;
            for (int lane = 0; lane < 32; ++lane) {
                if (cl.laneMask & (1u << lane)) {
                    EXPECT_EQ(addrs[static_cast<size_t>(lane)] / line,
                              cl.line / line);
                }
            }
        }
        EXPECT_EQ(all_lanes,
                  n == 32 ? 0xffffffffu : ((1u << n) - 1));
    }
}

TEST(Coalescer, LaneMasksAcrossLineSizes)
{
    // Lanes 0..31 access byte i*8: 256 bytes of contiguous data.
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 32; ++i)
        addrs.push_back(0x2000 + static_cast<uint64_t>(i) * 8);

    auto r32 = coalesce(addrs, 32);   // 4 lanes per 32B line.
    ASSERT_EQ(r32.uniqueLines(), 8);
    for (int g = 0; g < 8; ++g) {
        EXPECT_EQ(r32.lines[static_cast<size_t>(g)].line,
                  0x2000u + static_cast<uint64_t>(g) * 32);
        EXPECT_EQ(r32.lines[static_cast<size_t>(g)].laneMask,
                  0xfu << (g * 4));
    }

    auto r64 = coalesce(addrs, 64);   // 8 lanes per 64B line.
    ASSERT_EQ(r64.uniqueLines(), 4);
    for (int g = 0; g < 4; ++g)
        EXPECT_EQ(r64.lines[static_cast<size_t>(g)].laneMask,
                  0xffu << (g * 8));

    auto r128 = coalesce(addrs, 128); // 16 lanes per 128B line.
    ASSERT_EQ(r128.uniqueLines(), 2);
    EXPECT_EQ(r128.lines[0].laneMask, 0x0000ffffu);
    EXPECT_EQ(r128.lines[1].laneMask, 0xffff0000u);
}

TEST(Coalescer, FirstTouchOrderWithInterleavedLanes)
{
    // Even lanes touch line B, odd lanes line A — but lane 0 (line B)
    // comes first, so B must be emitted first.
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 8; ++i)
        addrs.push_back(i % 2 ? 0x1000 : 0x3000);
    auto r = coalesce(addrs, 64);
    ASSERT_EQ(r.uniqueLines(), 2);
    EXPECT_EQ(r.lines[0].line, 0x3000u);
    EXPECT_EQ(r.lines[0].laneMask, 0x55u);
    EXPECT_EQ(r.lines[1].line, 0x1000u);
    EXPECT_EQ(r.lines[1].laneMask, 0xaau);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalesceProperty,
                         ::testing::Range(0, 8));

TEST(Cache, HitsAfterFill)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1024;
    cfg.lineBytes = 64;
    cfg.ways = 2;
    Cache c(cfg);
    EXPECT_FALSE(c.access(0x100, false));
    EXPECT_TRUE(c.access(0x100, false));
    EXPECT_TRUE(c.access(0x13f, false)); // same line
    EXPECT_FALSE(c.access(0x140, false));
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().hits, 2u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictsOldest)
{
    CacheConfig cfg;
    cfg.sizeBytes = 2 * 64; // one set, two ways
    cfg.lineBytes = 64;
    cfg.ways = 2;
    cfg.writeAllocate = true;
    Cache c(cfg);
    c.access(0x0000, false);  // A
    c.access(0x1000, false);  // B
    c.access(0x0000, false);  // A again (B becomes LRU)
    c.access(0x2000, false);  // C evicts B
    EXPECT_TRUE(c.access(0x0000, false));
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_GE(c.stats().evictions, 1u);
}

TEST(Cache, WriteBackCountsDirtyEvictions)
{
    CacheConfig cfg;
    cfg.sizeBytes = 2 * 64;
    cfg.lineBytes = 64;
    cfg.ways = 2;
    cfg.writeAllocate = true;
    Cache c(cfg);
    c.access(0x0000, true);  // dirty A
    c.access(0x1000, false); // B
    c.access(0x2000, false); // evicts A (LRU), dirty
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, NoWriteAllocateBypassesStores)
{
    CacheConfig cfg;
    cfg.writeAllocate = false;
    Cache c(cfg);
    EXPECT_FALSE(c.access(0x40, true));
    // Store miss must not fill the line.
    EXPECT_FALSE(c.access(0x40, false));
}

TEST(Cache, LruEvictionOrderIsExact)
{
    CacheConfig cfg;
    cfg.sizeBytes = 4 * 64; // one set, four ways
    cfg.lineBytes = 64;
    cfg.ways = 4;
    cfg.writeAllocate = true;
    Cache c(cfg);
    // Fill A B C D, then re-touch in order D C B A. Each new line
    // must now evict in recency order: A's line survives longest.
    uint64_t lines[4] = {0x0000, 0x1000, 0x2000, 0x3000};
    for (uint64_t a : lines)
        c.access(a, false);
    for (int i = 3; i >= 0; --i)
        c.access(lines[i], false);
    c.access(0x4000, false); // evicts D (LRU after the re-touch)
    EXPECT_FALSE(c.access(0x3000, false)); // D gone...
    // ...and that re-fill of D evicted C, the next-oldest.
    EXPECT_FALSE(c.access(0x2000, false));
    // A was touched last in the re-touch pass and survives both
    // probe misses (they evicted C then B).
    EXPECT_TRUE(c.access(0x0000, false));
}

TEST(Cache, WriteAllocateStoreMissFillsDirtyLine)
{
    CacheConfig cfg;
    cfg.sizeBytes = 2 * 64;
    cfg.lineBytes = 64;
    cfg.ways = 2;
    cfg.writeAllocate = true;
    Cache c(cfg);
    EXPECT_FALSE(c.access(0x0000, true)); // store miss fills, dirty
    EXPECT_TRUE(c.access(0x0000, false));
    EXPECT_EQ(c.stats().writeThroughs, 0u);
    c.access(0x1000, false);
    c.access(0x2000, false); // evicts the dirty store line
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, WriteThroughStoreHitStaysClean)
{
    CacheConfig cfg;
    cfg.sizeBytes = 2 * 64;
    cfg.lineBytes = 64;
    cfg.ways = 2;
    cfg.writeAllocate = false;
    Cache c(cfg);
    c.access(0x0000, false);             // load fills the line
    EXPECT_TRUE(c.access(0x0000, true)); // store hit: written through
    EXPECT_EQ(c.stats().writeThroughs, 1u);
    c.access(0x1000, false);
    c.access(0x2000, false); // evicts the stored-to line
    // The store was written through, so eviction must not write back.
    EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Hierarchy, CoalescesBeforeL1)
{
    CacheConfig l1;
    l1.sizeBytes = 16 * 1024;
    l1.lineBytes = 128;
    l1.ways = 4;
    CacheConfig l2;
    l2.sizeBytes = 256 * 1024;
    l2.lineBytes = 128;
    l2.ways = 8;
    l2.writeAllocate = true;
    Hierarchy h(2, l1, l2);

    WarpAccess wa;
    for (int i = 0; i < 32; ++i)
        wa.addresses.push_back(0x10000 + static_cast<uint64_t>(i) * 4);
    h.access(wa);
    EXPECT_EQ(h.transactions(), 1u); // 128B line covers the warp.
    h.access(wa);
    EXPECT_EQ(h.transactions(), 2u);
    EXPECT_EQ(h.l1Stats().hits, 1u);
    EXPECT_EQ(h.dramAccesses(), 1u);
}

TEST(Hierarchy, SeparateL1sSharedL2)
{
    CacheConfig l1;
    l1.sizeBytes = 1024;
    l1.lineBytes = 64;
    l1.ways = 2;
    CacheConfig l2;
    l2.sizeBytes = 64 * 1024;
    l2.lineBytes = 64;
    l2.ways = 8;
    l2.writeAllocate = true;
    Hierarchy h(2, l1, l2);

    WarpAccess wa;
    wa.addresses.push_back(0x4000);
    wa.smId = 0;
    h.access(wa); // L1[0] miss, L2 miss
    wa.smId = 1;
    h.access(wa); // L1[1] miss, L2 hit
    EXPECT_EQ(h.l1Stats().misses, 2u);
    EXPECT_EQ(h.l2Stats().hits, 1u);
    EXPECT_EQ(h.dramAccesses(), 1u);
}

/** A 2-SM hierarchy with a write-through L1 and write-back L2. */
Hierarchy
makeWtHierarchy()
{
    CacheConfig l1;
    l1.sizeBytes = 1024;
    l1.lineBytes = 64;
    l1.ways = 2;
    l1.writeAllocate = false;
    CacheConfig l2;
    l2.sizeBytes = 64 * 1024;
    l2.lineBytes = 64;
    l2.ways = 8;
    l2.writeAllocate = true;
    return Hierarchy(2, l1, l2);
}

TEST(Hierarchy, WriteThroughStoreHitReachesL2)
{
    Hierarchy h = makeWtHierarchy();
    WarpAccess load;
    load.addresses.push_back(0x4000);
    h.access(load); // L1 miss fill, L2 miss fill.
    ASSERT_EQ(h.l2Stats().accesses, 1u);

    WarpAccess store = load;
    store.isStore = true;
    h.access(store); // L1 *hit*, but the store must write through.
    EXPECT_EQ(h.l1Stats().hits, 1u);
    EXPECT_EQ(h.l1Stats().writeThroughs, 1u);
    EXPECT_EQ(h.l2Stats().accesses, 2u); // the written-through store
    EXPECT_EQ(h.l2Stats().hits, 1u);
    EXPECT_EQ(h.dramAccesses(), 1u); // only the original fill
}

TEST(Hierarchy, WriteThroughStoreMissStillBypasses)
{
    Hierarchy h = makeWtHierarchy();
    WarpAccess store;
    store.addresses.push_back(0x8000);
    store.isStore = true;
    h.access(store); // L1 miss, no fill; L2 write-allocates.
    EXPECT_EQ(h.l1Stats().misses, 1u);
    EXPECT_EQ(h.l2Stats().accesses, 1u);
    // The line was not allocated in L1: a load misses.
    WarpAccess load = store;
    load.isStore = false;
    h.access(load);
    EXPECT_EQ(h.l1Stats().misses, 2u);
    EXPECT_EQ(h.l2Stats().hits, 1u);
}

TEST(HierarchyDeath, OutOfRangeSmIdPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Hierarchy h = makeWtHierarchy();
    WarpAccess wa;
    wa.addresses.push_back(0x4000);
    wa.smId = 2; // only SMs 0 and 1 exist
    EXPECT_DEATH(h.access(wa), "smId 2 out of range");
}

TEST(Hierarchy, PublishFillsRegistry)
{
    Hierarchy h = makeWtHierarchy();
    WarpAccess wa;
    for (int i = 0; i < 32; ++i)
        wa.addresses.push_back(0x4000 + static_cast<uint64_t>(i) * 4);
    h.access(wa);
    wa.isStore = true;
    h.access(wa);

    Metrics m;
    h.publish(m, "mem");
    EXPECT_EQ(m.counterValue("mem/transactions"), h.transactions());
    EXPECT_EQ(m.counterValue("mem/l1/hits"), h.l1Stats().hits);
    // 32 lanes x 4B span two 64B lines; the store hits both and
    // writes both through.
    EXPECT_EQ(m.counterValue("mem/l1/write_throughs"), 2u);
    EXPECT_EQ(m.counterValue("mem/dram/fetches"), h.dramAccesses());
    const MetricHistogram *lanes =
        m.findHistogram("mem/lanes_per_transaction");
    ASSERT_NE(lanes, nullptr);
    EXPECT_EQ(lanes->count, 4u); // two transactions per warp access
    EXPECT_EQ(lanes->min, 16u);  // 16 lanes on each half-warp line
    EXPECT_EQ(lanes->max, 16u);
}

} // namespace

#include "mem/timing.h"

namespace {

TEST(Timing, IssueOnlyWithoutMemory)
{
    TimingConfig cfg;
    auto est = estimateCycles(1000, 10, {}, cfg);
    EXPECT_DOUBLE_EQ(est.memCycles, 0.0);
    EXPECT_DOUBLE_EQ(est.totalCycles,
                     1000 * cfg.issueCycles + 10 * cfg.mufuCycles);
    EXPECT_EQ(est.transactions, 0u);
}

TEST(Timing, DivergedAccessesCostMore)
{
    // Same thread count, same instruction count: one coalesced
    // access stream vs a fully diverged one.
    std::vector<WarpAccess> coalesced, diverged;
    for (int i = 0; i < 64; ++i) {
        WarpAccess c, d;
        for (int lane = 0; lane < 32; ++lane) {
            c.addresses.push_back(
                static_cast<uint64_t>(i) * 128 +
                static_cast<uint64_t>(lane) * 4);
            d.addresses.push_back(
                (static_cast<uint64_t>(lane) * 64 +
                 static_cast<uint64_t>(i)) * 512);
        }
        coalesced.push_back(c);
        diverged.push_back(d);
    }
    auto est_c = estimateCycles(1000, 0, coalesced);
    auto est_d = estimateCycles(1000, 0, diverged);
    EXPECT_GT(est_d.transactions, 8 * est_c.transactions);
    EXPECT_GT(est_d.memCycles, 4 * est_c.memCycles);
    EXPECT_GT(est_d.totalCycles, est_c.totalCycles);
}

TEST(Timing, ReuseHitsInL1AndCostsLess)
{
    std::vector<WarpAccess> once, repeated;
    WarpAccess wa;
    for (int lane = 0; lane < 32; ++lane)
        wa.addresses.push_back(static_cast<uint64_t>(lane) * 4);
    once.push_back(wa);
    for (int r = 0; r < 10; ++r)
        repeated.push_back(wa);
    auto est1 = estimateCycles(100, 0, once);
    auto est10 = estimateCycles(100, 0, repeated);
    // 9 of 10 transactions hit L1.
    EXPECT_EQ(est10.l1.hits, 9u);
    EXPECT_LT(est10.memCycles, 10 * est1.memCycles);
}

} // namespace
