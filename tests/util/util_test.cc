/**
 * @file
 * Tests for the util substrate: fibers (the warp-synchronous
 * execution engine), RNG determinism, bit helpers, and tables.
 */

#include <gtest/gtest.h>

#include <array>
#include <cfenv>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "simt/executor.h"
#include "util/bitops.h"
#include "util/fiber.h"
#include "util/rng.h"
#include "util/table.h"

using namespace sassi;

namespace {

TEST(Bitops, PopcAndFfs)
{
    EXPECT_EQ(popc(0u), 0);
    EXPECT_EQ(popc(0xffffffffu), 32);
    EXPECT_EQ(popc(0xaau), 4);
    EXPECT_EQ(ffs(0u), 0);
    EXPECT_EQ(ffs(1u), 1);
    EXPECT_EQ(ffs(0x80000000u), 32);
    EXPECT_EQ(ffs(0b1010000u), 5);
}

TEST(Bitops, U64Assembly)
{
    EXPECT_EQ(makeU64(0xdeadbeef, 0x12345678), 0x12345678deadbeefull);
    EXPECT_EQ(lo32(0x12345678deadbeefull), 0xdeadbeefu);
    EXPECT_EQ(hi32(0x12345678deadbeefull), 0x12345678u);
}

TEST(Rng, DeterministicAndSeedSensitive)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
    }
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 10; ++i)
        differs = differs || a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, BoundsRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBelow(17), 17u);
        int64_t v = rng.nextRange(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Fiber, AllLanesRunToCompletion)
{
    FiberGroup group;
    std::vector<int> ran(32, 0);
    std::vector<int> lanes;
    for (int i = 0; i < 32; ++i)
        lanes.push_back(i);
    group.run(lanes, [&](int lane) { ran[static_cast<size_t>(lane)] = lane + 1; });
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(ran[static_cast<size_t>(i)], i + 1);
}

TEST(Fiber, BarrierGathersAllLaneValues)
{
    FiberGroup group;
    std::vector<int> lanes{0, 3, 7, 31};
    std::vector<uint64_t> results(32, 0);
    group.run(lanes, [&](int lane) {
        uint64_t sum = group.barrier(
            static_cast<uint64_t>(lane) * 10,
            [](const std::vector<uint64_t> &vals,
               const std::vector<int> &, std::vector<uint64_t> &out) {
                uint64_t s = 0;
                for (uint64_t v : vals)
                    s += v;
                for (auto &o : out)
                    o = s;
            });
        results[static_cast<size_t>(lane)] = sum;
    });
    for (int lane : lanes)
        EXPECT_EQ(results[static_cast<size_t>(lane)], 410u);
}

TEST(Fiber, PerLaneResultsDiffer)
{
    // shfl-style: each lane gets its own doubled value back.
    FiberGroup group;
    std::vector<int> lanes{1, 2, 5};
    std::vector<uint64_t> results(32, 0);
    group.run(lanes, [&](int lane) {
        results[static_cast<size_t>(lane)] = group.barrier(
            static_cast<uint64_t>(lane),
            [](const std::vector<uint64_t> &vals,
               const std::vector<int> &, std::vector<uint64_t> &out) {
                for (size_t i = 0; i < vals.size(); ++i)
                    out[i] = vals[i] * 2;
            });
    });
    for (int lane : lanes)
        EXPECT_EQ(results[static_cast<size_t>(lane)],
                  static_cast<uint64_t>(lane) * 2);
}

TEST(Fiber, EarlyFinishersAreExcludedFromRendezvous)
{
    // Lanes 0..3 participate; lane 2 exits before the barrier. The
    // rendezvous must proceed with the remaining three.
    FiberGroup group;
    std::vector<int> lanes{0, 1, 2, 3};
    std::vector<uint64_t> counts(4, 99);
    group.run(lanes, [&](int lane) {
        if (lane == 2)
            return;
        counts[static_cast<size_t>(lane)] = group.barrier(
            1,
            [](const std::vector<uint64_t> &vals,
               const std::vector<int> &, std::vector<uint64_t> &out) {
                for (auto &o : out)
                    o = vals.size();
            });
    });
    EXPECT_EQ(counts[0], 3u);
    EXPECT_EQ(counts[1], 3u);
    EXPECT_EQ(counts[2], 99u);
    EXPECT_EQ(counts[3], 3u);
}

TEST(Fiber, MultipleSequentialBarriers)
{
    FiberGroup group;
    std::vector<int> lanes{0, 1};
    int rounds_seen = 0;
    group.run(lanes, [&](int lane) {
        for (int round = 0; round < 5; ++round) {
            uint64_t r = group.barrier(
                static_cast<uint64_t>(round),
                [](const std::vector<uint64_t> &vals,
                   const std::vector<int> &,
                   std::vector<uint64_t> &out) {
                    // All lanes must be in the same round.
                    for (uint64_t v : vals)
                        EXPECT_EQ(v, vals[0]);
                    for (auto &o : out)
                        o = vals[0];
                });
            EXPECT_EQ(r, static_cast<uint64_t>(round));
            if (lane == 0)
                ++rounds_seen;
        }
    });
    EXPECT_EQ(rounds_seen, 5);
}

TEST(Fiber, GroupIsReusable)
{
    FiberGroup group;
    for (int iter = 0; iter < 10; ++iter) {
        int total = 0;
        std::vector<int> lanes{0, 1, 2};
        group.run(lanes, [&](int) { ++total; });
        EXPECT_EQ(total, 3);
    }
}

/** Reducer for tests that only need the rendezvous, not its value. */
void
sumReducer(const std::vector<uint64_t> &vals, const std::vector<int> &,
           std::vector<uint64_t> &results)
{
    uint64_t sum = 0;
    for (uint64_t v : vals)
        sum += v;
    for (auto &r : results)
        r = sum;
}

TEST(Fiber, FloatingPointControlIsPerFiber)
{
    // The rounding mode lives in MXCSR and the x87 control word; a
    // fiber switch must carry both with the fiber.
    ASSERT_EQ(std::fegetround(), FE_TONEAREST);
    FiberGroup group;
    std::vector<int> lanes{0, 1, 2, 3};
    std::vector<int> before(4, -1), after(4, -1);
    std::vector<double> sums(4, 0.0);
    group.run(lanes, [&](int lane) {
        if (lane == 1)
            std::fesetround(FE_UPWARD);
        before[static_cast<size_t>(lane)] = std::fegetround();
        group.barrier(0, sumReducer);
        after[static_cast<size_t>(lane)] = std::fegetround();
        // 1 + 2^-60 rounds up only under FE_UPWARD (SSE arithmetic).
        volatile double tiny = 0x1p-60;
        sums[static_cast<size_t>(lane)] = 1.0 + tiny;
    });
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    for (int lane : lanes) {
        const auto l = static_cast<size_t>(lane);
        const int mode = lane == 1 ? FE_UPWARD : FE_TONEAREST;
        EXPECT_EQ(before[l], mode) << "lane " << lane;
        EXPECT_EQ(after[l], mode) << "lane " << lane;
        EXPECT_EQ(sums[l] > 1.0, lane == 1) << "lane " << lane;
    }
    std::fesetround(FE_TONEAREST);
}

TEST(Fiber, LaneStackIsAligned)
{
    FiberGroup group;
    std::vector<int> lanes{0, 1, 2};
    std::vector<uintptr_t> misalign(3, 1);
    std::vector<std::string> printed(3);
    group.run(lanes, [&](int lane) {
        alignas(16) unsigned char buf[16];
        // Read back through volatile so the check is not folded away.
        volatile uintptr_t addr = reinterpret_cast<uintptr_t>(buf);
        std::memset(buf, lane, sizeof(buf));
        misalign[static_cast<size_t>(lane)] = addr % 16 + buf[0] - lane;
        group.barrier(0, sumReducer);
        char text[32];
        std::snprintf(text, sizeof(text), "%f", 1.5 + lane);
        printed[static_cast<size_t>(lane)] = text;
    });
    for (size_t l = 0; l < lanes.size(); ++l) {
        EXPECT_EQ(misalign[l], 0u) << "lane " << l;
        EXPECT_EQ(printed[l], std::to_string(1.5 + static_cast<double>(l)))
            << "lane " << l;
    }
}

uint64_t
mix6(uint64_t a, uint64_t b, uint64_t c, uint64_t d, uint64_t e, uint64_t f)
{
    return ((((a * 31 + b) * 31 + c) * 31 + d) * 31 + e) * 31 + f;
}

/**
 * Throw and catch a SimFault when the lane is odd, then rendezvous
 * with six lane-dependent values live across the barrier: one per
 * callee-saved register. @return mix6 of them after the barrier.
 */
[[gnu::noinline]] uint64_t
throwThenRendezvous(FiberGroup &group, int lane, const uint64_t *seed,
                    int &caught)
{
    const uint64_t a = seed[0], b = seed[1], c = seed[2], d = seed[3],
                   e = seed[4], f = seed[5];
    try {
        if (lane % 2 == 1)
            throw simt::SimFault{simt::Outcome::MemFault,
                                 "lane " + std::to_string(lane)};
    } catch (const simt::SimFault &fault) {
        EXPECT_EQ(fault.message, "lane " + std::to_string(lane));
        ++caught;
    }
    static const FiberGroup::Reducer reducer = sumReducer;
    const uint64_t sum = group.barrier(static_cast<uint64_t>(lane), reducer);
    return mix6(a, b, c, d, e, f) + sum;
}

TEST(Fiber, ExceptionCaughtInsideLane)
{
    FiberGroup group;
    std::vector<int> lanes{0, 1, 2, 3, 4};
    for (uint64_t iter = 0; iter < 3; ++iter) {
        std::vector<std::array<uint64_t, 6>> seeds(lanes.size());
        for (size_t l = 0; l < seeds.size(); ++l)
            for (size_t k = 0; k < 6; ++k)
                seeds[l][k] = (l + 1) * 0x9e3779b97f4a7c15ull + k * 977 + iter;
        std::vector<uint64_t> got(lanes.size(), 0);
        std::vector<int> caught(lanes.size(), 0);
        group.run(lanes, [&](int lane) {
            const auto l = static_cast<size_t>(lane);
            got[l] = throwThenRendezvous(group, lane, seeds[l].data(),
                                         caught[l]);
        });
        for (size_t l = 0; l < lanes.size(); ++l) {
            const auto &v = seeds[l];
            EXPECT_EQ(caught[l], l % 2 == 1 ? 1 : 0) << "lane " << l;
            // The barrier sums lanes 0..4.
            EXPECT_EQ(got[l], mix6(v[0], v[1], v[2], v[3], v[4], v[5]) + 10)
                << "lane " << l;
        }
    }
}

TEST(Table, AlignsAndCounts)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "22"});
    EXPECT_EQ(t.numRows(), 2u);
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("long-name"), std::string::npos);
    EXPECT_NE(s.find("value"), std::string::npos);
    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_NE(csv.str().find("a,1"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtCount(3660000.0), "3.66 M");
    EXPECT_EQ(fmtCount(149680.0), "149.68 K");
    EXPECT_EQ(fmtCount(42.0), "42");
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtPercent(1, 8), "12.5");
    EXPECT_EQ(fmtPercent(0, 0), "0.0");
}

} // namespace
