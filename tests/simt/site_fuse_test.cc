/**
 * @file
 * Compiled instrumentation sites: frame-template unit tests.
 *
 * These pin the template compiler to its contract: every
 * instrumented site's bundle is recognized, the template's GPR spill
 * set matches both the SASSI pass's recorded spillMask and an
 * independent liveness.cc computation at the site's original PC, and
 * the identity marking (fills that merely reload what the prologue
 * spilled) is exact. That fused sites then behave like the fiber
 * path is checked by the plane-differential suite
 * (plane_diff_test.cc).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/sassi.h"
#include "handlers/instr_counter.h"
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

/**
 * A kernel with varied live sets across its sites: a loop-carried
 * ALU chain, a divergent diamond (live predicates), a carry-chain
 * address computation (live CC at the dependent IADD.X), and global
 * memory traffic. Takes one u32 buffer argument.
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

TEST(SiteFuseTemplate, IdleStoresKeepOnlyReadBackSlots)
{
    // An idle visit (no handler body) keeps the persistent spill
    // slots and the slots its epilogue reads back. In the pass's
    // layout the only such frame slot is the CC spill. The epilogue
    // reloads the R3 scratch from it, which is R3's final value
    // unless the site spilled R3 and fills it afterwards; and after
    // a 64-bit address recompute the slot holds the carry that the
    // CC restore takes. Nothing of the parameter block is kept.
    // The naive mode spills R3 at every site; the others never do
    // here, as the kernel does not use R3.
    enum class Spills { Frame, Persistent, Naive };
    for (Spills mode : {Spills::Frame, Spills::Persistent, Spills::Naive}) {
        SCOPED_TRACE(static_cast<int>(mode));
        core::InstrumentOptions opts = handlers::InstrCounter::options();
        opts.elideRedundantSpills = mode == Spills::Persistent;
        opts.naiveSpillAll = mode == Spills::Naive;
        FusedEnv env = makeFusedEnv(opts);
        ASSERT_FALSE(env.runs.empty());
        size_t kept_cc = 0;
        for (const SiteRun &run : env.runs) {
            SCOPED_TRACE("site " + std::to_string(run.siteKey));
            const core::SiteInfo &site = env.rt->site(run.siteKey);
            const bool cc_read_back =
                !((site.spillMask >> 3) & 1u) || run.addrPair;
            std::vector<const SiteStore *> expect;
            uint64_t spill_bytes = 0;
            for (const SiteStore &st : run.stores) {
                const bool cc_slot =
                    !st.abs && st.off == static_cast<uint32_t>(
                                             core::frame::CCSpill);
                if (st.abs || (cc_slot && cc_read_back)) {
                    expect.push_back(&st);
                    spill_bytes += st.spill ? 4 : 0;
                }
            }
            ASSERT_EQ(run.idleStores.size(), expect.size());
            for (size_t i = 0; i < expect.size(); ++i) {
                EXPECT_EQ(run.idleStores[i].abs, expect[i]->abs);
                EXPECT_EQ(run.idleStores[i].off, expect[i]->off);
                EXPECT_TRUE(run.idleStores[i].kind == expect[i]->kind);
                kept_cc += !expect[i]->abs;
            }
            EXPECT_EQ(run.idleSpillBytes, spill_bytes);
        }
        EXPECT_GT(kept_cc, 0u);
    }
}

} // namespace
