/**
 * @file
 * Unit tests for the micro-op compiler (simt/decode.h): superblock
 * formation respects basic-block leaders, predication, and the
 * fast-path eligibility rules.
 */

#include <gtest/gtest.h>

#include "sassir/builder.h"
#include "simt/decode.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using sassi::ir::KernelBuilder;
using sassi::ir::Label;

namespace {

/** mov; iadd; imul; lop; exit — one maximal straight-line run. */
ir::Kernel
straightKernel()
{
    KernelBuilder kb("straight");
    kb.mov32i(4, 7);
    kb.iadd(5, 4, 4);
    kb.imul(6, 5, 4);
    kb.lop(LogicOp::Xor, 7, 6, 5);
    kb.exit();
    return kb.finish();
}

TEST(MicroProgram, StraightLineFormsOneSuperblock)
{
    ir::Kernel k = straightKernel();
    MicroProgram prog(k);
    ASSERT_EQ(prog.size(), k.code.size());

    ASSERT_EQ(prog.superblocks().size(), 1u);
    const Superblock &sb = prog.superblock(1);
    EXPECT_EQ(sb.start, 0u);
    EXPECT_EQ(sb.len, 4u);
    EXPECT_EQ(sb.syntheticInstrs, 0u);
    EXPECT_EQ(prog.superblockInstrs(), 4u);

    // Only the head instruction carries the superblock id.
    EXPECT_EQ(prog.at(0).sb, 1u);
    for (uint32_t pc = 1; pc < 4; ++pc)
        EXPECT_EQ(prog.at(pc).sb, 0u) << "pc " << pc;

    // Pre-aggregated opcode counts cover exactly one pass.
    uint32_t total = 0;
    for (const auto &[op, count] : sb.opcodeCounts)
        total += count;
    EXPECT_EQ(total, sb.len);

    // Every run member has a fast function; EXIT does not.
    for (uint32_t pc = 0; pc < 4; ++pc) {
        EXPECT_EQ(prog.at(pc).cls, ExecClass::Alu);
        EXPECT_EQ(prog.at(pc).guard, GuardKind::AlwaysOn);
        EXPECT_NE(prog.at(pc).alu, nullptr);
    }
    EXPECT_EQ(prog.at(4).cls, ExecClass::Exit);
    EXPECT_EQ(prog.at(4).alu, nullptr);
}

TEST(MicroProgram, BranchTargetLeaderSplitsRun)
{
    // pc0..1 ALU | pc2 (branch target = block leader) pc3..4 ALU |
    // pc5 predicated BRA | pc6 EXIT. Without the leader at pc2 this
    // would be one 5-op run; the CFG boundary must split it.
    KernelBuilder kb("split");
    Label back = kb.newLabel();
    kb.mov32i(4, 1);
    kb.iadd(5, 4, 4);
    kb.bind(back);
    kb.iadd(6, 5, 4);
    kb.iadd(7, 6, 5);
    kb.isetpi(0, CmpOp::LT, 7, 100);
    kb.onP(0).bra(back);
    kb.exit();
    ir::Kernel k = kb.finish();

    MicroProgram prog(k);
    ASSERT_EQ(prog.superblocks().size(), 2u);
    EXPECT_EQ(prog.superblock(1).start, 0u);
    EXPECT_EQ(prog.superblock(1).len, 2u);
    EXPECT_EQ(prog.superblock(2).start, 2u);
    EXPECT_EQ(prog.superblock(2).len, 3u);
    EXPECT_EQ(prog.at(0).sb, 1u);
    EXPECT_EQ(prog.at(2).sb, 2u);

    // The predicated branch is never part of a run.
    EXPECT_EQ(prog.at(5).cls, ExecClass::Bra);
    EXPECT_EQ(prog.at(5).guard, GuardKind::PerLane);
    EXPECT_EQ(prog.at(5).sb, 0u);
}

TEST(MicroProgram, PredicatedOpSplitsRun)
{
    // pc0 mov, pc1 isetp | pc2 @P0 iadd | pc3 iadd, pc4 iadd | exit.
    KernelBuilder kb("pred_split");
    kb.mov32i(4, 3);
    kb.isetpi(0, CmpOp::EQ, 4, 3);
    kb.onP(0).iadd(5, 4, 4);
    kb.iadd(6, 4, 4);
    kb.iadd(7, 6, 4);
    kb.exit();
    ir::Kernel k = kb.finish();

    MicroProgram prog(k);
    EXPECT_EQ(prog.at(2).guard, GuardKind::PerLane);
    ASSERT_EQ(prog.superblocks().size(), 2u);
    EXPECT_EQ(prog.superblock(1).start, 0u);
    EXPECT_EQ(prog.superblock(1).len, 2u);
    EXPECT_EQ(prog.superblock(2).start, 3u);
    EXPECT_EQ(prog.superblock(2).len, 2u);
}

TEST(MicroProgram, SingleOpRunsAreNotFormed)
{
    // One eligible ALU op between non-eligible neighbours: below
    // MinSuperblockLen, so no superblock forms.
    KernelBuilder kb("short");
    kb.mov32i(4, 1);
    kb.bar();
    kb.mov32i(5, 2);
    kb.exit();
    ir::Kernel k = kb.finish();

    MicroProgram prog(k);
    EXPECT_TRUE(prog.superblocks().empty());
    EXPECT_EQ(prog.superblockInstrs(), 0u);
    EXPECT_EQ(prog.at(0).sb, 0u);
    EXPECT_EQ(prog.at(2).sb, 0u);
}

TEST(MicroProgram, ClassificationAndMemFlag)
{
    KernelBuilder kb("classes");
    Label out = kb.newLabel();
    kb.ssy(out);
    kb.mov32i(8, 0x1000);
    kb.ldg(4, 8);
    kb.voteAll(0, 7);
    kb.stg(8, 0, 4);
    kb.sync();
    kb.bind(out);
    kb.exit();
    ir::Kernel k = kb.finish();

    MicroProgram prog(k);
    EXPECT_EQ(prog.at(0).cls, ExecClass::Ssy);
    EXPECT_EQ(prog.at(1).cls, ExecClass::Alu);
    EXPECT_EQ(prog.at(2).cls, ExecClass::Mem);
    EXPECT_TRUE(prog.at(2).countsAsMem);
    EXPECT_EQ(prog.at(3).cls, ExecClass::WarpOp);
    EXPECT_EQ(prog.at(4).cls, ExecClass::Mem);
    EXPECT_TRUE(prog.at(4).countsAsMem);
    EXPECT_EQ(prog.at(5).cls, ExecClass::Sync);
    EXPECT_EQ(prog.at(6).cls, ExecClass::Exit);
    EXPECT_FALSE(prog.at(1).countsAsMem);
}

TEST(MicroProgram, ClockReadHasNoFastPath)
{
    // S2R %clock observes mid-launch statistics, so batching it into
    // a superblock would change its value: it must stay generic.
    KernelBuilder kb("clocked");
    kb.mov32i(4, 1);
    kb.s2r(5, SpecialReg::Clock);
    kb.iadd(6, 4, 4);
    kb.exit();
    ir::Kernel k = kb.finish();

    MicroProgram prog(k);
    EXPECT_EQ(prog.at(1).cls, ExecClass::Alu);
    EXPECT_EQ(prog.at(1).alu, nullptr);
    EXPECT_TRUE(prog.superblocks().empty());

    // A plain S2R, by contrast, is fast-path eligible.
    KernelBuilder kb2("tid");
    kb2.s2r(4, SpecialReg::TidX);
    kb2.iadd(5, 4, 4);
    kb2.exit();
    MicroProgram prog2(kb2.finish());
    EXPECT_NE(prog2.at(0).alu, nullptr);
    ASSERT_EQ(prog2.superblocks().size(), 1u);
    EXPECT_EQ(prog2.superblock(1).len, 2u);
}

TEST(MicroProgram, SpillFillAluOpRunsItsExecFunctionOffSuperblocks)
{
    // A spill/fill-tagged ALU op feeds the spill metrics generic
    // stepping charges, so it splits superblocks; generic step()
    // still runs it through its exec function.
    KernelBuilder kb("spill");
    kb.mov32i(4, 1);
    kb.iadd(5, 4, 4);
    kb.iadd(6, 5, 4);
    kb.iadd(7, 6, 4);
    kb.exit();
    ir::Kernel k = kb.finish();
    k.code[2].spillFill = true;

    MicroProgram prog(k);
    EXPECT_NE(prog.at(2).alu, nullptr);
    ASSERT_EQ(prog.superblocks().size(), 1u);
    EXPECT_EQ(prog.superblock(1).start, 0u);
    EXPECT_EQ(prog.superblock(1).len, 2u);
}

} // namespace
