/**
 * @file
 * User-error paths follow the gem5 convention: fatal() (exit 1) for
 * user mistakes, with a diagnostic on stderr. These death tests pin
 * the contract for the API surface a downstream user hits first.
 */

#include <gtest/gtest.h>

#include "sassir/builder.h"
#include "sassir/parser.h"
#include "simt/device.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using sassi::ir::KernelBuilder;

namespace {

ir::Module
trivialModule()
{
    KernelBuilder kb("k");
    kb.exit();
    ir::Module mod;
    mod.kernels.push_back(kb.finish());
    return mod;
}

TEST(Errors, LaunchOfUnknownKernelIsFatal)
{
    Device dev;
    dev.loadModule(trivialModule());
    EXPECT_EXIT(dev.launch("nope", Dim3(1), Dim3(32), KernelArgs()),
                ::testing::ExitedWithCode(1), "unknown kernel");
}

TEST(Errors, OversizedBlockIsFatal)
{
    Device dev;
    dev.loadModule(trivialModule());
    EXPECT_EXIT(dev.launch("k", Dim3(1), Dim3(2048), KernelArgs()),
                ::testing::ExitedWithCode(1), "invalid block size");
}

TEST(Errors, HostCopyOutOfBoundsIsFatal)
{
    Device dev;
    uint64_t p = dev.malloc(16);
    uint8_t buf[64];
    EXPECT_EXIT(dev.memcpyDtoH(buf, p, 64),
                ::testing::ExitedWithCode(1), "out of bounds");
}

TEST(Errors, ParserRejectsUnknownOpcode)
{
    EXPECT_EXIT(ir::parseAssembly(".kernel k\n    FROB R1, R2, R3\n"),
                ::testing::ExitedWithCode(1), "unknown opcode");
}

TEST(Errors, ParserRejectsUndefinedLabel)
{
    EXPECT_EXIT(ir::parseAssembly(".kernel k\n    BRA nowhere\n"),
                ::testing::ExitedWithCode(1), "undefined label");
}

TEST(Errors, ParserRejectsBadOperandArity)
{
    EXPECT_EXIT(ir::parseAssembly(".kernel k\n    IADD R1, R2\n"),
                ::testing::ExitedWithCode(1), "expects");
}

TEST(Errors, ParserRejectsRegisterBeyondDeclaredBudget)
{
    EXPECT_EXIT(ir::parseAssembly(".kernel k\n.regs 18\n"
                                  "    MOV R30, R1\n    EXIT\n"),
                ::testing::ExitedWithCode(1), "R30 beyond .regs 18");
}

TEST(Errors, AluRegisterOutOfBudgetPanics)
{
    // Only a hand-built kernel can name a register beyond its budget
    // (the parser rejects one); the op has no exec function and the
    // generic path reports the invariant violation.
    KernelBuilder kb("k");
    kb.mov(30, 4);
    kb.exit();
    ir::Kernel k = kb.finish();
    k.numRegs = 18;
    ir::Module mod;
    mod.kernels.push_back(std::move(k));
    Device dev;
    dev.loadModule(std::move(mod));
    EXPECT_DEATH(dev.launch("k", Dim3(1), Dim3(32), KernelArgs()),
                 "register R30 out of budget 18");
}

TEST(Errors, UnboundBuilderLabelPanics)
{
    EXPECT_DEATH(
        {
            KernelBuilder kb("k");
            auto l = kb.newLabel();
            kb.bra(l);
            kb.finish();
        },
        "unbound label");
}

} // namespace
