/**
 * @file
 * Control-flow graph construction over a kernel's instruction list.
 *
 * This is compiler-side information the paper calls out as a key
 * advantage of backend instrumentation over binary rewriting (§9.4,
 * §10.3): SASSI has the CFG and uses it for liveness-driven spills
 * and basic-block-header instrumentation sites.
 */

#ifndef SASSI_SASSIR_CFG_H
#define SASSI_SASSIR_CFG_H

#include <vector>

#include "sassir/module.h"

namespace sassi::ir {

/** A maximal straight-line region of instructions. */
struct BasicBlock
{
    int start = 0;            //!< First instruction index.
    int end = 0;              //!< One past the last instruction index.
    std::vector<int> succs;   //!< Successor block ids.
    std::vector<int> preds;   //!< Predecessor block ids.
};

/** The control-flow graph of one kernel. */
struct Cfg
{
    std::vector<BasicBlock> blocks;

    /** Per-instruction map to the containing block id. */
    std::vector<int> blockOf;
};

/**
 * Build the CFG of a kernel.
 *
 * SYNC reconverges through the divergence stack, whose tokens are
 * pushed by SSY; statically we over-approximate a SYNC's successors
 * as every SSY target in the kernel (sound for liveness). JCALs to
 * instrumentation handlers fall through (calls return).
 */
Cfg buildCfg(const Kernel &kernel);

/**
 * Per-instruction block-leader flags: flag[pc] is nonzero when pc
 * starts a basic block (entry, branch/SSY target, or the fall-
 * through after a block-ending instruction). This is the exact
 * leader set buildCfg() partitions on, exported separately so the
 * interpreter's superblock compiler can bound straight-line runs at
 * every point control flow can enter without materializing a Cfg.
 */
std::vector<uint8_t> blockLeaders(const Kernel &kernel);

} // namespace sassi::ir

#endif // SASSI_SASSIR_CFG_H
