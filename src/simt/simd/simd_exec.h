/**
 * @file
 * The lane-vectorized tier of the ALU micro-op exec functions.
 *
 * The scalar tier runs each ALU uop with a loop over the set lanes of
 * exec; this tier runs the same uop for all 32 lanes at once with
 * AVX2, four 256-bit chunks per operand over the register-major
 * register file, predicates and the exec mask as 32-bit lane
 * bitmasks (simd/simd_vec.h). Both tiers are instantiations of the
 * same op bodies (simt/alu_ops.h): vectorAluFn() is selectAluFn over
 * the eight-lane pack, null for ops that stay on the scalar tier.
 *
 * The implementation file is, with site_frame.cc, the only
 * translation unit compiled with -mavx2 (gated by the
 * SASSI_SIMD_AVX2 configure check); on hosts without that flag this
 * header still compiles and vectorAluFn() returns null for
 * everything. Whether vector functions are *called* is a launch-time
 * decision (LaunchOptions::simd and cpuHasAvx2(), in the executor),
 * so a binary built with AVX2 still runs on machines without it.
 */

#ifndef SASSI_SIMT_SIMD_SIMD_EXEC_H
#define SASSI_SIMT_SIMD_SIMD_EXEC_H

#include "simt/decode.h"

namespace sassi::simt::simd {

/** @return whether this machine can execute the AVX2 tier. */
bool cpuHasAvx2();

/**
 * Select the lane-vectorized exec function for an ALU-class
 * instruction, or null when the op executes on the scalar tier.
 * Only called for instructions with a scalar exec function, so
 * operand registers are already proven inside the kernel's budget.
 */
AluFn vectorAluFn(const sass::Instruction &ins);

} // namespace sassi::simt::simd

#endif // SASSI_SIMT_SIMD_SIMD_EXEC_H
