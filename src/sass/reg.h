/**
 * @file
 * Register-file conventions of the SASS-like ISA.
 *
 * Mirrors the structure SASSI depends on in NVIDIA's native ISA:
 * 32-bit general-purpose registers R0..R254 with RZ reading as zero,
 * seven predicate registers P0..P6 with PT reading as true, and a
 * carry/condition flag written by IADD.CC and consumed by IADD.X.
 * 64-bit quantities (notably addresses) live in aligned register
 * pairs (Rn holds the low word, Rn+1 the high word).
 */

#ifndef SASSI_SASS_REG_H
#define SASSI_SASS_REG_H

#include <cstdint>

namespace sassi::sass {

/** Index of a general-purpose register. */
using RegId = uint8_t;

/** The zero register: reads as 0, writes are discarded. */
constexpr RegId RZ = 255;

/** Index of a predicate register. */
using PredId = uint8_t;

/** The true predicate: reads as 1, writes are discarded. */
constexpr PredId PT = 7;

/** Number of writable predicate registers (P0..P6). */
constexpr int NumPred = 7;

/** SIMT warp width, fixed at 32 like every NVIDIA architecture. */
constexpr int WarpSize = 32;

/** Calling convention constants for the on-device ABI (see paper §2.2).
 *
 * SASSI builds ABI-compliant calls: R1 is the stack pointer, the
 * first 64-bit pointer argument travels in R4:R5, the second in
 * R6:R7, and the callee may clobber R0..R15 except R1. Handlers are
 * compiled with -maxrregcount=16, the ABI minimum (paper §3.2).
 */
namespace abi {

/** Stack-pointer register. */
constexpr RegId StackPtr = 1;

/** First pointer argument (low word); high word is Arg0Lo+1. */
constexpr RegId Arg0Lo = 4;

/** Second pointer argument (low word); high word is Arg1Lo+1. */
constexpr RegId Arg1Lo = 6;

} // namespace abi

} // namespace sassi::sass

#endif // SASSI_SASS_REG_H
