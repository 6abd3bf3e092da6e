/**
 * @file
 * Small bit-manipulation helpers shared by the ISA, the simulator,
 * and the handler runtime. These mirror the CUDA intrinsics the
 * paper's handlers rely on (__popc, __ffs).
 */

#ifndef SASSI_UTIL_BITOPS_H
#define SASSI_UTIL_BITOPS_H

#include <bit>
#include <cstdint>

namespace sassi {

/** Population count, i.e.\ CUDA's __popc. */
inline int
popc(uint32_t x)
{
    return std::popcount(x);
}

/**
 * Find-first-set, i.e.\ CUDA's __ffs: 1-based index of the least
 * significant set bit, or 0 when no bit is set.
 */
inline int
ffs(uint32_t x)
{
    return x == 0 ? 0 : std::countr_zero(x) + 1;
}

/** Extract bits [lo, lo+len) of a word. */
inline uint32_t
bits(uint32_t word, int lo, int len)
{
    if (len >= 32)
        return word >> lo;
    return (word >> lo) & ((1u << len) - 1);
}

/** Build a 64-bit value from two 32-bit halves. */
inline uint64_t
makeU64(uint32_t lo, uint32_t hi)
{
    return (static_cast<uint64_t>(hi) << 32) | lo;
}

/** Low 32 bits of a 64-bit value. */
inline uint32_t
lo32(uint64_t v)
{
    return static_cast<uint32_t>(v);
}

/** High 32 bits of a 64-bit value. */
inline uint32_t
hi32(uint64_t v)
{
    return static_cast<uint32_t>(v >> 32);
}

} // namespace sassi

#endif // SASSI_UTIL_BITOPS_H
