/**
 * @file
 * Thin typed wrapper over AVX2 256-bit vectors for the SIMD
 * interpreter tier (simdjson's haswell/simd.h idiom: a value type
 * around __m256i with the handful of operations the exec functions
 * need).
 *
 * The value primitives match the scalar lane pack's
 * (simt/alu_ops.h), so one op body instantiates on either. A warp is
 * 32 lanes; one u32x8 covers 8 of them, so every warp operand is 4
 * chunks. The register file is register-major (simt/warp.h), so
 * chunk c of register r is a plain unaligned load from
 * laneSpan(r) + 8 * c. Predicates and the exec mask are 32-bit
 * lane bitmasks; chunkMask() expands 8 of those bits into a lane
 * mask vector for blends and masked stores, and u32x8::bitmask()
 * compresses a compare result back into 8 bits.
 *
 * Only compiled into simd_exec.cc and site_frame.cc, the -mavx2
 * translation units; everything here is header-only and inline.
 */

#ifndef SASSI_SIMT_SIMD_SIMD_VEC_H
#define SASSI_SIMT_SIMD_SIMD_VEC_H

#if defined(SASSI_SIMD_AVX2)

#include <cstdint>
#include <immintrin.h>

namespace sassi::simt::simd {

/** Eight 32-bit lanes of a warp operand. */
struct u32x8
{
    __m256i raw;

    static u32x8
    load(const uint32_t *p)
    {
        return {_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p))};
    }

    static u32x8
    splat(uint32_t v)
    {
        return {_mm256_set1_epi32(static_cast<int>(v))};
    }

    static u32x8 zero() { return {_mm256_setzero_si256()}; }

    void
    store(uint32_t *p) const
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), raw);
    }

    /** Store only the lanes whose mask element has its sign bit set. */
    void
    maskstore(uint32_t *p, u32x8 lane_mask) const
    {
        _mm256_maskstore_epi32(reinterpret_cast<int *>(p),
                               lane_mask.raw, raw);
    }

    /** Sign bit of each lane, compressed to 8 bits (compare results). */
    uint32_t
    bitmask() const
    {
        return static_cast<uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(raw)));
    }

    /** Lane-wise select: mask sign bit set -> a, clear -> b. */
    static u32x8
    blend(u32x8 lane_mask, u32x8 a, u32x8 b)
    {
        return {_mm256_blendv_epi8(b.raw, a.raw, lane_mask.raw)};
    }

    friend u32x8
    operator+(u32x8 a, u32x8 b)
    {
        return {_mm256_add_epi32(a.raw, b.raw)};
    }

    /** Low 32 bits of the per-lane products (uint32 wrap multiply). */
    friend u32x8
    operator*(u32x8 a, u32x8 b)
    {
        return {_mm256_mullo_epi32(a.raw, b.raw)};
    }

    friend u32x8
    operator&(u32x8 a, u32x8 b)
    {
        return {_mm256_and_si256(a.raw, b.raw)};
    }

    friend u32x8
    operator|(u32x8 a, u32x8 b)
    {
        return {_mm256_or_si256(a.raw, b.raw)};
    }

    friend u32x8
    operator^(u32x8 a, u32x8 b)
    {
        return {_mm256_xor_si256(a.raw, b.raw)};
    }

    friend u32x8
    minS(u32x8 a, u32x8 b)
    {
        return {_mm256_min_epi32(a.raw, b.raw)};
    }

    friend u32x8
    maxS(u32x8 a, u32x8 b)
    {
        return {_mm256_max_epi32(a.raw, b.raw)};
    }

    /*
     * Per-lane shifts with variable counts. The v*v intrinsics
     * already clamp the way SASS does (and the scalar primitives
     * spell out): logical shifts by 32 or more produce 0, and the
     * arithmetic shift sign-fills for any count over 31.
     */

    friend u32x8
    shl(u32x8 a, u32x8 n)
    {
        return {_mm256_sllv_epi32(a.raw, n.raw)};
    }

    friend u32x8
    shrU(u32x8 a, u32x8 n)
    {
        return {_mm256_srlv_epi32(a.raw, n.raw)};
    }

    friend u32x8
    shrS(u32x8 a, u32x8 n)
    {
        return {_mm256_srav_epi32(a.raw, n.raw)};
    }

    /** All-ones lanes where a == b. */
    friend u32x8
    cmpeq(u32x8 a, u32x8 b)
    {
        return {_mm256_cmpeq_epi32(a.raw, b.raw)};
    }

    /** All-ones lanes where a > b, signed. */
    friend u32x8
    cmpgtS(u32x8 a, u32x8 b)
    {
        return {_mm256_cmpgt_epi32(a.raw, b.raw)};
    }
};

/** Eight lanes viewed as IEEE-754 single floats. */
struct f32x8
{
    __m256 raw;

    friend f32x8
    operator+(f32x8 a, f32x8 b)
    {
        return {_mm256_add_ps(a.raw, b.raw)};
    }

    friend f32x8
    operator*(f32x8 a, f32x8 b)
    {
        return {_mm256_mul_ps(a.raw, b.raw)};
    }

    /*
     * Compare masks (all-ones lanes where true), ordered and quiet
     * like the C++ operators: false when either side is NaN.
     */

    friend u32x8
    flt(f32x8 a, f32x8 b)
    {
        return {_mm256_castps_si256(
            _mm256_cmp_ps(a.raw, b.raw, _CMP_LT_OQ))};
    }

    friend u32x8
    fle(f32x8 a, f32x8 b)
    {
        return {_mm256_castps_si256(
            _mm256_cmp_ps(a.raw, b.raw, _CMP_LE_OQ))};
    }

    friend u32x8
    feq(f32x8 a, f32x8 b)
    {
        return {_mm256_castps_si256(
            _mm256_cmp_ps(a.raw, b.raw, _CMP_EQ_OQ))};
    }
};

inline f32x8
asFloat(u32x8 v)
{
    return {_mm256_castsi256_ps(v.raw)};
}

inline u32x8
asBits(f32x8 f)
{
    return {_mm256_castps_si256(f.raw)};
}

/** int32 lanes -> float lanes, round-to-nearest-even (I2F). */
inline f32x8
i2f(u32x8 v)
{
    return {_mm256_cvtepi32_ps(v.raw)};
}

/**
 * Expand bits [8c, 8c+8) of a 32-lane bitmask into a lane mask
 * vector (all-ones where the bit is set) for blends / maskstore.
 */
inline u32x8
chunkMask(uint32_t lane_bits, int c)
{
    const __m256i sel =
        _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    __m256i byte = _mm256_set1_epi32(
        static_cast<int>((lane_bits >> (8 * c)) & 0xff));
    return {_mm256_cmpeq_epi32(_mm256_and_si256(byte, sel), sel)};
}

} // namespace sassi::simt::simd

#endif // SASSI_SIMD_AVX2

#endif // SASSI_SIMT_SIMD_SIMD_VEC_H
