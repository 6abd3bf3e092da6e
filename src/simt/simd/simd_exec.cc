#include "simt/simd/simd_exec.h"

#if defined(SASSI_SIMD_AVX2)
#include "simt/alu_ops.h"
#include "simt/simd/simd_vec.h"
#endif

namespace sassi::simt::simd {

bool
cpuHasAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

#if !defined(SASSI_SIMD_AVX2)

// Host compiler can't target AVX2: every op stays on the scalar
// tier. (Distinct from a build that *can* target it running on a
// machine that lacks it — that case is handled at launch time by
// cpuHasAvx2().)
AluFn
vectorAluFn(const sass::Instruction &)
{
    return nullptr;
}

#else // SASSI_SIMD_AVX2

namespace {

using sass::RegId;
using sass::RZ;

/**
 * Cursor over chunk c (lanes 8c..8c+7) of a warp operand. Full when
 * exec covers every lane (the common case inside a converged
 * superblock): stores are then plain, otherwise masked. Chunks of one
 * register span never overlap, so a destination aliasing a source is
 * safe.
 */
template <bool Full>
struct Chunk
{
    Warp &warp;
    int c;
    uint32_t exec;

    u32x8
    ld(RegId r) const
    {
        return r == RZ ? u32x8::zero()
                       : u32x8::load(warp.laneSpan(r) + 8 * c);
    }

    void
    st(RegId r, u32x8 v) const
    {
        if constexpr (Full)
            v.store(warp.laneSpan(r) + 8 * c);
        else
            v.maskstore(warp.laneSpan(r) + 8 * c, chunkMask(exec, c));
    }

    static u32x8 imm(uint32_t v) { return u32x8::splat(v); }
    uint32_t bits(u32x8 m) const { return m.bitmask() << (8 * c); }

    u32x8
    pick(uint32_t lanes, u32x8 a, u32x8 b) const
    {
        return u32x8::blend(chunkMask(lanes, c), a, b);
    }
};

/** The eight-lane pack: four AVX2 chunks per 32-lane warp operand. */
struct Lanes8
{
    static constexpr bool Wide = true;

    template <typename Body>
    static void
    each(Warp &warp, uint32_t exec, Body &&body)
    {
        if (exec == ~0u) {
            for (int c = 0; c < WarpSize / 8; ++c)
                body(Chunk<true>{warp, c, exec});
        } else {
            for (int c = 0; c < WarpSize / 8; ++c)
                body(Chunk<false>{warp, c, exec});
        }
    }
};

} // namespace

AluFn
vectorAluFn(const sass::Instruction &ins)
{
    return selectAluFn<Lanes8>(ins);
}

#endif // SASSI_SIMD_AVX2

} // namespace sassi::simt::simd
