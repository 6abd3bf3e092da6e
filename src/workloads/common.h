/**
 * @file
 * Shared helpers for authoring workloads: host-side buffer staging
 * and recurring code-generation idioms (global thread id, pointer
 * arithmetic on 64-bit register pairs).
 *
 * Register conventions used across the workload kernels: R1 is the
 * ABI stack pointer and is never touched; pointer pairs start at
 * even registers >= 4.
 */

#ifndef SASSI_WORKLOADS_COMMON_H
#define SASSI_WORKLOADS_COMMON_H

#include <vector>

#include "sassir/builder.h"
#include "simt/device.h"

namespace sassi::workloads {

/** Upload a host vector; @return its device address. */
template <typename T>
uint64_t
upload(simt::Device &dev, const std::vector<T> &host)
{
    uint64_t addr = dev.malloc(host.size() * sizeof(T) + 4);
    if (!host.empty())
        dev.memcpyHtoD(addr, host.data(), host.size() * sizeof(T));
    return addr;
}

/** Download count elements from a device address. */
template <typename T>
std::vector<T>
download(const simt::Device &dev, uint64_t addr, size_t count)
{
    std::vector<T> out(count);
    if (count)
        dev.memcpyDtoH(out.data(), addr, count * sizeof(T));
    return out;
}

namespace gen {

using sass::RegId;
using ir::KernelBuilder;

/**
 * Emit: d = global 1D thread id (ctaid.x * ntid.x + tid.x).
 * Clobbers s1 and s2.
 */
inline void
gid1D(KernelBuilder &kb, RegId d, RegId s1, RegId s2)
{
    kb.s2r(d, sass::SpecialReg::TidX);
    kb.s2r(s1, sass::SpecialReg::CtaIdX);
    kb.s2r(s2, sass::SpecialReg::NTidX);
    kb.imad(d, s1, s2, d);
}

/**
 * Emit: dst_pair = *(u64 param at param_off) + (idx << shift).
 * dst_pair must not overlap idx.
 */
inline void
ptrPlusIdx(KernelBuilder &kb, RegId dst_pair, int64_t param_off,
           RegId idx, int shift, RegId scratch)
{
    kb.ldc(dst_pair, param_off, 8);
    if (shift > 0)
        kb.shl(scratch, idx, shift);
    else
        kb.mov(scratch, idx);
    kb.iaddcc(dst_pair, dst_pair, scratch);
    kb.iaddx(static_cast<RegId>(dst_pair + 1),
             static_cast<RegId>(dst_pair + 1), sass::RZ);
}

} // namespace gen

} // namespace sassi::workloads

#endif // SASSI_WORKLOADS_COMMON_H
