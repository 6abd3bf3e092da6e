#include "core/intrinsics.h"

#include <cstring>

#include "core/runtime.h"
#include "util/logging.h"

namespace sassi::cuda {

namespace {

core::DispatchState *
dispatch()
{
    core::DispatchState *ds = core::currentDispatch();
    panic_if(!ds, "CUDA intrinsic called outside a SASSI handler");
    return ds;
}

/**
 * Bounds-checked host pointer to device global memory. A bad address
 * is a memory fault of the launch, as it would be on the GPU, where
 * the handler runs as part of the kernel.
 */
uint8_t *
devPtr(uint64_t addr, size_t n)
{
    uint8_t *p = dispatch()->exec->device().globalPtr(addr, n);
    if (!p) {
        throw simt::SimFault{
            simt::Outcome::MemFault,
            detail::strFormat("handler accessed invalid device address "
                              "0x%llx",
                              static_cast<unsigned long long>(addr))};
    }
    return p;
}

template <typename T>
T
load(uint64_t addr)
{
    T v;
    std::memcpy(&v, devPtr(addr, sizeof(T)), sizeof(T));
    return v;
}

template <typename T>
void
store(uint64_t addr, T v)
{
    std::memcpy(devPtr(addr, sizeof(T)), &v, sizeof(T));
}

/**
 * Aligned pointer to a device word for atomic access, or nullptr
 * when the address is misaligned. Parallel CTA workers race on
 * device counters exactly like CTAs race on a real GPU, so every
 * handler atomic must be a genuine atomic RMW; a misaligned word
 * has no atomic access path on any target and falls back to the
 * plain load/store pair.
 */
template <typename T>
T *
devWord(uint64_t addr)
{
    uint8_t *p = devPtr(addr, sizeof(T));
    if ((reinterpret_cast<uintptr_t>(p) & (sizeof(T) - 1)) != 0)
        return nullptr;
    return reinterpret_cast<T *>(p);
}

/** Run a warp-wide rendezvous publishing value; returns own result. */
uint64_t
rendezvous(uint64_t value, const FiberGroup::Reducer &reducer)
{
    core::DispatchState *ds = dispatch();
    panic_if(!ds->fibers || !ds->fibers->inFiber(),
             "warp intrinsic outside fiber execution (a handler "
             "marked reentrantSafe must not rendezvous; use its "
             "warpFn body instead)");
    return ds->fibers->barrier(value, reducer);
}

} // namespace

uint32_t
ballot(int pred)
{
    uint64_t r = rendezvous(pred ? 1 : 0,
        [](const std::vector<uint64_t> &vals, const std::vector<int> &lanes,
           std::vector<uint64_t> &results) {
            uint32_t mask = 0;
            for (size_t i = 0; i < vals.size(); ++i) {
                if (vals[i])
                    mask |= 1u << lanes[i];
            }
            for (auto &res : results)
                res = mask;
        });
    return static_cast<uint32_t>(r);
}

int
all(int pred)
{
    uint64_t r = rendezvous(pred ? 1 : 0,
        [](const std::vector<uint64_t> &vals, const std::vector<int> &,
           std::vector<uint64_t> &results) {
            uint64_t every = 1;
            for (uint64_t v : vals)
                every &= v;
            for (auto &res : results)
                res = every;
        });
    return static_cast<int>(r);
}

int
any(int pred)
{
    uint64_t r = rendezvous(pred ? 1 : 0,
        [](const std::vector<uint64_t> &vals, const std::vector<int> &,
           std::vector<uint64_t> &results) {
            uint64_t some = 0;
            for (uint64_t v : vals)
                some |= v;
            for (auto &res : results)
                res = some;
        });
    return static_cast<int>(r);
}

uint32_t
shfl(uint32_t var, int src_lane)
{
    // Publish (value, requested source lane); every lane receives
    // the value of its requested lane, or its own when the source
    // did not participate.
    uint64_t packed = var |
        (static_cast<uint64_t>(static_cast<uint32_t>(src_lane)) << 32);
    uint64_t r = rendezvous(packed,
        [](const std::vector<uint64_t> &vals, const std::vector<int> &lanes,
           std::vector<uint64_t> &results) {
            for (size_t i = 0; i < vals.size(); ++i) {
                int want = static_cast<int32_t>(vals[i] >> 32);
                uint32_t own = static_cast<uint32_t>(vals[i]);
                uint32_t out = own;
                for (size_t j = 0; j < lanes.size(); ++j) {
                    if (lanes[j] == want) {
                        out = static_cast<uint32_t>(vals[j]);
                        break;
                    }
                }
                results[i] = out;
            }
        });
    return static_cast<uint32_t>(r);
}

float
shflF(float var, int src_lane)
{
    uint32_t bits;
    std::memcpy(&bits, &var, 4);
    uint32_t out = shfl(bits, src_lane);
    float f;
    std::memcpy(&f, &out, 4);
    return f;
}

uint32_t
atomicAdd32(uint64_t addr, uint32_t v)
{
    if (auto *w = devWord<uint32_t>(addr))
        return __atomic_fetch_add(w, v, __ATOMIC_RELAXED);
    uint32_t old = load<uint32_t>(addr);
    store<uint32_t>(addr, old + v);
    return old;
}

uint64_t
atomicAdd64(uint64_t addr, uint64_t v)
{
    if (auto *w = devWord<uint64_t>(addr))
        return __atomic_fetch_add(w, v, __ATOMIC_RELAXED);
    uint64_t old = load<uint64_t>(addr);
    store<uint64_t>(addr, old + v);
    return old;
}

void
countAdd64(uint64_t addr, uint64_t v)
{
    // Validate eagerly so a bad counter address faults at the
    // handler site, exactly where atomicAdd64 would have; only the
    // visibility of the add is deferred.
    devPtr(addr, 8);
    dispatch()->exec->counterShard().add(addr, v);
}

uint32_t
atomicAnd32(uint64_t addr, uint32_t v)
{
    if (auto *w = devWord<uint32_t>(addr))
        return __atomic_fetch_and(w, v, __ATOMIC_RELAXED);
    uint32_t old = load<uint32_t>(addr);
    store<uint32_t>(addr, old & v);
    return old;
}

uint64_t
atomicAnd64(uint64_t addr, uint64_t v)
{
    if (auto *w = devWord<uint64_t>(addr))
        return __atomic_fetch_and(w, v, __ATOMIC_RELAXED);
    uint64_t old = load<uint64_t>(addr);
    store<uint64_t>(addr, old & v);
    return old;
}

uint32_t
atomicOr32(uint64_t addr, uint32_t v)
{
    if (auto *w = devWord<uint32_t>(addr))
        return __atomic_fetch_or(w, v, __ATOMIC_RELAXED);
    uint32_t old = load<uint32_t>(addr);
    store<uint32_t>(addr, old | v);
    return old;
}

uint64_t
atomicOr64(uint64_t addr, uint64_t v)
{
    if (auto *w = devWord<uint64_t>(addr))
        return __atomic_fetch_or(w, v, __ATOMIC_RELAXED);
    uint64_t old = load<uint64_t>(addr);
    store<uint64_t>(addr, old | v);
    return old;
}

uint32_t
atomicMax32(uint64_t addr, uint32_t v)
{
    if (auto *w = devWord<uint32_t>(addr)) {
        uint32_t old = __atomic_load_n(w, __ATOMIC_RELAXED);
        while (v > old &&
               !__atomic_compare_exchange_n(w, &old, v, false,
                                            __ATOMIC_RELAXED,
                                            __ATOMIC_RELAXED)) {
        }
        return old;
    }
    uint32_t old = load<uint32_t>(addr);
    store<uint32_t>(addr, std::max(old, v));
    return old;
}

uint32_t
atomicCAS32(uint64_t addr, uint32_t compare, uint32_t v)
{
    if (auto *w = devWord<uint32_t>(addr)) {
        uint32_t expected = compare;
        __atomic_compare_exchange_n(w, &expected, v, false,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED);
        return expected;
    }
    uint32_t old = load<uint32_t>(addr);
    if (old == compare)
        store<uint32_t>(addr, v);
    return old;
}

uint64_t
atomicCAS64(uint64_t addr, uint64_t compare, uint64_t v)
{
    if (auto *w = devWord<uint64_t>(addr)) {
        uint64_t expected = compare;
        __atomic_compare_exchange_n(w, &expected, v, false,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED);
        return expected;
    }
    uint64_t old = load<uint64_t>(addr);
    if (old == compare)
        store<uint64_t>(addr, v);
    return old;
}

uint32_t
atomicExch32(uint64_t addr, uint32_t v)
{
    if (auto *w = devWord<uint32_t>(addr))
        return __atomic_exchange_n(w, v, __ATOMIC_RELAXED);
    uint32_t old = load<uint32_t>(addr);
    store<uint32_t>(addr, v);
    return old;
}

uint32_t
devLoad32(uint64_t addr)
{
    if (auto *w = devWord<uint32_t>(addr))
        return __atomic_load_n(w, __ATOMIC_RELAXED);
    return load<uint32_t>(addr);
}

uint64_t
devLoad64(uint64_t addr)
{
    if (auto *w = devWord<uint64_t>(addr))
        return __atomic_load_n(w, __ATOMIC_RELAXED);
    return load<uint64_t>(addr);
}

void
devStore32(uint64_t addr, uint32_t v)
{
    if (auto *w = devWord<uint32_t>(addr)) {
        __atomic_store_n(w, v, __ATOMIC_RELAXED);
        return;
    }
    store<uint32_t>(addr, v);
}

void
devStore64(uint64_t addr, uint64_t v)
{
    if (auto *w = devWord<uint64_t>(addr)) {
        __atomic_store_n(w, v, __ATOMIC_RELAXED);
        return;
    }
    store<uint64_t>(addr, v);
}

bool
isGlobal(int64_t addr)
{
    return dispatch()->exec->device().isGlobal(
        static_cast<uint64_t>(addr));
}

} // namespace sassi::cuda
