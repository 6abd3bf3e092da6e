/**
 * @file
 * The simulated GPU device and its host-side runtime API.
 *
 * Stands in for the CUDA runtime + a Kepler-class GPU: device
 * memory allocation, host<->device copies, module loading, and
 * kernel launches. Launches are serialized (as the paper notes,
 * CUPTI + cudaMemcpy serialize kernel invocations, which the case
 * studies exploit to avoid counter races).
 */

#ifndef SASSI_SIMT_DEVICE_H
#define SASSI_SIMT_DEVICE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cupti/callbacks.h"
#include "sassir/module.h"
#include "simt/decode.h"
#include "simt/dispatcher.h"
#include "simt/launch.h"

namespace sassi::simt {

/** A simulated GPU: memory, loaded code, and a launch engine. */
class Device
{
  public:
    /** First valid global-memory device address. */
    static constexpr uint64_t GlobalBase = 0x10000000ull;

    /** Base of the generic-address window onto per-thread local
     *  memory (what L2G produces; kept above 4 GB so the high word
     *  of a generic pointer distinguishes the spaces). */
    static constexpr uint64_t LocalWindowBase = 0x100000000ull;

    /** Construct a device with the given heap capacity. */
    explicit Device(size_t heap_bytes = 512ull << 20);

    /// @name Memory API (cudaMalloc / cudaMemcpy / cudaMemset)
    /// @{

    /** Allocate device memory. @return its device address. */
    uint64_t malloc(size_t bytes, size_t align = 256);

    /** Copy host -> device. */
    void memcpyHtoD(uint64_t dst, const void *src, size_t n);

    /** Copy device -> host. */
    void memcpyDtoH(void *dst, uint64_t src, size_t n) const;

    /** Fill device memory. */
    void memset(uint64_t dst, uint8_t value, size_t n);

    /** Typed single-value read from global memory. */
    template <typename T>
    T
    read(uint64_t addr) const
    {
        T v;
        memcpyDtoH(&v, addr, sizeof(T));
        return v;
    }

    /** Typed single-value write to global memory. */
    template <typename T>
    void
    write(uint64_t addr, const T &v)
    {
        memcpyHtoD(addr, &v, sizeof(T));
    }

    /** @return whether addr lies in allocated global memory. */
    bool isGlobal(uint64_t addr) const;

    /**
     * Map zeroed heap beyond the current allocations, up to the heap
     * capacity. Real devices map at allocation granularity far
     * beyond what an application touches, so many corrupted
     * addresses still hit mapped memory instead of faulting; the
     * error-injection study uses this to avoid over-reporting
     * crashes (see EXPERIMENTS.md). Only the mapped mark moves: the
     * whole capacity was allocated zeroed at construction, and a
     * page costs memory only once the program touches it.
     */
    void mapSlack(size_t bytes);

    /**
     * Bounds-checked raw pointer into the global heap; returns
     * nullptr when [addr, addr+n) is not allocated. Used by the
     * executor and by handler-side atomics.
     */
    uint8_t *globalPtr(uint64_t addr, size_t n);
    const uint8_t *globalPtr(uint64_t addr, size_t n) const;

    /// @}

    /// @name Code loading and launch
    /// @{

    /** Load (or replace) the module executed by launches, dropping
     *  the programs compiled from the old one. This is the only way
     *  to change the device's code. */
    void loadModule(ir::Module module);

    /** @return the loaded module. */
    const ir::Module &module() const { return module_; }

    /** Launch a kernel by name; blocks until completion. The
     *  kernel's micro-program is compiled at its first launch and
     *  reused by later ones. */
    LaunchResult launch(const std::string &kernel, Dim3 grid, Dim3 block,
                        const KernelArgs &args,
                        const LaunchOptions &opts = {});

    /// @}

    /** Install the SASSI handler dispatcher (nullptr to remove). */
    void setDispatcher(HandlerDispatcher *d) { dispatcher_ = d; }

    /** @return the installed dispatcher, if any. */
    HandlerDispatcher *dispatcher() const { return dispatcher_; }

    /** @return the CUPTI-like callback registry. */
    cupti::CallbackRegistry &callbacks() { return callbacks_; }

    /** @return cumulative statistics across all launches. */
    const LaunchStats &totalStats() const { return total_stats_; }

    /** @return the metrics registries of all launches, merged in
     *  launch order (launches are serialized, so this is exact). */
    const Metrics &metrics() const { return metrics_; }

    /** Reset the cumulative launch statistics and metrics. Transfer-
     *  byte and launch counters are cumulative program-lifetime
     *  quantities and are left alone (the Table 3 host-time model
     *  needs the setup-time copies). */
    void
    resetStats()
    {
        total_stats_ = LaunchStats();
        metrics_.clear();
    }

    /** @return bytes copied host->device so far. */
    uint64_t
    bytesH2D() const
    {
        return bytes_h2d_.load(std::memory_order_relaxed);
    }

    /** @return bytes copied device->host so far. */
    uint64_t
    bytesD2H() const
    {
        return bytes_d2h_.load(std::memory_order_relaxed);
    }

    /** @return kernel launches so far. */
    uint64_t
    launches() const
    {
        return launches_.load(std::memory_order_relaxed);
    }

  private:
    /** @return the kernel's program compiled for cfg, compiling it
     *  at first use. */
    const MicroProgram &program(const ir::Kernel &kernel,
                                const UopConfig &cfg);

    struct FreeDeleter
    {
        void operator()(uint8_t *p) const { std::free(p); }
    };

    // One zeroed allocation of the full capacity, made at
    // construction (calloc: at this size the pages are demand-zero,
    // so untouched heap costs nothing). heap_ never moves while
    // parallel CTA workers hold pointers into it. heap_size_ is the
    // mapped high-water mark: malloc and mapSlack only raise it,
    // and bytes below it that were never written still read zero.
    // mem_mutex_ serializes the allocator bookkeeping (brk_,
    // heap_size_).
    std::unique_ptr<uint8_t[], FreeDeleter> heap_;
    const size_t heap_capacity_;
    size_t heap_size_ = 0;
    uint64_t brk_ = GlobalBase;
    std::mutex mem_mutex_;
    ir::Module module_;
    // Compiled micro-programs of module_'s kernels, by kernel index
    // and UopConfig::fuseSites. Launches are serialized, so no lock.
    std::vector<std::array<std::unique_ptr<const MicroProgram>, 2>>
        programs_;
    HandlerDispatcher *dispatcher_ = nullptr;
    cupti::CallbackRegistry callbacks_;
    LaunchStats total_stats_;
    Metrics metrics_;
    std::atomic<uint64_t> bytes_h2d_{0};
    mutable std::atomic<uint64_t> bytes_d2h_{0};
    std::atomic<uint64_t> launches_{0};
};

} // namespace sassi::simt

#endif // SASSI_SIMT_DEVICE_H
