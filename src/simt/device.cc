#include "simt/device.h"

#include <algorithm>
#include <cstring>

#include "simt/executor.h"
#include "util/logging.h"

namespace sassi::simt {

const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Ok: return "ok";
      case Outcome::MemFault: return "mem-fault";
      case Outcome::InvalidPC: return "invalid-pc";
      case Outcome::Hang: return "hang";
      case Outcome::Trap: return "trap";
    }
    return "?";
}

Device::Device(size_t heap_bytes)
    : heap_(static_cast<uint8_t *>(std::calloc(heap_bytes, 1))),
      heap_capacity_(heap_bytes)
{
    fatal_if(!heap_ && heap_bytes,
             "cannot allocate a %zu-byte device heap", heap_bytes);
}

uint64_t
Device::malloc(size_t bytes, size_t align)
{
    std::lock_guard<std::mutex> lock(mem_mutex_);
    uint64_t addr = (brk_ + align - 1) & ~(static_cast<uint64_t>(align) - 1);
    uint64_t end = addr + bytes;
    fatal_if(end - GlobalBase > heap_capacity_,
             "device out of memory: %zu bytes requested", bytes);
    heap_size_ = std::max<size_t>(heap_size_, end - GlobalBase);
    brk_ = end;
    return addr;
}

void
Device::mapSlack(size_t bytes)
{
    std::lock_guard<std::mutex> lock(mem_mutex_);
    heap_size_ = std::min(heap_size_ + bytes, heap_capacity_);
}

bool
Device::isGlobal(uint64_t addr) const
{
    return addr >= GlobalBase && addr - GlobalBase < heap_size_;
}

uint8_t *
Device::globalPtr(uint64_t addr, size_t n)
{
    if (addr < GlobalBase)
        return nullptr;
    uint64_t off = addr - GlobalBase;
    if (off + n > heap_size_)
        return nullptr;
    return heap_.get() + off;
}

const uint8_t *
Device::globalPtr(uint64_t addr, size_t n) const
{
    return const_cast<Device *>(this)->globalPtr(addr, n);
}

void
Device::memcpyHtoD(uint64_t dst, const void *src, size_t n)
{
    uint8_t *p = globalPtr(dst, n);
    fatal_if(!p, "memcpyHtoD out of bounds: 0x%llx + %zu",
             static_cast<unsigned long long>(dst), n);
    bytes_h2d_.fetch_add(n, std::memory_order_relaxed);
    std::memcpy(p, src, n);
}

void
Device::memcpyDtoH(void *dst, uint64_t src, size_t n) const
{
    const uint8_t *p = globalPtr(src, n);
    fatal_if(!p, "memcpyDtoH out of bounds: 0x%llx + %zu",
             static_cast<unsigned long long>(src), n);
    bytes_d2h_.fetch_add(n, std::memory_order_relaxed);
    std::memcpy(dst, p, n);
}

void
Device::memset(uint64_t dst, uint8_t value, size_t n)
{
    uint8_t *p = globalPtr(dst, n);
    fatal_if(!p, "memset out of bounds: 0x%llx + %zu",
             static_cast<unsigned long long>(dst), n);
    std::memset(p, value, n);
}

void
Device::loadModule(ir::Module module)
{
    module_ = std::move(module);
    programs_.clear();
    programs_.resize(module_.kernels.size());
}

const MicroProgram &
Device::program(const ir::Kernel &kernel, const UopConfig &cfg)
{
    auto &slot =
        programs_[static_cast<size_t>(&kernel - module_.kernels.data())]
                 [cfg.fuseSites];
    if (slot) {
        UopCache::global().noteReuse();
    } else {
        slot = std::make_unique<const MicroProgram>(kernel, cfg);
        UopCache::global().noteCompile(kernel.name, *slot);
    }
    return *slot;
}

LaunchResult
Device::launch(const std::string &kernel, Dim3 grid, Dim3 block,
               const KernelArgs &args, const LaunchOptions &opts)
{
    const ir::Kernel *k = module_.find(kernel);
    fatal_if(!k, "launch of unknown kernel '%s'", kernel.c_str());
    fatal_if(block.count() == 0 || block.count() > 1024,
             "invalid block size %llu",
             static_cast<unsigned long long>(block.count()));
    fatal_if(grid.count() == 0, "empty grid");

    cupti::CallbackData data;
    data.kernelName = kernel;
    data.invocation = callbacks_.noteLaunch(kernel);
    data.grid[0] = grid.x;
    data.grid[1] = grid.y;
    data.grid[2] = grid.z;
    data.block[0] = block.x;
    data.block[1] = block.y;
    data.block[2] = block.z;
    callbacks_.fire(cupti::CallbackSite::KernelLaunch, data);

    // The handler fast path runs on superblocks (simt/site_fuse.h).
    UopConfig cfg;
    cfg.fuseSites = opts.superblocks != 0 && opts.handlerFastpath != 0;
    Executor exec(*this, *k, program(*k, cfg), grid, block,
                  args.bytes(), opts);
    LaunchResult result = exec.run();
    total_stats_.add(result.stats);
    metrics_.merge(result.metrics);
    launches_.fetch_add(1, std::memory_order_relaxed);

    data.launchOk = result.ok();
    data.errorMessage = result.message;
    callbacks_.fire(cupti::CallbackSite::KernelExit, data);
    return result;
}

} // namespace sassi::simt
