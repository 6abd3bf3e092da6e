#include "simt/executor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <span>

#include "simt/simd/simd_exec.h"
#include "simt/simd/site_frame.h"
#include "simt/thread_pool.h"
#include "util/bitops.h"
#include "util/logging.h"
#include "util/trace.h"

namespace sassi::simt {

using namespace sass;

namespace {

uint64_t
loadBytes(const uint8_t *p, int width)
{
    uint64_t v = 0;
    std::memcpy(&v, p, static_cast<size_t>(std::min(width, 8)));
    return v;
}

void
storeBytes(uint8_t *p, uint64_t v, int width)
{
    std::memcpy(p, &v, static_cast<size_t>(std::min(width, 8)));
}

uint32_t
atomicApply(AtomOp op, uint32_t old, uint32_t b, uint32_t c, bool &store)
{
    store = true;
    switch (op) {
      case AtomOp::Add: return old + b;
      case AtomOp::Min:
        return static_cast<uint32_t>(
            std::min(static_cast<int32_t>(old), static_cast<int32_t>(b)));
      case AtomOp::Max:
        return static_cast<uint32_t>(
            std::max(static_cast<int32_t>(old), static_cast<int32_t>(b)));
      case AtomOp::And: return old & b;
      case AtomOp::Or: return old | b;
      case AtomOp::Xor: return old ^ b;
      case AtomOp::Exch: return b;
      case AtomOp::Cas:
        store = old == b;
        return c;
    }
    store = false;
    return old;
}

/**
 * A fused site's memory-operand address for the active lanes, as the
 * bundle's address add computes it from the live register file:
 * lo = lo32(Ra + immLo) with carry out, hi = lo32(Ra+1 + immHi +
 * carry). Registers out of budget (RZ included) read 0.
 */
void
siteAddress(const SiteRun &run, const Warp &warp, uint32_t active,
            uint32_t *lo, uint32_t *hi, uint32_t *carry)
{
    const auto span = [&](uint8_t r) -> const uint32_t * {
        return r < warp.numRegs
                   ? warp.regs.data() + static_cast<size_t>(r) * WarpSize
                   : nullptr;
    };
    const uint32_t *const als = span(run.addrLoReg);
    const uint32_t *const ahs = run.addrPair ? span(run.addrHiReg) : nullptr;
    for (uint32_t m = active; m; m &= m - 1) {
        const int lane = std::countr_zero(m);
        const uint64_t sum =
            static_cast<uint64_t>(als ? als[lane] : 0) + run.addrImmLo;
        lo[lane] = static_cast<uint32_t>(sum);
        carry[lane] = (sum >> 32) != 0 ? 1u : 0u;
        if (run.addrPair)
            hi[lane] = (ahs ? ahs[lane] : 0) + run.addrImmHi + carry[lane];
    }
}

/**
 * Phase-A frame stores for the active lanes, as direct 32-bit
 * stores. Store-major order: the per-lane ingredients (frame
 * pointer, recomputed memory address) are captured in ctx, then each
 * template store's kind is decoded once and applied to every active
 * lane in a tight strided loop. Register reads index the lane's
 * register file slice directly, bounds-checked (out-of-budget and RZ
 * read 0, like Warp::reg).
 */
void
storeSiteFrame(std::span<const SiteStore> stores,
               const simd::SiteFrameCtx &ctx)
{
    const Warp &warp = *ctx.warp;
    const uint32_t active = ctx.active;
    for (const SiteStore &st : stores) {
        // Destination of the store for one lane (frame-relative or
        // absolute within the lane's local memory).
        const auto dst = [&](int lane) -> uint8_t * {
            return (st.abs ? ctx.lmem0 +
                                 static_cast<size_t>(lane) * ctx.lstride
                           : ctx.fptr[lane]) +
                   st.off;
        };
        switch (st.kind) {
          case SiteStore::Kind::Const:
            for (int lane = 0; lane < WarpSize; ++lane)
                if (active & (1u << lane))
                    std::memcpy(dst(lane), &st.imm, 4);
            break;
          case SiteStore::Kind::Reg: {
            const uint32_t *span =
                st.reg < ctx.numRegs
                    ? ctx.regs0 + static_cast<size_t>(st.reg) * WarpSize
                    : nullptr;
            for (int lane = 0; lane < WarpSize; ++lane) {
                if (!(active & (1u << lane)))
                    continue;
                uint32_t v = span ? span[lane] : 0;
                std::memcpy(dst(lane), &v, 4);
            }
            break;
          }
          case SiteStore::Kind::AddrLo:
            for (int lane = 0; lane < WarpSize; ++lane)
                if (active & (1u << lane))
                    std::memcpy(dst(lane), &ctx.addrLo[lane], 4);
            break;
          case SiteStore::Kind::AddrHi:
            for (int lane = 0; lane < WarpSize; ++lane)
                if (active & (1u << lane))
                    std::memcpy(dst(lane), &ctx.addrHi[lane], 4);
            break;
          case SiteStore::Kind::PredBits:
            for (int lane = 0; lane < WarpSize; ++lane) {
                if (!(active & (1u << lane)))
                    continue;
                uint32_t v = warp.predByte(lane) & st.imm;
                std::memcpy(dst(lane), &v, 4);
            }
            break;
          case SiteStore::Kind::CCOrig:
            for (int lane = 0; lane < WarpSize; ++lane) {
                if (!(active & (1u << lane)))
                    continue;
                uint32_t v = warp.cc(lane) ? 0x80u : 0u;
                std::memcpy(dst(lane), &v, 4);
            }
            break;
          case SiteStore::Kind::CCCarry:
            for (int lane = 0; lane < WarpSize; ++lane) {
                if (!(active & (1u << lane)))
                    continue;
                uint32_t v = ctx.carry[lane] ? 0x80u : 0u;
                std::memcpy(dst(lane), &v, 4);
            }
            break;
          case SiteStore::Kind::GuardFlag:
            for (int lane = 0; lane < WarpSize; ++lane) {
                if (!(active & (1u << lane)))
                    continue;
                uint32_t v =
                    warp.pred(lane, st.reg) != st.neg ? 1u : 0u;
                std::memcpy(dst(lane), &v, 4);
            }
            break;
        }
    }
}

} // namespace

Executor::Executor(Device &dev, const ir::Kernel &kernel,
                   const MicroProgram &prog, Dim3 grid, Dim3 block,
                   std::vector<uint8_t> params, const LaunchOptions &opts)
    : dev_(dev), kernel_(kernel), grid_(grid), block_(block),
      params_(std::move(params)), opts_(opts), prog_(prog),
      superblocks_on_(opts.superblocks != 0),
      simd_on_(superblocks_on_ && opts.simd != 0 && simd::cpuHasAvx2())
{
    static std::atomic<uint64_t> next_seq{1};
    launch_seq_ = next_seq.fetch_add(1, std::memory_order_relaxed);
    // Register the interpreter's own metrics up front: the returned
    // references are stable map nodes, so every shard bumps through
    // these pointers and merge still finds identical key sets.
    m_spill_instrs_ = &metrics_.counter("simt/spill_fill/warp_instrs");
    m_spill_bytes_ = &metrics_.counter("simt/spill_fill/bytes");
    m_div_depth_ =
        &metrics_.histogram("simt/divergence/stack_depth");
    m_cta_warp_instrs_ = &metrics_.histogram("simt/cta/warp_instrs");
}

void
Executor::fault(Outcome outcome, const std::string &message) const
{
    throw SimFault{outcome, message};
}

LaunchResult
Executor::run()
{
    const uint64_t total = grid_.count();
    int workers = resolveSimThreads(opts_.numThreads, total);
    // ~8 chunks per worker gives the cursor grain to balance uneven
    // CTAs; the 256-CTA cap keeps the quanta small on huge grids.
    uint64_t chunk_ctas = std::clamp<uint64_t>(
        total / (static_cast<uint64_t>(workers) * 8), 1, 256);
    uint64_t chunks = (total + chunk_ctas - 1) / chunk_ctas;
    // A worker that could never claim a chunk is not worth starting.
    workers = static_cast<int>(
        std::min<uint64_t>(static_cast<uint64_t>(workers), chunks));
    // One worker runs one chunk spanning the grid on the calling
    // thread: byte for byte the historical strictly-serial execution.
    if (workers == 1) {
        chunk_ctas = total;
        chunks = 1;
    }

    // Workers claim contiguous CTA chunks in ascending order off one
    // cursor, as the GPU's block scheduler hands CTAs to whichever SM
    // frees up first. Worker 0 is this executor; every other worker
    // is a full Executor with private warp state, shared memory,
    // statistics, and counter shard. Only device global memory is
    // shared, and every RMW on it goes through a real atomic
    // (execMem, intrinsics.cc), matching the GPU's own guarantees.
    std::atomic<uint64_t> cursor{0};
    std::atomic<uint64_t> fault_bound{~0ull};
    std::vector<ChunkOutcome> chunks_out(chunks);
    std::vector<std::unique_ptr<Executor>> shards;
    for (int w = 1; w < workers; ++w)
        shards.emplace_back(std::make_unique<Executor>(
            dev_, kernel_, prog_, grid_, block_, params_, opts_));
    ThreadPool::global().parallelFor(workers, [&](int w) {
        Executor &e = w == 0 ? *this : *shards[static_cast<size_t>(w - 1)];
        e.trace_tid_ = w;
        for (;;) {
            const uint64_t id = cursor.fetch_add(1);
            if (id >= chunks)
                return;
            const uint64_t begin = id * chunk_ctas;
            e.runChunk(begin, std::min(begin + chunk_ctas, total),
                       fault_bound, chunks_out[id]);
        }
    });

    // Per-worker state merges in worker order; everything here is
    // commutative (counter sums, histogram bucket sums + min/max,
    // deferred adds), so this too is thread-count-invariant.
    for (const auto &shard : shards) {
        metrics_.merge(shard->metrics_);
        counter_shard_.merge(shard->counter_shard_);
        usage_.add(shard->usage_);
    }

    // Merge statistics in chunk id order == ascending CTA order, so
    // which worker ran a chunk never shows in the result.
    // On a fault, stop at the first faulted chunk: chunk ranges
    // ascend, so it holds the globally lowest faulting CTA, and the
    // accumulated stats are exactly the CTAs the serial path would
    // have executed before faulting there (work from later chunks
    // that raced to completion is dropped).
    LaunchResult result;
    for (ChunkOutcome &c : chunks_out) {
        result.stats.add(c.stats);
        if (c.outcome != Outcome::Ok) {
            result.outcome = c.outcome;
            result.message = std::move(c.message);
            break;
        }
    }
    stats_ = result.stats;
    UopCache::global().noteUsage(usage_);
    result.dispatch = usage_;
    flushCounterShard();
    finalizeMetrics(result);
    return result;
}

void
Executor::finalizeMetrics(LaunchResult &result)
{
    const LaunchStats &s = result.stats;
    metrics_.counter("simt/ctas") += s.ctas;
    metrics_.counter("simt/warp_instrs") += s.warpInstrs;
    metrics_.counter("simt/thread_instrs") += s.threadInstrs;
    metrics_.counter("simt/synthetic_warp_instrs") +=
        s.syntheticWarpInstrs;
    metrics_.counter("simt/mem_warp_instrs") += s.memWarpInstrs;
    metrics_.counter("simt/handler/calls") += s.handlerCalls;
    metrics_.counter("simt/handler/cost_instrs") +=
        s.handlerCostInstrs;
    for (size_t op = 0; op < s.opcodeCounts.size(); ++op) {
        if (!s.opcodeCounts[op])
            continue;
        std::string name("simt/opcode/");
        name += opName(static_cast<Opcode>(op));
        metrics_.counter(name) += s.opcodeCounts[op];
    }
    result.metrics = metrics_;
}

void
Executor::runChunk(uint64_t begin, uint64_t end,
                   std::atomic<uint64_t> &fault_bound, ChunkOutcome &out)
{
    stats_ = LaunchStats{};
    try {
        for (uint64_t linear = begin; linear < end; ++linear) {
            // CTAs above a published fault can never beat it for
            // "earliest fault" and the serial path would not have
            // reached them; CTAs below it must still run to
            // completion so the bound converges on the CTA serial
            // execution faults on.
            if (linear > fault_bound.load(std::memory_order_relaxed))
                break;
            runOneCta(linear);
        }
        out.outcome = Outcome::Ok;
    } catch (const SimFault &f) {
        refundRoundDebt();
        out.outcome = f.outcome;
        out.message = f.message;
        // fetch-min of the faulting CTA-linear id.
        uint64_t cur = fault_bound.load(std::memory_order_relaxed);
        while (cta_linear_ < cur &&
               !fault_bound.compare_exchange_weak(
                   cur, cta_linear_, std::memory_order_relaxed,
                   std::memory_order_relaxed)) {
        }
    }
    out.stats = stats_;
}

void
Executor::runOneCta(uint64_t linear)
{
    const uint64_t plane = static_cast<uint64_t>(grid_.x) * grid_.y;
    Trace &trace = Trace::global();
    cta_linear_ = linear;
    cta_ = Dim3(static_cast<uint32_t>(linear % grid_.x),
                static_cast<uint32_t>((linear / grid_.x) % grid_.y),
                static_cast<uint32_t>(linear / plane));
    const uint64_t instrs_before = stats_.warpInstrs;
    const bool traced = trace.enabled();
    const uint64_t t0 = traced ? trace.nowNs() : 0;
    runCta();
    const uint64_t cta_instrs = stats_.warpInstrs - instrs_before;
    m_cta_warp_instrs_->observe(cta_instrs);
    if (traced) {
        trace.complete(
            detail::strFormat("%s cta %llu", kernel_.name.c_str(),
                              static_cast<unsigned long long>(linear)),
            "cta", trace_tid_, t0, trace.nowNs() - t0,
            {{"cta", linear}, {"warp_instrs", cta_instrs}});
    }
    ++stats_.ctas;
}

void
Executor::flushCounterShard()
{
    if (counter_shard_.empty())
        return;
    // Launches are serialized by the device and the workers have
    // joined, so plain read-modify-writes are race-free here; the
    // ascending-address drain makes the walk sequential and any
    // flush fault deterministic.
    for (const auto &[addr, delta] : counter_shard_.drainSorted()) {
        uint8_t *p = dev_.globalPtr(addr, 8);
        fatal_if(!p,
                 "deferred counter flush to invalid device address "
                 "0x%llx",
                 static_cast<unsigned long long>(addr));
        uint64_t v;
        std::memcpy(&v, p, 8);
        v += delta;
        std::memcpy(p, &v, 8);
    }
}

void
Executor::runCta()
{
    uint32_t threads = static_cast<uint32_t>(block_.count());
    int num_warps = static_cast<int>((threads + WarpSize - 1) / WarpSize);

    uop_ctx_ =
        UopCtx{cta_, block_, grid_, cta_linear_, kernel_.localBytes};
    shared_.assign(kernel_.sharedBytes + opts_.dynamicShared, 0);
    warps_.clear();
    warps_.resize(static_cast<size_t>(num_warps));
    for (int w = 0; w < num_warps; ++w) {
        Warp &warp = warps_[static_cast<size_t>(w)];
        warp.rank = w;
        warp.pc = 0;
        warp.numRegs = kernel_.numRegs;
        warp.localBytes = kernel_.localBytes;
        warp.regs.assign(static_cast<size_t>(WarpSize) *
                         static_cast<size_t>(kernel_.numRegs), 0);
        warp.localMem.assign(static_cast<size_t>(WarpSize) *
                             kernel_.localBytes, 0);
        uint32_t lanes_here =
            std::min<uint32_t>(WarpSize, threads -
                               static_cast<uint32_t>(w) * WarpSize);
        warp.liveMask = lanes_here == 32 ? ~0u : ((1u << lanes_here) - 1);
        warp.activeMask = warp.liveMask;
        // ABI: R1 is the stack pointer, initialized to the top of the
        // thread's local memory (the stack grows down). Graphics
        // shaders maintain no stack (paper §9.5) — R1 stays zero and
        // SASSI must manage one if it wants to inject calls.
        if (!kernel_.isShader) {
            for (int lane = 0; lane < WarpSize; ++lane)
                warp.setReg(lane, abi::StackPtr, kernel_.localBytes);
        }
    }

    for (;;) {
        // Round-debt batching: when every runnable warp would only
        // decrement skipRounds this round, collapse min(skipRounds)
        // such rounds into one bulk subtraction. The rounds removed
        // have no architectural effect (their work was executed and
        // charged when the run was entered), and subtracting the
        // same amount from every runnable warp preserves the exact
        // interleave of real instruction execution.
        uint32_t min_skip = UINT32_MAX;
        for (const Warp &warp : warps_) {
            if (warp.done() || warp.atBarrier)
                continue;
            if (warp.skipRounds < min_skip)
                min_skip = warp.skipRounds;
        }
        if (min_skip != UINT32_MAX && min_skip > 0) {
            for (Warp &warp : warps_)
                if (!warp.done() && !warp.atBarrier)
                    warp.skipRounds -= min_skip;
        }
        bool progressed = false;
        bool any_alive = false;
        for (Warp &warp : warps_) {
            if (warp.done())
                continue;
            any_alive = true;
            if (warp.atBarrier)
                continue;
            step(warp);
            progressed = true;
        }
        if (!any_alive)
            break;
        if (!progressed) {
            // Every live warp is parked at BAR: release the barrier.
            for (Warp &warp : warps_)
                warp.atBarrier = false;
        }
    }
}

void
Executor::unwindStack(Warp &warp)
{
    while (!warp.divStack.empty()) {
        DivToken token = warp.divStack.back();
        warp.divStack.pop_back();
        uint32_t mask = token.mask & warp.liveMask;
        if (mask) {
            warp.activeMask = mask;
            warp.pc = token.pc;
            return;
        }
    }
    // Stack exhausted: every remaining live lane must already have
    // exited; otherwise live lanes would be unreachable.
    panic_if(warp.liveMask != 0,
             "divergence stack exhausted with live lanes (kernel %s, "
             "pc %u)", kernel_.name.c_str(), warp.pc);
    warp.activeMask = 0;
}

uint8_t *
Executor::resolveGeneric(uint64_t addr, int width)
{
    uint8_t *p = dev_.globalPtr(addr, static_cast<size_t>(width));
    if (p)
        return p;
    if (addr >= Device::LocalWindowBase && kernel_.localBytes > 0) {
        uint64_t off = addr - Device::LocalWindowBase;
        uint64_t thread = off / kernel_.localBytes;
        uint64_t byte = off % kernel_.localBytes;
        uint64_t cta_threads = block_.count();
        uint64_t first = cta_linear_ * cta_threads;
        if (thread >= first && thread < first + cta_threads &&
            byte + static_cast<uint64_t>(width) <= kernel_.localBytes) {
            uint64_t in_cta = thread - first;
            Warp &warp = warps_[in_cta / WarpSize];
            uint64_t lane = in_cta % WarpSize;
            return warp.localMem.data() + lane * kernel_.localBytes +
                   byte;
        }
    }
    fault(Outcome::MemFault,
          detail::strFormat("invalid generic address 0x%llx (width %d)",
                            static_cast<unsigned long long>(addr), width));
}

uint64_t
Executor::readGeneric(uint64_t addr, int width)
{
    return loadBytes(resolveGeneric(addr, width), width);
}

void
Executor::writeGeneric(uint64_t addr, uint64_t value, int width)
{
    storeBytes(resolveGeneric(addr, width), value, width);
}

uint8_t *
Executor::resolveAddr(Warp &warp, int lane, const Instruction &ins,
                      uint64_t addr, int width)
{
    switch (ins.space) {
      case MemSpace::Generic:
      case MemSpace::Global:
      case MemSpace::Texture:
      case MemSpace::Surface: {
        if (ins.space == MemSpace::Generic)
            return resolveGeneric(addr, width);
        uint8_t *p = dev_.globalPtr(addr, static_cast<size_t>(width));
        if (!p) {
            fault(Outcome::MemFault, detail::strFormat(
                "global access violation at 0x%llx (kernel %s, pc %u, "
                "lane %d)", static_cast<unsigned long long>(addr),
                kernel_.name.c_str(), warp.pc, lane));
        }
        return p;
      }
      case MemSpace::Shared: {
        if (addr + static_cast<uint64_t>(width) > shared_.size()) {
            fault(Outcome::MemFault, detail::strFormat(
                "shared access violation at 0x%llx (size %zu)",
                static_cast<unsigned long long>(addr), shared_.size()));
        }
        return shared_.data() + addr;
      }
      case MemSpace::Local: {
        if (addr + static_cast<uint64_t>(width) > kernel_.localBytes) {
            fault(Outcome::MemFault, detail::strFormat(
                "local access violation at 0x%llx (local size %u, "
                "kernel %s, pc %u)",
                static_cast<unsigned long long>(addr),
                kernel_.localBytes, kernel_.name.c_str(), warp.pc));
        }
        return warp.localMem.data() +
               static_cast<size_t>(lane) * kernel_.localBytes + addr;
      }
      case MemSpace::Constant: {
        if (addr + static_cast<uint64_t>(width) > params_.size()) {
            fault(Outcome::MemFault, detail::strFormat(
                "constant access violation at 0x%llx (param size %zu)",
                static_cast<unsigned long long>(addr), params_.size()));
        }
        return params_.data() + addr;
      }
    }
    fault(Outcome::MemFault, "unreachable memory space");
}

void
Executor::execMem(Warp &warp, const Instruction &ins, uint32_t exec)
{
    const int width = ins.width;

    // Hoist everything static per instruction out of the lane loop.
    enum class Kind { Load, Store, Atomic };
    Kind kind;
    switch (ins.op) {
      case Opcode::LD:
      case Opcode::LDG:
      case Opcode::LDS:
      case Opcode::LDL:
      case Opcode::LDC:
      case Opcode::TLD:
      case Opcode::SULD:
        kind = Kind::Load;
        break;
      case Opcode::ST:
      case Opcode::STG:
      case Opcode::STS:
      case Opcode::STL:
      case Opcode::SUST:
        kind = Kind::Store;
        break;
      case Opcode::ATOM:
      case Opcode::ATOMS:
      case Opcode::RED:
        kind = Kind::Atomic;
        break;
      default:
        panic("execMem on non-memory opcode %s",
              std::string(opName(ins.op)).c_str());
    }
    const bool addr_ldc = ins.op == Opcode::LDC;
    const bool addr_pair = !addr_ldc && ins.addrIsPair();

    for (int lane = 0; lane < WarpSize; ++lane) {
        if (!(exec & (1u << lane)))
            continue;

        uint64_t addr;
        if (addr_ldc) {
            addr = static_cast<uint64_t>(
                static_cast<int64_t>(warp.reg(lane, ins.srcA)) + ins.imm);
        } else if (addr_pair) {
            addr = makeU64(warp.reg(lane, ins.srcA),
                           warp.reg(lane, static_cast<RegId>(ins.srcA + 1)))
                   + static_cast<uint64_t>(ins.imm);
        } else {
            addr = static_cast<uint64_t>(
                warp.reg(lane, ins.srcA) + static_cast<uint32_t>(ins.imm));
        }

        uint8_t *p = resolveAddr(warp, lane, ins, addr, width);

        switch (kind) {
          case Kind::Load: {
            if (width <= 4) {
                uint32_t v = static_cast<uint32_t>(loadBytes(p, width));
                if (width < 4 && ins.sExt) {
                    int shift = 32 - width * 8;
                    v = static_cast<uint32_t>(
                        (static_cast<int32_t>(v << shift)) >> shift);
                }
                warp.setReg(lane, ins.dst, v);
            } else {
                for (int i = 0; i < width / 4; ++i) {
                    uint32_t v;
                    std::memcpy(&v, p + i * 4, 4);
                    warp.setReg(lane, static_cast<RegId>(ins.dst + i), v);
                }
            }
            break;
          }
          case Kind::Store: {
            if (width <= 4) {
                uint32_t v = warp.reg(lane, ins.srcB);
                storeBytes(p, v, width);
            } else {
                for (int i = 0; i < width / 4; ++i) {
                    uint32_t v =
                        warp.reg(lane, static_cast<RegId>(ins.srcB + i));
                    std::memcpy(p + i * 4, &v, 4);
                }
            }
            break;
          }
          case Kind::Atomic: {
            uint32_t b = warp.reg(lane, ins.srcB);
            uint32_t c = warp.reg(lane, ins.srcC);
            uint32_t old;
            if (ins.op == Opcode::ATOMS ||
                (reinterpret_cast<uintptr_t>(p) & 3) != 0) {
                // Shared memory is CTA-private, so only this worker
                // touches it; a misaligned word has no atomic access
                // path on any target. Plain read-modify-write.
                std::memcpy(&old, p, 4);
                bool store = false;
                uint32_t next = atomicApply(ins.atom, old, b, c, store);
                if (store)
                    std::memcpy(p, &next, 4);
            } else {
                // Global/generic: CTAs on other workers may race on
                // this word, so RMW through a real atomic, keeping
                // atomicApply's conditional-store semantics (CAS only
                // writes on compare success).
                auto *word = reinterpret_cast<uint32_t *>(p);
                old = __atomic_load_n(word, __ATOMIC_RELAXED);
                for (;;) {
                    bool store = false;
                    uint32_t next =
                        atomicApply(ins.atom, old, b, c, store);
                    if (!store)
                        break;
                    if (__atomic_compare_exchange_n(
                            word, &old, next, false, __ATOMIC_RELAXED,
                            __ATOMIC_RELAXED))
                        break;
                }
            }
            if (ins.op != Opcode::RED)
                warp.setReg(lane, ins.dst, old);
            break;
          }
        }
    }
}

void
Executor::execWarpOp(Warp &warp, const Instruction &ins, uint32_t exec)
{
    switch (ins.op) {
      case Opcode::VOTE: {
        uint32_t mask = 0;
        for (int lane = 0; lane < WarpSize; ++lane) {
            if (!(exec & (1u << lane)))
                continue;
            bool v = warp.pred(lane, ins.pSrc) != ins.pSrcNeg;
            if (v)
                mask |= 1u << lane;
        }
        for (int lane = 0; lane < WarpSize; ++lane) {
            if (!(exec & (1u << lane)))
                continue;
            switch (ins.vote) {
              case VoteMode::Ballot:
                warp.setReg(lane, ins.dst, mask);
                break;
              case VoteMode::All:
                warp.setPred(lane, ins.pDst, (mask & exec) == exec);
                break;
              case VoteMode::Any:
                warp.setPred(lane, ins.pDst, mask != 0);
                break;
            }
        }
        break;
      }
      case Opcode::SHFL: {
        std::array<uint32_t, WarpSize> snapshot{};
        for (int lane = 0; lane < WarpSize; ++lane)
            snapshot[static_cast<size_t>(lane)] =
                warp.reg(lane, ins.srcA);
        for (int lane = 0; lane < WarpSize; ++lane) {
            if (!(exec & (1u << lane)))
                continue;
            int b = static_cast<int>(
                ins.bIsImm ? ins.imm
                           : static_cast<int64_t>(warp.reg(lane, ins.srcB)));
            int src = lane;
            switch (ins.shfl) {
              case ShflMode::Idx: src = b & 31; break;
              case ShflMode::Up: src = lane - b; break;
              case ShflMode::Down: src = lane + b; break;
              case ShflMode::Bfly: src = lane ^ b; break;
            }
            uint32_t v = snapshot[static_cast<size_t>(lane)];
            if (src >= 0 && src < WarpSize && (exec & (1u << src)))
                v = snapshot[static_cast<size_t>(src)];
            warp.setReg(lane, ins.dst, v);
        }
        break;
      }
      default:
        panic("execWarpOp on %s", std::string(opName(ins.op)).c_str());
    }
}

void
Executor::execUncompiled(Warp &warp, const Instruction &ins,
                         uint32_t exec)
{
    if (ins.op == Opcode::S2R && ins.sreg == SpecialReg::Clock) {
        for (uint32_t m = exec; m; m &= m - 1)
            warp.setReg(std::countr_zero(m), ins.dst,
                        static_cast<uint32_t>(stats_.warpInstrs));
        return;
    }
    for (const auto &regs : {ins.srcRegs(), ins.dstRegs()})
        for (RegId r : regs)
            panic_if(r >= warp.numRegs, "register R%d out of budget %d",
                     r, warp.numRegs);
    panic("no exec function for ALU opcode %s",
          std::string(opName(ins.op)).c_str());
}

void
Executor::execSuperblock(Warp &warp, const Superblock &sb)
{
    // Every micro-op in the run is unpredicated (@PT) and ALU-class:
    // the exec mask is the warp's active mask for the whole run, and
    // nothing in the run can change pc, activeMask, or memory
    // statistics. Stats and the watchdog are charged once per run;
    // the caller already proved the watchdog budget covers it.
    const uint32_t exec = warp.activeMask;
    const uint32_t len = sb.len;
    const uint32_t start = sb.start;
    const Instruction *code = kernel_.code.data();
    if (simd_on_) {
        // Vectorized tier: each uop runs for all 32 lanes at once
        // when it has a SIMD exec function, and falls back to its
        // scalar function (same semantics) when it doesn't.
        for (uint32_t i = 0; i < len; ++i) {
            const MicroOp &u = prog_.at(start + i);
            (u.simd != nullptr ? u.simd : u.alu)(
                uop_ctx_, warp, code[start + i], exec);
        }
        usage_.vectorUops += sb.simdUops;
        usage_.scalarUops += len - sb.simdUops;
    } else {
        for (uint32_t i = 0; i < len; ++i) {
            const MicroOp &u = prog_.at(start + i);
            u.alu(uop_ctx_, warp, code[start + i], exec);
        }
    }
    watchdog_count_ += len;
    stats_.warpInstrs += len;
    stats_.threadInstrs +=
        static_cast<uint64_t>(popc(exec)) * len;
    stats_.syntheticWarpInstrs += sb.syntheticInstrs;
    for (const auto &[op, count] : sb.opcodeCounts)
        stats_.opcodeCounts[static_cast<size_t>(op)] += count;
    warp.pc = start + len;
    // The run consumed this scheduler round plus len - 1 future
    // ones; owing them keeps this warp's progress — and so the
    // CTA-wide interleaving of shared-state accesses — identical
    // to per-instruction stepping (see Warp::skipRounds).
    warp.skipRounds = len - 1;
    ++usage_.superblockRuns;
    usage_.superblockInstrs += len;
}

void
Executor::chargeSiteHalf(const SiteRunStats &half, uint64_t lanes)
{
    stats_.warpInstrs += half.warpInstrs;
    stats_.threadInstrs += half.threadFactor * lanes;
    stats_.syntheticWarpInstrs += half.warpInstrs;
    stats_.memWarpInstrs += half.memInstrs;
    *m_spill_instrs_ += half.spillInstrs;
    *m_spill_bytes_ += half.spillWidthSum * lanes;
    for (const auto &[op, count] : half.opcodeCounts)
        stats_.opcodeCounts[static_cast<size_t>(op)] += count;
    watchdog_count_ += half.warpInstrs;
}

bool
Executor::enterSiteRun(Warp &warp, uint16_t id)
{
    const SiteRun &run = prog_.siteRun(id);
    HandlerDispatcher *d = dev_.dispatcher();
    if (!d || !d->inlineDispatchable(run.siteKey) ||
        watchdog_count_ + run.len > opts_.watchdog) {
        // Not inline-dispatchable (or the watchdog budget no longer
        // covers the whole bundle): the generic path handles it —
        // including the fiber dispatch and exact-pc hang fault.
        ++usage_.inlineFallbacks;
        return false;
    }
    const uint32_t active = warp.activeMask;
    if (active == 0)
        return false;

    // Frame bounds. The generic path faults store by store on a
    // frame outside local memory; fall back so it reports the exact
    // fault. base may legitimately differ per lane only through R1,
    // which the ABI keeps warp-uniform, but check every lane anyway.
    // One pass also captures the per-lane frame pointer and the
    // recomputed memory address — every write lands in locals, so an
    // out-of-bounds fallback discards them harmlessly.
    const int64_t frame_bytes = run.frameBytes();
    const int num_regs = warp.numRegs;
    const uint32_t *const regs0 = warp.regs.data();
    uint8_t *const lmem0 = warp.localMem.data();
    const size_t lstride = kernel_.localBytes;
    const uint32_t *const r1s =
        abi::StackPtr < num_regs
            ? regs0 + static_cast<size_t>(abi::StackPtr) * WarpSize
            : nullptr;
    uint8_t *fptr[WarpSize]; // Frame base, per lane.
    // Zero-filled so the SIMD tier's whole-chunk loads stay defined
    // at inactive lanes (their values are never stored).
    uint32_t addr_lo[WarpSize] = {};
    uint32_t addr_hi[WarpSize] = {};
    uint32_t carry[WarpSize] = {};
    for (int lane = 0; lane < WarpSize; ++lane) {
        if (!(active & (1u << lane)))
            continue;
        const int64_t b =
            static_cast<int64_t>(r1s ? r1s[lane] : 0) + run.frameRel;
        if (b < 0 ||
            b + frame_bytes > static_cast<int64_t>(kernel_.localBytes)) {
            ++usage_.inlineFallbacks;
            return false;
        }
        fptr[lane] = lmem0 + static_cast<size_t>(lane) * lstride +
                     static_cast<uint64_t>(b);
    }
    if (run.hasAddr)
        siteAddress(run, warp, active, addr_lo, addr_hi, carry);

    // Charge the prologue half (through the JCAL) exactly as
    // per-instruction stepping would. Every bundle instruction is
    // synthetic and runs under the full active mask (guarded flag
    // pairs partition it; SiteRunStats::threadFactor folds that in).
    const uint64_t lanes = static_cast<uint64_t>(popc(active));
    chargeSiteHalf(run.pre, lanes);

    // Whether a handler body runs for this warp, asked once per
    // visit. An idle visit (no) reads no parameter: it writes only
    // the slots its epilogue or a later site reads back, with the
    // scalar loop.
    const bool idle = !d->handlerRuns(*this, warp, run.siteKey);
    simd::SiteFrameCtx fctx;
    fctx.run = &run;
    fctx.warp = &warp;
    fctx.active = active;
    fctx.fptr = fptr;
    fctx.addrLo = addr_lo;
    fctx.addrHi = addr_hi;
    fctx.carry = carry;
    fctx.lmem0 = lmem0;
    fctx.lstride = lstride;
    fctx.regs0 = regs0;
    fctx.numRegs = num_regs;
    if (idle) {
        storeSiteFrame(run.idleStores, fctx);
        usage_.inlineSpillBytes += run.idleSpillBytes * lanes;
        ++usage_.idleHandlerCalls;
    } else {
        // Materialize the whole frame template: every spill and
        // parameter store of the prologue. SIMD tier first: compute
        // each template store 8 lanes at a time, then one transposed
        // (masked) 256-bit store per lane per 8-slot frame window
        // (simt/simd/site_frame.cc). It returns false when compiled
        // out; the scalar store-major loop is the fallback and the
        // simd=0 reference the differential suites compare against.
        if (!simd_on_ || !simd::storeSiteFrames(fctx))
            storeSiteFrame(run.stores, fctx);
        usage_.inlineSpillBytes += run.spillBytesPerLane() * lanes;
    }
    ++usage_.inlineHandlerCalls;

    // Park on the JCAL's round: this round covered instruction
    // start, the next jcalIdx - 1 pay off the rest of the prologue,
    // and the round after that — the exact round the generic path
    // would execute the JCAL in — dispatches the handler.
    warp.pendingSite = id;
    warp.pendingIdle = idle;
    warp.pc = run.start + run.jcalIdx;
    warp.skipRounds = run.jcalIdx - 1;
    return true;
}

void
Executor::completeSiteRun(Warp &warp)
{
    const SiteRun &run = prog_.siteRun(warp.pendingSite);
    const bool idle = warp.pendingIdle;
    warp.pendingSite = 0;
    const uint32_t active = warp.activeMask;
    const uint64_t lanes = static_cast<uint64_t>(popc(active));

    // The JCAL round. R1 still holds its site-entry value (only the
    // epilogue's register effects, applied below, touch registers).
    // Capture it and the frame offset for the epilogue replay — the
    // handler cannot modify the register file (SetRegValue writes
    // frame slots), so the values stay valid across the dispatch.
    ++stats_.handlerCalls;
    const uint64_t warp_window = localWindowAddr(warp, 0);
    const int num_regs = warp.numRegs;
    uint32_t *const regs0 = warp.regs.data();
    const uint8_t *const lmem0 = warp.localMem.data();
    const size_t lstride = kernel_.localBytes;
    const uint32_t *const r1s =
        abi::StackPtr < num_regs
            ? regs0 + static_cast<size_t>(abi::StackPtr) * WarpSize
            : nullptr;
    uint32_t r1v[WarpSize];
    uint64_t fb[WarpSize]; // Frame byte offset within lane lmem.
    for (int lane = 0; lane < WarpSize; ++lane) {
        if (!(active & (1u << lane)))
            continue;
        r1v[lane] = r1s ? r1s[lane] : 0;
        fb[lane] = static_cast<uint64_t>(
            static_cast<int64_t>(r1v[lane]) + run.frameRel);
    }
    // When the handler left frame memory untouched, identity fills
    // (reloads of exactly what the prologue spilled) are no-ops: the
    // parked warp executed nothing between the phases, so the
    // register/predicate files still hold the spilled values.
    bool frame_dirty = false;
    HandlerDispatcher &d = *dev_.dispatcher();
    if (idle) {
        // No handler body runs: the bookkeeping alone, and the frame
        // stays clean.
        d.noteDispatch(*this, warp, run.siteKey);
    } else {
        // Call the handler inline, no fiber group. Lane addresses
        // differ only by a localBytes stride (and R1, which the ABI
        // keeps warp-uniform but is read per lane anyway).
        uint64_t frame_addr[WarpSize] = {};
        uint8_t *frame_host[WarpSize] = {};
        for (int lane = 0; lane < WarpSize; ++lane) {
            if (!(active & (1u << lane)))
                continue;
            const uint64_t b =
                static_cast<uint64_t>(lane) * lstride + fb[lane];
            frame_host[lane] = warp.localMem.data() + b;
            frame_addr[lane] = warp_window + b;
        }
        frame_dirty = d.dispatch(*this, warp, run.siteKey, frame_addr,
                                 frame_host, true);
    }

    // Epilogue half: charged only once the handler returned, like
    // the generic path (a handler fault leaves the JCAL charged but
    // not the fills).
    chargeSiteHalf(run.post, lanes);

    // Apply the epilogue's effects, effect-major. Every effect value
    // derives from entry register values (R1 and the memory-address
    // base registers, captured before any write — they may
    // themselves be fill destinations) or from frame memory, which
    // register writes never touch — so each effect can be written
    // for all lanes as soon as it is decoded. When the handler left
    // frame memory clean and the whole epilogue is identity rewrites
    // (the common tool case), the replay — address recompute
    // included — is skipped wholesale.
    if (!frame_dirty && run.effectsAllIdentity) {
        warp.pc = run.start + run.len;
        warp.skipRounds = run.len - 1 - run.jcalIdx;
        return;
    }
    uint32_t addr_lo[WarpSize];
    uint32_t addr_hi[WarpSize];
    uint32_t carry[WarpSize];
    if (run.hasAddr && run.effectsNeedAddr)
        siteAddress(run, warp, active, addr_lo, addr_hi, carry);
    // One lane's frame word at a frame-relative or absolute offset.
    const auto loadWord = [&](int lane, bool abs, uint32_t off) {
        uint32_t v;
        std::memcpy(&v,
                    lmem0 + static_cast<size_t>(lane) * lstride +
                        (abs ? off : fb[lane] + off),
                    4);
        return v;
    };
    const bool full_mask = active == ~0u;
    for (const SiteRegEffect &e : run.effects) {
        if (e.identity && !frame_dirty)
            continue;
        // RZ (and anything out of budget) discards, like setReg().
        if (e.reg >= num_regs)
            continue;
        uint32_t *const dst =
            regs0 + static_cast<size_t>(e.reg) * WarpSize;
        // Kind decoded once, then a tight per-lane loop (mirrors the
        // phase-A store loop's store-major structure). The common
        // full-mask case gets branchless countable loops the
        // compiler can vectorize; register addition is mod 2^32, so
        // the 64-bit rel terms fold to 32-bit addends.
        switch (e.kind) {
          case SiteRegEffect::Kind::Const:
            for (int lane = 0; lane < WarpSize; ++lane)
                if (full_mask || (active & (1u << lane)))
                    dst[lane] = e.imm;
            break;
          case SiteRegEffect::Kind::FrameRel: {
            const uint32_t rel = static_cast<uint32_t>(e.rel);
            if (full_mask) {
                for (int lane = 0; lane < WarpSize; ++lane)
                    dst[lane] = r1v[lane] + rel;
            } else {
                for (int lane = 0; lane < WarpSize; ++lane)
                    if (active & (1u << lane))
                        dst[lane] = r1v[lane] + rel;
            }
            break;
          }
          case SiteRegEffect::Kind::AddrLo:
            for (int lane = 0; lane < WarpSize; ++lane)
                if (full_mask || (active & (1u << lane)))
                    dst[lane] = addr_lo[lane];
            break;
          case SiteRegEffect::Kind::AddrHi:
            for (int lane = 0; lane < WarpSize; ++lane)
                if (full_mask || (active & (1u << lane)))
                    dst[lane] = addr_hi[lane];
            break;
          case SiteRegEffect::Kind::GenLo: {
            // lo32 of the generic address is linear mod 2^32 in the
            // lane index, so no 64-bit math per lane.
            const uint32_t base = lo32(warp_window) +
                                  static_cast<uint32_t>(e.rel);
            const uint32_t stride32 =
                static_cast<uint32_t>(lstride);
            if (full_mask) {
                for (int lane = 0; lane < WarpSize; ++lane)
                    dst[lane] =
                        base +
                        static_cast<uint32_t>(lane) * stride32 +
                        r1v[lane];
            } else {
                for (int lane = 0; lane < WarpSize; ++lane)
                    if (active & (1u << lane))
                        dst[lane] =
                            base +
                            static_cast<uint32_t>(lane) * stride32 +
                            r1v[lane];
            }
            break;
          }
          case SiteRegEffect::Kind::GenHi:
            for (int lane = 0; lane < WarpSize; ++lane) {
                if (!full_mask && !(active & (1u << lane)))
                    continue;
                uint64_t g = warp_window +
                             static_cast<uint64_t>(lane) * lstride +
                             static_cast<uint32_t>(
                                 static_cast<int64_t>(r1v[lane]) +
                                 e.rel);
                dst[lane] = hi32(g);
            }
            break;
          case SiteRegEffect::Kind::Load:
            for (int lane = 0; lane < WarpSize; ++lane)
                if (full_mask || (active & (1u << lane)))
                    dst[lane] = loadWord(lane, e.abs, e.off);
            break;
        }
    }
    const bool restore_pred =
        run.restorePred && (frame_dirty || !run.restorePredIdentity);
    const bool restore_cc =
        run.restoreCC && (frame_dirty || !run.restoreCCIdentity);
    for (int lane = 0; lane < WarpSize; ++lane) {
        if (!(active & (1u << lane)))
            continue;
        // Equivalent to setPred on each of P0..P6: the pred file
        // holds exactly those NumPred bits (PT is not stored).
        if (restore_pred) {
            warp.setPredByte(
                lane, static_cast<uint8_t>(
                          loadWord(lane, run.restorePredAbs,
                                   run.restorePredOff) &
                          ((1u << NumPred) - 1)));
        }
        if (restore_cc) {
            warp.setCC(lane, (loadWord(lane, run.restoreCCAbs,
                                       run.restoreCCOff) & 0x80) != 0);
        }
    }

    warp.pc = run.start + run.len;
    warp.skipRounds = run.len - 1 - run.jcalIdx;
}

uint32_t
Executor::guardMask(const Warp &warp, const MicroOp &dec,
                    const Instruction &ins)
{
    // The decode cache proves the common case — @PT, i.e.
    // unpredicated — statically, skipping the per-lane predicate-file
    // reads entirely.
    switch (dec.guard) {
      case GuardKind::AlwaysOn: return warp.activeMask;
      case GuardKind::AlwaysOff: return 0;
      case GuardKind::PerLane: break;
    }
    uint32_t exec = 0;
    for (uint32_t m = warp.activeMask; m; m &= m - 1) {
        const int lane = std::countr_zero(m);
        if (warp.pred(lane, ins.guard) != ins.guardNeg)
            exec |= 1u << lane;
    }
    return exec;
}

void
Executor::chargeIssue(const MicroOp &dec, const Instruction &ins,
                      uint32_t exec, uint64_t sign)
{
    const uint64_t lanes = static_cast<uint64_t>(popc(exec));
    stats_.warpInstrs += sign;
    stats_.threadInstrs += sign * lanes;
    stats_.opcodeCounts[static_cast<size_t>(ins.op)] += sign;
    if (ins.synthetic)
        stats_.syntheticWarpInstrs += sign;
    if (dec.countsAsMem && exec)
        stats_.memWarpInstrs += sign;
    if (ins.spillFill && exec) {
        *m_spill_instrs_ += sign;
        *m_spill_bytes_ += sign * static_cast<uint64_t>(ins.width) * lanes;
    }
}

void
Executor::refundRoundDebt()
{
    for (Warp &warp : warps_) {
        // Owed rounds are the last skipRounds instructions before pc,
        // plus the JCAL at pc while parked in a fused site's prologue.
        const uint32_t parked = warp.pendingSite != 0 ? 1 : 0;
        const uint32_t end = warp.pc + parked;
        for (uint32_t pc = end - warp.skipRounds - parked; pc < end; ++pc) {
            const MicroOp &dec = prog_.at(pc);
            const Instruction &ins = kernel_.code[pc];
            chargeIssue(dec, ins, guardMask(warp, dec, ins), ~0ull);
        }
    }
}

void
Executor::step(Warp &warp)
{
    // Paying off a superblock's round debt: the batched work
    // already ran (and was charged) when the run was entered.
    if (warp.skipRounds > 0) {
        --warp.skipRounds;
        return;
    }

    // A warp parked mid-way through a fused instrumentation site:
    // this is the round the generic path would have executed the
    // site's JCAL in, so the handler dispatch (and the epilogue's
    // warp-private effects) land here.
    if (warp.pendingSite != 0) {
        completeSiteRun(warp);
        return;
    }

    if (warp.pc >= kernel_.code.size()) {
        fault(Outcome::InvalidPC, detail::strFormat(
            "PC 0x%x outside kernel %s (%zu instructions)", warp.pc,
            kernel_.name.c_str(), kernel_.code.size()));
    }
    const MicroOp &dec = prog_.at(warp.pc);

    // Compiled-handler fast path: this pc heads a fused
    // instrumentation site whose spills, parameter stores, and
    // handler call were compiled into a frame template at decode
    // time. enterSiteRun falls back (returning false) when the site
    // must take the generic path below.
    if (dec.site != 0 && enterSiteRun(warp, dec.site))
        return;

    // Superblock fast path: a run of unpredicated fast-path ALU
    // micro-ops headed here executes in one batched loop. Skipped
    // when the whole run no longer fits in the watchdog budget, so
    // a hang faults at the exact instruction — with the exact
    // message — the per-instruction path would report.
    if (dec.sb != 0 && superblocks_on_) {
        const Superblock &sb = prog_.superblock(dec.sb);
        if (watchdog_count_ + sb.len <= opts_.watchdog) {
            execSuperblock(warp, sb);
            return;
        }
    }

    if (++watchdog_count_ > opts_.watchdog) {
        fault(Outcome::Hang, detail::strFormat(
            "watchdog expired after %llu warp instructions (kernel %s)",
            static_cast<unsigned long long>(watchdog_count_),
            kernel_.name.c_str()));
    }

    const Instruction &ins = kernel_.code[warp.pc];
    const uint32_t exec = guardMask(warp, dec, ins);
    chargeIssue(dec, ins, exec, 1);

    switch (dec.cls) {
      case ExecClass::Exit: {
        warp.liveMask &= ~exec;
        warp.activeMask &= ~exec;
        if (warp.activeMask == 0) {
            if (warp.liveMask == 0)
                return; // Warp finished.
            unwindStack(warp);
        } else {
            ++warp.pc;
        }
        return;
      }
      case ExecClass::Bra: {
        uint32_t taken = exec;
        uint32_t not_taken = warp.activeMask & ~exec;
        // >= size(): one-past-the-end is already outside the kernel;
        // fault here, at the branch, not one fetch later.
        if (ins.target < 0 ||
            ins.target >= static_cast<int32_t>(kernel_.code.size())) {
            fault(Outcome::InvalidPC, detail::strFormat(
                "branch to invalid target %d (kernel %s, pc %u)",
                ins.target, kernel_.name.c_str(), warp.pc));
        }
        if (not_taken == 0) {
            warp.pc = static_cast<uint32_t>(ins.target);
        } else if (taken == 0) {
            ++warp.pc;
        } else {
            warp.divStack.push_back(
                {DivToken::Kind::Div, not_taken, warp.pc + 1});
            m_div_depth_->observe(warp.divStack.size());
            warp.activeMask = taken;
            warp.pc = static_cast<uint32_t>(ins.target);
        }
        return;
      }
      case ExecClass::Ssy: {
        if (ins.target < 0 ||
            ins.target > static_cast<int32_t>(kernel_.code.size())) {
            fault(Outcome::InvalidPC, "SSY to invalid target");
        }
        warp.divStack.push_back({DivToken::Kind::Sync, warp.activeMask,
                                 static_cast<uint32_t>(ins.target)});
        m_div_depth_->observe(warp.divStack.size());
        ++warp.pc;
        return;
      }
      case ExecClass::Sync: {
        if (warp.divStack.empty()) {
            fault(Outcome::InvalidPC, detail::strFormat(
                "SYNC with empty divergence stack (kernel %s, pc %u)",
                kernel_.name.c_str(), warp.pc));
        }
        unwindStack(warp);
        return;
      }
      case ExecClass::Jcal: {
        if (exec == 0) {
            ++warp.pc;
            return;
        }
        if (ins.target >= HandlerBase) {
            HandlerDispatcher *d = dev_.dispatcher();
            if (!d) {
                fault(Outcome::InvalidPC,
                      "handler JCAL with no dispatcher installed");
            }
            // The injected ABI sequence passed the bp pointer in
            // R4:R5 (second pointer, aux block, in R6:R7 — it is
            // bp + 0x60, so the frame base is all the views need).
            uint64_t frame_addr[WarpSize] = {};
            for (uint32_t m = warp.activeMask; m; m &= m - 1) {
                const int lane = std::countr_zero(m);
                frame_addr[lane] =
                    makeU64(warp.reg(lane, abi::Arg0Lo),
                            warp.reg(lane, abi::Arg0Lo + 1));
            }
            ++stats_.handlerCalls;
            ++usage_.fiberHandlerCalls;
            d->dispatch(*this, warp, ins.target - HandlerBase,
                        frame_addr, nullptr, false);
            ++warp.pc;
            return;
        }
        if (exec != warp.activeMask) {
            fault(Outcome::InvalidPC, "divergent JCAL is unsupported");
        }
        if (ins.target < 0 ||
            ins.target >= static_cast<int32_t>(kernel_.code.size())) {
            fault(Outcome::InvalidPC, "JCAL to invalid target");
        }
        warp.callStack.push_back(warp.pc + 1);
        warp.pc = static_cast<uint32_t>(ins.target);
        return;
      }
      case ExecClass::Ret: {
        if (!warp.callStack.empty()) {
            warp.pc = warp.callStack.back();
            warp.callStack.pop_back();
        } else {
            // Top-level RET behaves like EXIT for the active lanes.
            warp.liveMask &= ~warp.activeMask;
            warp.activeMask = 0;
            if (warp.liveMask != 0)
                unwindStack(warp);
        }
        return;
      }
      case ExecClass::Bar: {
        warp.atBarrier = true;
        ++warp.pc;
        return;
      }
      case ExecClass::Bpt: {
        if (exec) {
            fault(Outcome::Trap, detail::strFormat(
                "breakpoint trap (kernel %s, pc %u)",
                kernel_.name.c_str(), warp.pc));
        }
        ++warp.pc;
        return;
      }
      case ExecClass::WarpOp:
        execWarpOp(warp, ins, exec);
        ++warp.pc;
        return;
      case ExecClass::Mem:
        execMem(warp, ins, exec);
        ++warp.pc;
        return;
      case ExecClass::Alu:
        if (dec.alu != nullptr)
            dec.alu(uop_ctx_, warp, ins, exec);
        else if (exec != 0)
            execUncompiled(warp, ins, exec);
        ++warp.pc;
        return;
    }
}

} // namespace sassi::simt
