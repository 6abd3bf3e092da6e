#include "simt/decode.h"

#include <algorithm>

#include "sassir/cfg.h"
#include "simt/alu_ops.h"
#include "simt/simd/simd_exec.h"

namespace sassi::simt {

using namespace sass;

namespace {

/** Whether every register the instruction names is inside the
 *  kernel's budget, so exec functions may skip bounds checks. */
bool
inBudget(const ir::Kernel &kernel, const Instruction &ins)
{
    auto fits = [&](RegId r) {
        return r == RZ || static_cast<int>(r) < kernel.numRegs;
    };
    const auto dsts = ins.dstRegs();
    const auto srcs = ins.srcRegs();
    return std::all_of(dsts.begin(), dsts.end(), fits) &&
           std::all_of(srcs.begin(), srcs.end(), fits);
}

ExecClass
classify(const Instruction &ins)
{
    switch (ins.op) {
      case Opcode::EXIT: return ExecClass::Exit;
      case Opcode::BRA: return ExecClass::Bra;
      case Opcode::SSY: return ExecClass::Ssy;
      case Opcode::SYNC: return ExecClass::Sync;
      case Opcode::JCAL: return ExecClass::Jcal;
      case Opcode::RET: return ExecClass::Ret;
      case Opcode::BAR: return ExecClass::Bar;
      case Opcode::BPT: return ExecClass::Bpt;
      case Opcode::VOTE:
      case Opcode::SHFL:
        return ExecClass::WarpOp;
      default:
        return ins.isMem() ? ExecClass::Mem : ExecClass::Alu;
    }
}

} // namespace

MicroProgram::MicroProgram(const ir::Kernel &kernel,
                           const UopConfig &cfg)
{
    const size_t n = kernel.code.size();
    uops_.resize(n);
    for (size_t pc = 0; pc < n; ++pc) {
        const Instruction &ins = kernel.code[pc];
        MicroOp &u = uops_[pc];
        u.cls = classify(ins);
        if (ins.guard == PT)
            u.guard = ins.guardNeg ? GuardKind::AlwaysOff
                                   : GuardKind::AlwaysOn;
        else
            u.guard = GuardKind::PerLane;
        u.countsAsMem = ins.isMem();
        if (u.cls == ExecClass::Alu && inBudget(kernel, ins)) {
            u.alu = selectAluFn<LaneOne>(ins);
            if (u.alu != nullptr)
                u.simd = simd::vectorAluFn(ins);
        }
    }

    // A clock read observes mid-launch issue counts, and batching
    // charges a sibling warp's whole run before the reader's next
    // round — so in a kernel that reads %clock anywhere, any
    // batching at all could skew the value it sees. Rare enough to
    // simply keep the whole kernel on per-instruction stepping.
    for (size_t i = 0; i < n; ++i) {
        const Instruction &ins = kernel.code[i];
        if (ins.op == Opcode::S2R &&
            ins.sreg == sass::SpecialReg::Clock)
            return;
    }

    const std::vector<uint8_t> leader = ir::blockLeaders(kernel);

    // Compile instrumentation-site bundles first and exclude the
    // instructions they cover from superblock formation, so a fused
    // site is always entered through its head micro-op in step()
    // (never from inside a batched superblock run).
    std::vector<uint8_t> fused(n, 0);
    if (cfg.fuseSites) {
        site_runs_ = compileSiteRuns(kernel, leader);
        if (site_runs_.size() > 0xfffe)
            site_runs_.resize(0xfffe); // uint16 id space; ample.
        for (size_t i = 0; i < site_runs_.size(); ++i) {
            const SiteRun &run = site_runs_[i];
            uops_[run.start].site = static_cast<uint16_t>(i + 1);
            for (uint32_t pc = run.start; pc < run.start + run.len;
                 ++pc)
                fused[pc] = 1;
        }
    }

    // Form superblocks: maximal runs of fast-path, unpredicated ALU
    // micro-ops, never extending across a basic-block leader. Every
    // point control flow can enter — the kernel entry, branch/SSY
    // targets, and the instruction after any block terminator — is
    // a leader, so a warp can only ever land on a run's head;
    // mid-run pcs keep sb == 0 and fall back to generic stepping.
    // Spill/fill-tagged ops feed dedicated launch metrics the batched
    // run path does not update, so they stay on generic stepping.
    auto runnable = [&](size_t pc) {
        const MicroOp &u = uops_[pc];
        return u.cls == ExecClass::Alu &&
               u.guard == GuardKind::AlwaysOn && u.alu != nullptr &&
               !kernel.code[pc].spillFill && !fused[pc];
    };
    size_t pc = 0;
    while (pc < n) {
        if (!runnable(pc)) {
            ++pc;
            continue;
        }
        size_t end = pc + 1;
        while (end < n && runnable(end) && !leader[end])
            ++end;
        const size_t len = end - pc;
        if (len >= MinSuperblockLen && superblocks_.size() < 0xfffe) {
            Superblock sb;
            sb.start = static_cast<uint32_t>(pc);
            sb.len = static_cast<uint32_t>(len);
            for (size_t i = pc; i < end; ++i) {
                const Instruction &ins = kernel.code[i];
                if (ins.synthetic)
                    ++sb.syntheticInstrs;
                if (uops_[i].simd != nullptr)
                    ++sb.simdUops;
                auto it = std::find_if(
                    sb.opcodeCounts.begin(), sb.opcodeCounts.end(),
                    [&](const auto &e) { return e.first == ins.op; });
                if (it == sb.opcodeCounts.end())
                    sb.opcodeCounts.emplace_back(ins.op, 1u);
                else
                    ++it->second;
            }
            superblocks_.push_back(std::move(sb));
            uops_[pc].sb =
                static_cast<uint16_t>(superblocks_.size());
        }
        pc = end;
    }
}

size_t
MicroProgram::superblockInstrs() const
{
    size_t total = 0;
    for (const Superblock &sb : superblocks_)
        total += sb.len;
    return total;
}

size_t
MicroProgram::siteRunInstrs() const
{
    size_t total = 0;
    for (const SiteRun &run : site_runs_)
        total += run.len;
    return total;
}

UopCache &
UopCache::global()
{
    static UopCache cache;
    return cache;
}

uint64_t
UopCache::fingerprint(const ir::Kernel &kernel)
{
    // FNV-1a over explicit fields (never raw struct bytes: padding
    // is indeterminate). Any rewrite of the kernel — SASSI splicing,
    // register renumbering, target fixups — changes the print.
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (char c : kernel.name)
        mix(static_cast<uint8_t>(c));
    mix(static_cast<uint64_t>(kernel.numRegs));
    mix(kernel.localBytes);
    mix(kernel.sharedBytes);
    mix(kernel.isShader ? 1 : 0);
    mix(kernel.code.size());
    for (const Instruction &ins : kernel.code) {
        mix(static_cast<uint64_t>(ins.op));
        mix(static_cast<uint64_t>(ins.guard) |
            (ins.guardNeg ? 0x100u : 0u));
        mix(ins.dst);
        mix(ins.srcA);
        mix(ins.srcB);
        mix(ins.srcC);
        mix(ins.bIsImm ? 1 : 0);
        mix(static_cast<uint64_t>(ins.imm));
        mix(static_cast<uint64_t>(ins.pDst) |
            (static_cast<uint64_t>(ins.pSrc) << 8) |
            (ins.pSrcNeg ? 0x10000u : 0u));
        mix(static_cast<uint64_t>(ins.cmp) |
            (static_cast<uint64_t>(ins.logic) << 8) |
            (static_cast<uint64_t>(ins.vote) << 16) |
            (static_cast<uint64_t>(ins.shfl) << 24) |
            (static_cast<uint64_t>(ins.atom) << 32) |
            (static_cast<uint64_t>(ins.mufu) << 40) |
            (static_cast<uint64_t>(ins.sreg) << 48) |
            (static_cast<uint64_t>(ins.space) << 56));
        mix(static_cast<uint64_t>(ins.width) |
            (ins.setCC ? 0x100u : 0u) | (ins.useCC ? 0x200u : 0u) |
            (ins.sExt ? 0x400u : 0u) |
            (ins.synthetic ? 0x800u : 0u) |
            (ins.spillFill ? 0x1000u : 0u));
        mix(static_cast<uint64_t>(
            static_cast<int64_t>(ins.target)));
    }
    return h;
}

std::shared_ptr<const MicroProgram>
UopCache::get(const ir::Kernel &kernel, const UopConfig &cfg)
{
    // Salt the content print with the configuration so programs
    // compiled with and without site fusing coexist in the cache.
    uint64_t key = fingerprint(kernel);
    if (cfg.fuseSites)
        key ^= 0x9e3779b97f4a7c15ull;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++metrics_.counter("uop/cache/hits");
            return it->second.prog;
        }
    }
    // Compile outside the lock: programs are pure functions of the
    // kernel, so two threads racing on the same key just do the
    // work twice and the loser's copy is dropped.
    auto prog = std::make_shared<const MicroProgram>(kernel, cfg);
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] =
        entries_.emplace(key, Entry{kernel.name, prog});
    if (!inserted) {
        ++metrics_.counter("uop/cache/hits");
        return it->second.prog;
    }
    ++metrics_.counter("uop/cache/compiles");
    metrics_.counter("uop/static/instrs") += prog->size();
    metrics_.counter("uop/static/superblocks") +=
        prog->superblocks().size();
    metrics_.counter("uop/static/superblock_instrs") +=
        prog->superblockInstrs();
    MetricHistogram &lens =
        metrics_.histogram("uop/static/superblock_len");
    for (const Superblock &sb : prog->superblocks())
        lens.observe(sb.len);
    if (!prog->siteRuns().empty()) {
        metrics_.counter("uop/static/site_runs") +=
            prog->siteRuns().size();
        metrics_.counter("uop/static/site_run_instrs") +=
            prog->siteRunInstrs();
        for (const SiteRun &run : prog->siteRuns()) {
            // Static property keyed by site, so assignment (not +=)
            // keeps recompiles after invalidation idempotent.
            metrics_.counter(
                "uop/handler/site/" + kernel.name + "@" +
                std::to_string(run.start) + "/spill_bytes") =
                run.spillBytesPerLane();
        }
    }
    return it->second.prog;
}

size_t
UopCache::invalidate(std::string_view kernel_name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t dropped = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->second.name == kernel_name) {
            it = entries_.erase(it);
            ++dropped;
        } else {
            ++it;
        }
    }
    metrics_.counter("uop/cache/invalidated") += dropped;
    return dropped;
}

void
UopCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    metrics_.clear();
}

void
UopCache::noteUsage(const DispatchUsage &u)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (u.superblockRuns) {
        metrics_.counter("uop/dynamic/superblock_runs") +=
            u.superblockRuns;
        metrics_.counter("uop/dynamic/superblock_instrs") +=
            u.superblockInstrs;
    }
    if (u.vectorUops || u.scalarUops) {
        metrics_.counter("uop/simd/vector_uops") += u.vectorUops;
        metrics_.counter("uop/simd/scalar_uops") += u.scalarUops;
    }
    if (u.inlineHandlerCalls || u.fiberHandlerCalls ||
        u.inlineFallbacks) {
        metrics_.counter("uop/handler/inline_calls") +=
            u.inlineHandlerCalls;
        metrics_.counter("uop/handler/idle_calls") +=
            u.idleHandlerCalls;
        metrics_.counter("uop/handler/fiber_calls") +=
            u.fiberHandlerCalls;
        metrics_.counter("uop/handler/inline_fallbacks") +=
            u.inlineFallbacks;
        metrics_.counter("uop/handler/inline_spill_bytes") +=
            u.inlineSpillBytes;
    }
}

Metrics
UopCache::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Metrics m = metrics_;
    m.counter("uop/cache/entries") = entries_.size();
    return m;
}

size_t
UopCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace sassi::simt
