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

void
UopCache::noteCompile(const std::string &kernel_name,
                      const MicroProgram &prog)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++metrics_.counter("uop/cache/compiles");
    metrics_.counter("uop/static/instrs") += prog.size();
    metrics_.counter("uop/static/superblocks") +=
        prog.superblocks().size();
    metrics_.counter("uop/static/superblock_instrs") +=
        prog.superblockInstrs();
    MetricHistogram &lens =
        metrics_.histogram("uop/static/superblock_len");
    for (const Superblock &sb : prog.superblocks())
        lens.observe(sb.len);
    if (!prog.siteRuns().empty()) {
        metrics_.counter("uop/static/site_runs") +=
            prog.siteRuns().size();
        metrics_.counter("uop/static/site_run_instrs") +=
            prog.siteRunInstrs();
        for (const SiteRun &run : prog.siteRuns()) {
            // Static property keyed by site, so assignment (not +=)
            // keeps recompiles on other devices idempotent.
            metrics_.counter(
                "uop/handler/site/" + kernel_name + "@" +
                std::to_string(run.start) + "/spill_bytes") =
                run.spillBytesPerLane();
        }
    }
}

void
UopCache::noteReuse()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++metrics_.counter("uop/cache/hits");
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
    return metrics_;
}

} // namespace sassi::simt
