/**
 * @file
 * Per-kernel micro-op compiler for the interpreter hot path.
 *
 * The executor's step() used to re-derive, for every dynamic warp
 * instruction, facts that are static per Instruction: which
 * execution class handles it, whether its guard needs per-lane
 * evaluation, and whether it counts as a memory instruction. The
 * paper's §5 overhead discussion shows the overwhelmingly common
 * case is an unpredicated ALU instruction on a fully converged
 * warp; this module compiles each kernel once into micro-ops that
 * exploit exactly that case:
 *
 *  - Every instruction becomes a MicroOp carrying its ExecClass,
 *    resolved guard kind, and — for ALU-class ops — a direct
 *    exec-function pointer specialized at compile time on the
 *    operand facts (immediate vs register srcB, CC use, signedness,
 *    logic op), so execution dispatches indirectly instead of
 *    re-switching per instruction and per lane.
 *  - Maximal straight-line runs of unpredicated ALU micro-ops
 *    inside one basic block (leaders from sassir/cfg) become
 *    *superblocks*: the executor runs a whole superblock for a
 *    converged warp in one tight loop, batching warpInstrs /
 *    threadInstrs / opcodeCounts and watchdog charging per run.
 *  - Recognized SASSI instrumentation-site bundles (site_fuse.h)
 *    become *site runs*: the executor materializes the site's frame
 *    template with direct stores, calls the handler inline when the
 *    dispatcher marks it reentrant-safe, and applies the epilogue's
 *    register effects — eliding the per-site fiber round-trip.
 *  - The Device compiles a kernel's MicroProgram at its first
 *    launch and reuses it for later launches and every CTA-worker
 *    shard, until loadModule replaces the code. Compile/reuse
 *    counters and superblock-length histograms go to a process-wide
 *    tally (UopCache) published through util/metrics.
 *
 * The generic step() path runs the same ALU exec functions one
 * instruction at a time, so it differs from a superblock run only
 * in batching. It is the fallback for everything the fast paths
 * skip, and the whole path when LaunchOptions::superblocks or
 * handlerFastpath is 0; instrumentation sites, divergence, faults,
 * and statistics are observationally identical with the fast paths
 * on or off.
 */

#ifndef SASSI_SIMT_DECODE_H
#define SASSI_SIMT_DECODE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sassir/module.h"
#include "simt/dim3.h"
#include "simt/launch.h"
#include "simt/site_fuse.h"
#include "util/metrics.h"

namespace sassi::simt {

struct Warp;

/**
 * Compile-time switches a MicroProgram is specialized on. A Device
 * keeps one program per loaded kernel and configuration.
 */
struct UopConfig
{
    /** Compile instrumentation-site bundles into SiteRuns. */
    bool fuseSites = false;
};

/** Top-level dispatch class of an instruction in step(). */
enum class ExecClass : uint8_t {
    Exit,
    Bra,
    Ssy,
    Sync,
    Jcal,
    Ret,
    Bar,
    Bpt,
    WarpOp, //!< VOTE / SHFL.
    Mem,    //!< Loads, stores, atomics.
    Alu,    //!< Everything else.
};

/** How the guard predicate resolves, decided at decode time. */
enum class GuardKind : uint8_t {
    AlwaysOn,  //!< @PT: every active lane executes.
    AlwaysOff, //!< @!PT: statically nullified.
    PerLane,   //!< A real predicate: evaluate per lane.
};

/**
 * Launch-invariant context a micro-op exec function may need beyond
 * the warp itself: the current CTA coordinates (S2R) and the
 * local-memory window geometry (L2G). Rebuilt per CTA by the
 * executor; everything else the fast path touches lives in Warp.
 */
struct UopCtx
{
    Dim3 cta;
    Dim3 block;
    Dim3 grid;
    uint64_t ctaLinear = 0;
    uint32_t localBytes = 0;
};

/**
 * Exec function of one ALU-class micro-op: applies the instruction
 * to every lane set in exec. Specialized per (opcode, operand
 * facts) at compile time (simt/alu_ops.h) and selected only for
 * instructions whose registers are all inside the kernel's budget,
 * so implementations skip per-access bounds checks. Superblock runs
 * call it with the warp's active mask; generic step() calls it with
 * the guard-evaluated exec mask, for any ALU op, guarded or not.
 */
using AluFn = void (*)(const UopCtx &ctx, Warp &warp,
                       const sass::Instruction &ins, uint32_t exec);

/** One flattened micro-op: statically resolved per-instruction facts. */
struct MicroOp
{
    /** Scalar exec function; null when the op has none (%clock, a
     *  register out of budget, or not an ALU op). */
    AluFn alu = nullptr;

    /** Lane-vectorized exec function (simt/simd/), the same op body
     *  as alu on the eight-lane pack; null when the op stays on the
     *  scalar tier. Which of the two a superblock run calls is a
     *  per-launch decision (LaunchOptions::simd), so programs are
     *  shared across simd on/off. */
    AluFn simd = nullptr;

    ExecClass cls = ExecClass::Alu;
    GuardKind guard = GuardKind::PerLane;
    bool countsAsMem = false; //!< Feeds LaunchStats::memWarpInstrs.

    /** 1-based id of the superblock headed here, 0 otherwise. */
    uint16_t sb = 0;

    /** 1-based id of the site run headed here, 0 otherwise. */
    uint16_t site = 0;
};

/**
 * A maximal straight-line run of unpredicated fast-path ALU
 * micro-ops within one basic block, with its statistics
 * contributions pre-aggregated so the executor charges them once
 * per run instead of once per instruction.
 */
struct Superblock
{
    uint32_t start = 0; //!< First instruction index of the run.
    uint32_t len = 0;   //!< Number of instructions in the run.

    /** How many of the run's instructions are SASSI-injected. */
    uint32_t syntheticInstrs = 0;

    /** How many of the run's uops have a vectorized exec function
     *  (pre-counted so runs charge the uop/simd dispatch counters
     *  without a per-instruction test). */
    uint32_t simdUops = 0;

    /** Per-opcode issue counts of one pass over the run. */
    std::vector<std::pair<sass::Opcode, uint32_t>> opcodeCounts;
};

/** The compiled micro-program of one kernel. */
class MicroProgram
{
  public:
    /** Shortest instruction run worth forming a superblock for. */
    static constexpr uint32_t MinSuperblockLen = 2;

    explicit MicroProgram(const ir::Kernel &kernel,
                          const UopConfig &cfg = {});

    /** @return the micro-op at an instruction index. */
    const MicroOp &
    at(uint32_t pc) const
    {
        return uops_[pc];
    }

    /** @return the superblock with a MicroOp::sb id (1-based). */
    const Superblock &
    superblock(uint16_t id) const
    {
        return superblocks_[static_cast<size_t>(id) - 1];
    }

    /** @return number of micro-ops (== kernel instructions). */
    size_t size() const { return uops_.size(); }

    /** @return all superblocks, in program order. */
    const std::vector<Superblock> &
    superblocks() const
    {
        return superblocks_;
    }

    /** @return total instructions covered by superblocks. */
    size_t superblockInstrs() const;

    /** @return the site run with a MicroOp::site id (1-based). */
    const SiteRun &
    siteRun(uint16_t id) const
    {
        return site_runs_[static_cast<size_t>(id) - 1];
    }

    /** @return all compiled site runs, in program order. */
    const std::vector<SiteRun> &
    siteRuns() const
    {
        return site_runs_;
    }

    /** @return total instructions covered by site runs. */
    size_t siteRunInstrs() const;

  private:
    std::vector<MicroOp> uops_;
    std::vector<Superblock> superblocks_;
    std::vector<SiteRun> site_runs_;
};

/**
 * Process-wide tally of micro-op compiles and dispatch-plane usage,
 * published as "uop/..." metrics. It holds no programs: those live
 * on the Device that launches them. All entry points are
 * thread-safe.
 */
class UopCache
{
  public:
    /** The process-wide tally. */
    static UopCache &global();

    /** Credit a device's compile of a kernel: "uop/cache/compiles",
     *  the program's "uop/static/..." shape, and each fused site's
     *  spill bytes. */
    void noteCompile(const std::string &kernel_name,
                     const MicroProgram &prog);

    /** Credit a launch that reused its device's compiled program
     *  ("uop/cache/hits"). */
    void noteReuse();

    /** Credit a finished launch's dispatch-plane usage: superblock
     *  runs, SIMD-tier vector vs scalar uops, and handler dispatches
     *  (inline, fiber, fused heads that fell back, and frame-template
     *  bytes written inline). A group that is all zero writes no
     *  keys. */
    void noteUsage(const DispatchUsage &u);

    /** @return a copy of the tally: compile/reuse counters,
     *  superblock-length histogram, and dynamic run totals, under
     *  "uop/...". Process-wide (not launch-scoped), so the
     *  per-launch registry stays identical whether superblocks are
     *  on or off. */
    Metrics snapshot() const;

  private:
    mutable std::mutex mutex_;
    Metrics metrics_;
};

} // namespace sassi::simt

#endif // SASSI_SIMT_DECODE_H
