/**
 * @file
 * Launch configuration, argument packing, statistics, and results.
 */

#ifndef SASSI_SIMT_LAUNCH_H
#define SASSI_SIMT_LAUNCH_H

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sass/opcode.h"
#include "simt/dim3.h"
#include "util/metrics.h"

namespace sassi::simt {

/**
 * Packs kernel parameters into the constant bank the kernel reads
 * with LDC, mirroring CUDA's parameter space c[0x0][...]. Arguments
 * are appended with natural alignment.
 */
class KernelArgs
{
  public:
    /** Append a 32-bit value. @return its byte offset. */
    size_t
    addU32(uint32_t v)
    {
        return append(&v, 4, 4);
    }

    /** Append a 32-bit float. @return its byte offset. */
    size_t
    addF32(float v)
    {
        return append(&v, 4, 4);
    }

    /** Append a 64-bit value (e.g.\ a device pointer). */
    size_t
    addU64(uint64_t v)
    {
        return append(&v, 8, 8);
    }

    /** @return the packed parameter bytes. */
    const std::vector<uint8_t> &bytes() const { return bytes_; }

  private:
    size_t
    append(const void *src, size_t n, size_t align)
    {
        size_t off = (bytes_.size() + align - 1) & ~(align - 1);
        bytes_.resize(off + n);
        std::memcpy(bytes_.data() + off, src, n);
        return off;
    }

    std::vector<uint8_t> bytes_;
};

/** Why a launch stopped. */
enum class Outcome {
    Ok,         //!< Ran to completion.
    MemFault,   //!< Out-of-bounds or unmapped access.
    InvalidPC,  //!< Control transferred outside the kernel.
    Hang,       //!< Watchdog expired or barrier deadlock.
    Trap,       //!< BPT executed.
};

/** @return a printable name for an outcome. */
const char *outcomeName(Outcome o);

/** Dynamic execution statistics of one launch. */
struct LaunchStats
{
    /** Warp-level instructions issued (one per warp per issue). */
    uint64_t warpInstrs = 0;

    /** Thread-level instructions (weighted by active lanes). */
    uint64_t threadInstrs = 0;

    /** Warp-level instructions that SASSI injected. */
    uint64_t syntheticWarpInstrs = 0;

    /** Instrumentation-handler invocations (one per warp per site). */
    uint64_t handlerCalls = 0;

    /** Modeled cost of handler bodies, in warp instructions. */
    uint64_t handlerCostInstrs = 0;

    /** Warp-level memory instructions. */
    uint64_t memWarpInstrs = 0;

    /** CTAs executed. */
    uint64_t ctas = 0;

    /** Per-opcode warp-instruction histogram. */
    std::array<uint64_t, sass::NumOpcodes> opcodeCounts{};

    /** Accumulate another launch's statistics. */
    void
    add(const LaunchStats &o)
    {
        warpInstrs += o.warpInstrs;
        threadInstrs += o.threadInstrs;
        syntheticWarpInstrs += o.syntheticWarpInstrs;
        handlerCalls += o.handlerCalls;
        handlerCostInstrs += o.handlerCostInstrs;
        memWarpInstrs += o.memWarpInstrs;
        ctas += o.ctas;
        for (size_t i = 0; i < opcodeCounts.size(); ++i)
            opcodeCounts[i] += o.opcodeCounts[i];
    }

    /**
     * Device-side "kernel time" proxy: issued warp instructions plus
     * the modeled handler cost. Table 3's K column is the ratio of
     * this between instrumented and baseline runs.
     */
    uint64_t
    kernelTimeProxy() const
    {
        return warpInstrs + handlerCostInstrs;
    }
};

/** Options modifying a single launch. */
struct LaunchOptions
{
    /** Dynamic shared memory bytes (added to the kernel's static). */
    uint32_t dynamicShared = 0;

    /** Warp-instruction budget before declaring a hang. In a
     *  parallel launch each worker gets the full budget (the serial
     *  path is unchanged). */
    uint64_t watchdog = 400'000'000;

    /**
     * Worker threads executing the CTA grid. CTAs are independent up
     * to global atomics, so they shard across scheduler chunks of
     * contiguous CTAs. LaunchStats merge in chunk (ascending CTA)
     * order, so which worker ran a chunk never shows; only the
     * metrics registry and the counter shards, whose merges commute,
     * merge in worker order. Both keep every LaunchStats counter and
     * the registry of a completed launch thread-count-invariant; a
     * faulting launch's stats stop at the faulting CTA, but its
     * registry keeps what other workers ran. 1 preserves the historical
     * strictly-serial execution byte for byte; 0 means auto — the
     * SASSI_SIM_THREADS environment variable when set, otherwise
     * hardware concurrency. Launches whose output depends on the
     * cross-CTA ordering of atomics (CAS/EXCH work queues, trace
     * collection) should pin this to 1.
     */
    int numThreads = 0;

    /**
     * Superblock fast path: execute straight-line runs of
     * unpredicated ALU micro-ops in one batched loop (see
     * simt/decode.h). Observationally equivalent to the generic
     * path; 0 forces the generic per-instruction path everywhere
     * (the differential-testing escape hatch), and any other value
     * (the default) turns the fast path on.
     */
    int superblocks = -1;

    /**
     * Compiled-handler fast path: materialize recognized
     * instrumentation-site bundles from prebuilt frame templates and
     * call reentrant-safe handlers inline, eliding the per-site
     * fiber round-trip (see simt/site_fuse.h). Observationally
     * equivalent to the fiber path; 0 forces every site through the
     * generic fiber dispatch (the differential-testing escape
     * hatch), and any other value (the default) turns it on. Only
     * effective when superblocks are enabled.
     */
    int handlerFastpath = -1;

    /**
     * SIMD interpreter tier: execute superblock uops for all 32
     * lanes at once with AVX2 (see simt/simd/simd_exec.h).
     * Observationally equivalent to the scalar tier; 0 forces every
     * uop through its scalar exec function (the
     * differential-testing escape hatch), and any other value (the
     * default) turns the tier on. Only effective when superblocks
     * are enabled and the machine has AVX2 — otherwise the scalar
     * tier runs regardless.
     */
    int simd = -1;
};

/**
 * Which dispatch planes one launch actually ran through, as raw
 * dynamic counts. These are the same totals the executor credits to
 * the process-wide UopCache tally ("uop/dynamic/...",
 * "uop/simd/...", "uop/handler/..."), exported per launch so
 * observers with concurrent launches in flight — the fuzz campaign's
 * coverage tracker foremost — can attribute them to a single run
 * without racing on the global registry. Deliberately NOT part of
 * LaunchResult::metrics: the per-launch registry is documented to be
 * identical across dispatch modes, which is exactly what these
 * counts are not.
 */
struct DispatchUsage
{
    uint64_t superblockRuns = 0;  //!< Batched superblock executions.
    uint64_t superblockInstrs = 0;//!< Warp instructions inside them.
    uint64_t vectorUops = 0;      //!< Uops executed lane-vectorized.
    uint64_t scalarUops = 0;      //!< SIMD-tier scalar fallbacks.
    uint64_t inlineHandlerCalls = 0; //!< Fused-site visits (idle ones
                                     //!< included).
    uint64_t idleHandlerCalls = 0;   //!< Fused visits that ran no
                                     //!< handler body.
    uint64_t fiberHandlerCalls = 0;  //!< Fiber-path dispatches.
    uint64_t inlineFallbacks = 0;    //!< Fused heads run generically.
    /** Spill bytes of fused visits: a live visit's whole spill/fill
     *  template, an idle visit only the spill stores it keeps. */
    uint64_t inlineSpillBytes = 0;

    /** Accumulate another worker's (or launch's) usage. */
    void
    add(const DispatchUsage &o)
    {
        superblockRuns += o.superblockRuns;
        superblockInstrs += o.superblockInstrs;
        vectorUops += o.vectorUops;
        scalarUops += o.scalarUops;
        inlineHandlerCalls += o.inlineHandlerCalls;
        idleHandlerCalls += o.idleHandlerCalls;
        fiberHandlerCalls += o.fiberHandlerCalls;
        inlineFallbacks += o.inlineFallbacks;
        inlineSpillBytes += o.inlineSpillBytes;
    }
};

/** The result of one kernel launch. */
struct LaunchResult
{
    Outcome outcome = Outcome::Ok;
    std::string message;
    LaunchStats stats;

    /** Dynamic dispatch-plane usage of this launch (see above). */
    DispatchUsage dispatch;

    /**
     * The launch's metrics registry: LaunchStats republished under
     * "simt/...", the interpreter's histograms (divergence-stack
     * depth, per-CTA warp instructions), spill/fill traffic, and
     * whatever the installed dispatcher recorded under "core/..."
     * during the launch. Worker shards merge in worker order, so
     * the registry is thread-count-invariant like LaunchStats.
     */
    Metrics metrics;

    /** @return true when the kernel completed without fault. */
    bool ok() const { return outcome == Outcome::Ok; }
};

} // namespace sassi::simt

#endif // SASSI_SIMT_LAUNCH_H
