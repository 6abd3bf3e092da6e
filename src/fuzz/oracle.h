/**
 * @file
 * The differential oracle: one program, every configuration.
 *
 * A generated program's architectural output is, by construction
 * (generator.h), a pure function of the program text. The oracle
 * exploits that: it runs the program across the full configuration
 * matrix — {superblocks off, on} x {compiled-handler fast path off,
 * on} x {worker threads 1, 2, 8} x {uninstrumented, each
 * instrumentation tool} — and demands that
 * every observable which should be invariant actually is:
 *
 *  - final output/accumulator memory digest: identical everywhere;
 *  - launch outcome: identical everywhere (a program that faults
 *    must fault the same way in every configuration);
 *  - LaunchStats and the metrics registry: identical within one
 *    tool across thread counts and superblock modes (both are
 *    documented thread-count-invariant, and the superblock fast
 *    path is observationally equivalent by contract);
 *  - tool aggregates: identical across superblock modes at one
 *    worker thread (MemTracer order and ValueProfiler values are
 *    legitimately thread-count-dependent, so cross-thread-count
 *    comparison would false-positive).
 *
 * Any violation is a bug in the interpreter, the superblock
 * compiler, the parallel scheduler, the SASSI pass, or a handler.
 */

#ifndef SASSI_FUZZ_ORACLE_H
#define SASSI_FUZZ_ORACLE_H

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.h"
#include "fuzz/coverage.h"
#include "fuzz/program.h"
#include "simt/launch.h"

namespace sassi::core {
class SassiRuntime;
}

namespace sassi::simt {
class Device;
}

namespace sassi::fuzz {

/** Instrumentation dimension of the config matrix. */
enum class ToolKind {
    None,           //!< Uninstrumented baseline.
    InstrCounter,   //!< beforeAll + memoryInfo.
    BlockCounter,   //!< blockHeaders.
    BranchProfiler, //!< beforeCondBranch + branchInfo.
    MemDivProfiler, //!< beforeMem + memoryInfo.
    ValueProfiler,  //!< afterRegWrites + registerInfo.
    MemTracer,      //!< beforeMem + memoryInfo (trace collection).
};

constexpr int kNumToolKinds = 7;

/** @return a printable name for a tool kind. */
const char *toolName(ToolKind t);

/** @return the InstrumentOptions the given tool requires. */
core::InstrumentOptions toolOptions(ToolKind t);

/** One cell of the configuration matrix. */
struct OracleConfig
{
    ToolKind tool = ToolKind::None;
    int threads = 1;
    int superblocks = 0;

    /** Compiled-handler fast path (fused instrumentation sites).
     *  Only meaningful with superblocks on — the fused sites live in
     *  the same micro-program variant. */
    int handlerFastpath = 0;

    /** SIMD interpreter tier (lane-vectorized superblock uops).
     *  Only meaningful with superblocks on; on a host without AVX2
     *  the scalar tier runs either way, so the dimension collapses
     *  harmlessly. */
    int simd = 0;

    /** @return e.g.\ "tool=instr_counter threads=8 superblocks=1
     *  fastpath=1 simd=1". */
    std::string describe() const;
};

/**
 * One dispatch mode: the values of the three LaunchOptions plane
 * switches (superblocks, handlerFastpath, simd) a run uses.
 */
struct DispatchMode
{
    const char *name;
    int sb, fp, sd;
};

/**
 * The dispatch modes the oracle sweeps, kModes[0] being the generic
 * plane every other mode must match: superblocks off, on (scalar and
 * SIMD uop tiers), and on with the compiled-handler fast path (again
 * both tiers). Fast path or SIMD without superblocks are not
 * distinct modes -- fused sites and the vector tier both live under
 * the superblock executor, so the flags are ignored there.
 */
inline constexpr DispatchMode kModes[] = {{"generic", 0, 0, 0},
                                          {"superblock", 1, 0, 0},
                                          {"simd", 1, 0, 1},
                                          {"fused", 1, 1, 0},
                                          {"fused_simd", 1, 1, 1}};

/**
 * @return the kModes row called name. Evaluated at compile time, so
 * naming a mode the table no longer has fails to compile.
 */
consteval const DispatchMode &
mode(std::string_view name)
{
    for (const DispatchMode &m : kModes) {
        if (name == m.name)
            return m;
    }
    throw "no dispatch mode of that name";
}

/** @return the LaunchStats counters, rendered for comparison. */
std::string statsKeyOf(const simt::LaunchStats &s);

/**
 * Owns the tool one run is instrumented with and renders its
 * aggregate into a comparable string after the launch. Construct it
 * after SassiRuntime::instrument(), so the tool's handlers register
 * against final, instrumented code.
 */
class ToolBox
{
  public:
    /** No tool: key() is empty. */
    ToolBox() = default;

    /** One of the oracle's tools, rendered the oracle's way. */
    ToolBox(ToolKind kind, simt::Device &dev, core::SassiRuntime &rt);

    /** Any tool constructible as Tool(dev, rt), rendered by
     *  render(const Tool &). */
    template <typename Tool, typename Render>
    static ToolBox
    make(simt::Device &dev, core::SassiRuntime &rt, Render render)
    {
        ToolBox box;
        auto tool = std::make_shared<const Tool>(dev, rt);
        box.key_ = [tool, render] { return render(*tool); };
        return box;
    }

    /** @return the tool's aggregate, rendered (empty for no tool). */
    std::string key() const { return key_ ? key_() : std::string(); }

  private:
    std::function<std::string()> key_;
};

/** Everything observed from one run of one configuration. */
struct RunObservation
{
    simt::Outcome outcome = simt::Outcome::Ok;
    std::string message;

    /** FNV-1a over the output then accumulator buffers. */
    uint64_t digest = 0;

    /** LaunchStats counters, rendered. */
    std::string statsKey;

    /** The launch's metrics registry, serialized. */
    std::string metricsKey;

    /** The tool's aggregate output, rendered (empty for None). */
    std::string toolKey;

    /** Dispatch planes the run exercised (coverage.h Plane bits). */
    uint32_t planes = 0;

    /** Max divergence-stack depth the run observed. */
    uint32_t maxDivDepth = 0;
};

/** The oracle's verdict on one program. */
enum class OracleStatus {
    Pass,           //!< Every invariant held.
    Mismatch,       //!< Configurations disagreed: a real bug.
    InvalidProgram, //!< Faults identically everywhere; uninteresting.
};

/** @return a printable name for a status. */
const char *oracleStatusName(OracleStatus s);

/** Which invariant a mismatch violated (triage axis). */
enum class MismatchKind {
    None,          //!< No mismatch (status != Mismatch).
    Outcome,       //!< Launch outcome differed from baseline.
    Digest,        //!< Output/accumulator memory digest differed.
    Stats,         //!< LaunchStats differed within one tool.
    Metrics,       //!< Metrics registry differed within one tool.
    ToolAggregate, //!< Tool output differed across dispatch modes.
};

/** @return a printable name for a mismatch kind. */
const char *mismatchKindName(MismatchKind k);

/** Knobs of one oracle evaluation. */
struct OracleOptions
{
    /** Worker-thread counts to sweep. */
    std::vector<int> threadCounts = {1, 2, 8};

    /** Sweep every tool; false = uninstrumented configs only. */
    bool withTools = true;

    /** Per-worker watchdog budget for every run. Generated programs
     *  retire a few thousand instructions; anything approaching this
     *  bound is a hang. */
    uint64_t watchdog = 20'000'000;

    /**
     * Test hook: mutate the module copy a configuration is about to
     * run (e.g.\ mis-compile one opcode only when superblocks are
     * on). This is how the fuzzer's own tests prove the oracle
     * catches interpreter bugs without shipping one.
     */
    std::function<void(ir::Module &, const OracleConfig &)> moduleTweak;
};

/** The oracle's verdict plus the first violated invariant. */
struct OracleReport
{
    OracleStatus status = OracleStatus::Pass;

    /** Human-readable description of the first mismatch. */
    std::string message;

    /** Configurations executed. */
    int configsRun = 0;

    /** Which invariant broke (None unless status == Mismatch). */
    MismatchKind kind = MismatchKind::None;

    /** The configuration that first violated an invariant. */
    OracleConfig badConfig;

    /**
     * The program's coverage signature: static shape/pairs plus the
     * planes and divergence depth observed across the whole sweep.
     * Filled for every status, so even failing programs feed the
     * campaign's coverage map.
     */
    CoverageSignature coverage;

    /**
     * Triage key of a mismatch: kind + tool + dispatch mode of the
     * offending configuration. Thread count is deliberately left
     * out — the same bug found at 2 and at 8 workers is one bucket —
     * so buckets are stable across thread-count sweeps. Empty when
     * the oracle passed.
     */
    std::string bucket() const;

    bool passed() const { return status == OracleStatus::Pass; }
};

/** Execute one configuration and collect its observables. */
RunObservation runConfig(const FuzzProgram &p, const OracleConfig &cfg,
                         const OracleOptions &opt = {});

/** Run the full matrix and check every invariant. */
OracleReport runOracle(const FuzzProgram &p,
                       const OracleOptions &opt = {});

} // namespace sassi::fuzz

#endif // SASSI_FUZZ_ORACLE_H
