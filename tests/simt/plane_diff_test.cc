/**
 * @file
 * The plane-differential suite: SASSI's transparency contract,
 * checked across the simulator's dispatch planes.
 *
 * However a tool is dispatched, its handlers must see the same state
 * and the application must compute the same result (paper §3). The
 * simulator has five dispatch planes -- the generic per-instruction
 * step, batched superblocks, the AVX2 SIMD uop tier, fused
 * instrumentation sites and fiber handler dispatch -- selected per
 * launch by the LaunchOptions plane switches. This suite runs the
 * fuzz oracle's mode table (fuzz::kModes) over hand-written inputs:
 *
 *  - a row is a subject at one worker-thread count: a suite workload
 *    (uninstrumented), or the stress kernel under one tool;
 *  - a column is a dispatch mode, compared with the generic mode at
 *    the same thread count on the oracle's rendered observables:
 *    outcome and message, fuzz::statsKeyOf, the metrics registry,
 *    fuzz::ToolBox::key, and device output.
 *
 * One gtest case is one subject under one column group, named
 * `All/<Group>Diff.WorkloadObservablesMatch/<workload>` or
 * `<Group>HandlerDiff.<Tool>`; the fast-path group adds the
 * error-injection census, a register-writing handler and two handler
 * faults. `HandlerInlineDiff.<case>`, `ErrorToolDiff.<case>` (the
 * census and one armed error per destination class) and
 * `IdleSiteDiff.<case>` (fused visits that run no handler body, mixed
 * with live ones) and `StackPtrSiteDiff.<Tool>` (register info on an
 * instruction naming R1, which must stay generic) compare fused_simd
 * with simd, the fast path the only switch between them. The
 * workload cases, the `ErrorToolDiff` and `IdleSiteDiff` cases and
 * `StackPtrSiteDiff.ErrorInjector` are fiber-free, so the TSan
 * preset runs them; the other handler rows dispatch on fibers and
 * run in the default preset only.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/sassi.h"
#include "fuzz/oracle.h"
#include "handlers/error_injector.h"
#include "handlers/mem_tracer.h"
#include "sassir/builder.h"
#include "util/hash.h"
#include "workloads/suite.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using fuzz::DispatchMode;
using fuzz::RunObservation;
using fuzz::ToolBox;
using sassi::ir::KernelBuilder;
using sassi::ir::Label;

namespace {

constexpr int kSerialAndTwo[] = {1, 2};
constexpr int kSerialAndWide[] = {1, 8};
constexpr int kAllThreads[] = {1, 2, 8};

/** The modes one gtest case compares with generic. */
struct Group
{
    const char *name;

    /** Compared at every thread count of the group. */
    std::span<const DispatchMode> modes;
    std::span<const int> threads;

    /** Superblocks off with another switch left on: generic too, as
     *  the executor must ignore the switch. Compared serially. */
    std::optional<DispatchMode> ignored;

    /** Fused sites need instrumentation, so the fast-path group
     *  skips the (uninstrumented) workloads. */
    bool workloads;
};

const DispatchMode kSuperblockModes[] = {fuzz::mode("superblock")};
const DispatchMode kSimdModes[] = {fuzz::mode("simd")};
const DispatchMode kFastpathModes[] = {fuzz::mode("fused"),
                                       fuzz::mode("fused_simd")};

/**
 * The column groups. Between them they run every row at 1, 2 and 8
 * workers; at 8 the SIMD and fused_simd columns already compare
 * superblocks on with generic, so the superblock group stops at 2.
 */
const Group kGroups[] = {
    {"Superblock", kSuperblockModes, kSerialAndTwo,
     DispatchMode{"generic+fp+simd", 0, 1, 1}, true},
    {"Simd", kSimdModes, kSerialAndWide,
     DispatchMode{"generic+fp", 0, 1, 0}, true},
    {"Fastpath", kFastpathModes, kAllThreads, std::nullopt, false},
};

LaunchOptions
planeOptions(LaunchOptions o, const DispatchMode &m, int threads)
{
    o.numThreads = threads;
    o.superblocks = m.sb;
    o.handlerFastpath = m.fp;
    o.simd = m.sd;
    return o;
}

/** Expect a run to match the generic run on every observable. */
void
expectSameAs(const RunObservation &ref, const RunObservation &obs)
{
    ASSERT_EQ(obs.outcome, ref.outcome) << obs.message;
    EXPECT_EQ(obs.message, ref.message);
    EXPECT_EQ(obs.statsKey, ref.statsKey) << "LaunchStats differ";
    EXPECT_EQ(obs.metricsKey, ref.metricsKey)
        << "metrics registry differs";
    EXPECT_EQ(obs.toolKey, ref.toolKey) << "tool aggregate differs";
    EXPECT_EQ(obs.digest, ref.digest) << "device output differs";
}

using RunFn = std::function<RunObservation(const DispatchMode &, int)>;

/** Compare each of modes with generic at each thread count, and
 *  the ignored-switch mode, if any, serially. */
void
expectPlanesAgree(std::span<const DispatchMode> modes,
                  std::span<const int> threadCounts,
                  const std::optional<DispatchMode> &ignored,
                  const RunFn &run)
{
    for (int threads : threadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const RunObservation ref = run(fuzz::mode("generic"), threads);
        for (const DispatchMode &m : modes) {
            SCOPED_TRACE(m.name);
            expectSameAs(ref, run(m, threads));
        }
        if (threads == 1 && ignored) {
            SCOPED_TRACE(ignored->name);
            expectSameAs(ref, run(*ignored, threads));
        }
    }
}

/// @name Workload rows
/// @{

const std::vector<workloads::SuiteEntry> &
suite()
{
    static const std::vector<workloads::SuiteEntry> s =
        workloads::fullSuite();
    return s;
}

/**
 * One uninstrumented run of a suite workload; the thread count
 * overrides the workload's own pin. Serially every observable is
 * deterministic. With more workers the CTA interleaving of racy
 * workloads (BFS worklists, histo's saturating bins) legitimately
 * varies their instruction mix and, within verify()'s tolerance,
 * their output, so only outcome, message and verify() count there.
 */
RunObservation
runWorkload(const workloads::SuiteEntry &e, const DispatchMode &m,
            int threads)
{
    auto w = e.make();
    w->launchOptions = planeOptions(w->launchOptions, m, threads);
    Device dev;
    w->setup(dev);
    const LaunchResult r = w->run(dev);
    EXPECT_TRUE(r.ok()) << r.message;
    EXPECT_TRUE(r.ok() && w->verify(dev)) << e.name;
    RunObservation obs;
    obs.outcome = r.outcome;
    obs.message = r.message;
    if (threads == 1) {
        obs.statsKey = fuzz::statsKeyOf(dev.totalStats());
        obs.metricsKey = dev.metrics().serialize();
        obs.digest = w->outputHash(dev);
    }
    return obs;
}

/// @}
/// @name Stress-kernel rows
/// @{

constexpr int kCtas = 8;
constexpr int kBlock = 64;

/**
 * One kernel exercising every site class the tools instrument and
 * every uop class the fast tiers run: a per-thread trip-count loop
 * over an integer ALU run (IADD/SHL/SHR/LOP/IMAD) and a float leg
 * (I2F/FMUL/FFMA/FSETP feeding a SEL), registers 14 and 15 live
 * across the loop, a divergent diamond (live predicates), a carry
 * chain (live CC at the IADD.X) and strided global traffic. Takes
 * one u32[kCtas*kBlock] buffer argument.
 */
ir::Kernel
stressKernel()
{
    KernelBuilder kb("stress");
    kb.s2r(4, SpecialReg::TidX);
    kb.s2r(5, SpecialReg::CtaIdX);
    kb.s2r(6, SpecialReg::NTidX);
    kb.imad(7, 5, 6, 4); // gid

    // &buf[gid]
    kb.ldc(16, 0, 8);
    kb.shl(10, 7, 2);
    kb.iaddcc(16, 16, 10);
    kb.iaddx(17, 17, RZ);
    kb.ldg(12, 16);

    // Loop (tid & 3) + 1 times: the exec mask shrinks 32, 24, 16, 8.
    kb.lopi(LogicOp::And, 8, 4, 3);
    kb.iaddi(8, 8, 1);
    kb.mov32i(9, 0);
    kb.mov32i(14, 0x5a5a);
    kb.mov32i(15, 7);
    kb.mov32i(21, 0x3f000000); // 0.5f
    Label top = kb.newLabel();
    Label done = kb.newLabel();
    Label out = kb.newLabel();
    kb.ssy(out);
    kb.bind(top);
    kb.isetp(0, CmpOp::GE, 9, 8);
    kb.onP(0).bra(done);
    kb.iadd(12, 12, 7);
    kb.shl(13, 12, 3);
    kb.lop(LogicOp::Xor, 12, 12, 13);
    kb.imad(12, 12, 9, 4);
    kb.imad(14, 14, 15, 12);
    kb.shr(13, 12, 7);
    kb.lopi(LogicOp::And, 13, 13, 0xff);
    kb.iadd(12, 12, 13);
    kb.i2f(20, 12);
    kb.fmul(22, 20, 21);
    kb.ffma(22, 22, 21, 20);
    kb.fsetp(2, CmpOp::GT, 22, 20);
    kb.sel(23, 12, 13, 2);
    kb.iadd(12, 12, 23);
    kb.iaddi(9, 9, 1);
    kb.bra(top);
    kb.bind(done);
    kb.sync();
    kb.bind(out);

    // Divergent diamond on tid parity.
    Label else_ = kb.newLabel();
    Label join = kb.newLabel();
    kb.lopi(LogicOp::And, 11, 4, 1);
    kb.isetpi(1, CmpOp::EQ, 11, 0);
    kb.ssy(join);
    kb.onP(1).bra(else_);
    kb.iadd(12, 12, 14);
    kb.sync();
    kb.bind(else_);
    kb.lopi(LogicOp::Xor, 12, 12, 0x33);
    kb.sync();
    kb.bind(join);

    kb.stg(16, 0, 12);
    kb.exit();
    return kb.finish();
}

/** A kernel (the stress kernel by default) on a fresh device,
 *  instrumented with opts. */
class StressRun
{
  public:
    explicit StressRun(const core::InstrumentOptions &opts,
                       ir::Kernel kernel = stressKernel())
        : kernel_(kernel.name)
    {
        ir::Module mod;
        mod.kernels.push_back(std::move(kernel));
        dev.loadModule(std::move(mod));
        rt.instrument(opts);
        std::vector<uint32_t> init(kCtas * kBlock);
        for (size_t i = 0; i < init.size(); ++i)
            init[i] = static_cast<uint32_t>(i * 2654435761u);
        buf_ = dev.malloc(init.size() * 4);
        dev.memcpyHtoD(buf_, init.data(), init.size() * 4);
    }

    /** Launch in mode m; observe everything but the tool. */
    RunObservation
    launch(const DispatchMode &m, int threads,
           LaunchResult *result = nullptr, LaunchOptions base = {})
    {
        KernelArgs args;
        args.addU64(buf_);
        const LaunchResult r =
            dev.launch(kernel_, Dim3(kCtas), Dim3(kBlock), args,
                       planeOptions(base, m, threads));
        RunObservation obs;
        obs.outcome = r.outcome;
        obs.message = r.message;
        obs.statsKey = fuzz::statsKeyOf(r.stats);
        // A faulting launch stops the other workers wherever they
        // were: its LaunchStats are merged up to the faulting CTA,
        // but its registry and device memory hold whatever the other
        // workers had done by then.
        if (r.ok()) {
            obs.metricsKey = r.metrics.serialize();
            std::vector<uint32_t> mem(kCtas * kBlock);
            dev.memcpyDtoH(mem.data(), buf_, mem.size() * 4);
            obs.digest = fnv1a(mem.data(), mem.size() * 4);
        }
        if (result)
            *result = r;
        return obs;
    }

    Device dev;
    core::SassiRuntime rt{dev};

  private:
    std::string kernel_;
    uint64_t buf_ = 0;
};

/** A tool the stress kernel runs under. */
struct ToolRow
{
    const char *name;
    core::InstrumentOptions (*options)();
    ToolBox (*make)(Device &, core::SassiRuntime &, int threads);
};

template <fuzz::ToolKind K>
ToolRow
oracleTool(const char *name)
{
    return {name, [] { return fuzz::toolOptions(K); },
            [](Device &dev, core::SassiRuntime &rt, int) {
                return ToolBox(K, dev, rt);
            }};
}

/**
 * Serially, MemTracer's key is the oracle's ordered trace. With more
 * workers CTA interleaving reorders records and renumbers warp
 * events, so the key is each event's sorted record group, the groups
 * sorted: which accesses coalesced into one warp event must match.
 */
ToolBox
memTracer(Device &dev, core::SassiRuntime &rt, int threads)
{
    if (threads == 1)
        return ToolBox(fuzz::ToolKind::MemTracer, dev, rt);
    return ToolBox::make<handlers::MemTracer>(
        dev, rt, [](const handlers::MemTracer &t) {
            using Access = std::tuple<int32_t, uint64_t, int, bool>;
            std::map<uint32_t, std::vector<Access>> byEvent;
            for (const auto &r : t.trace())
                byEvent[r.warpEvent].push_back(
                    {r.insAddr, r.address, r.width, r.isStore});
            std::vector<std::vector<Access>> groups;
            for (auto &[event, accesses] : byEvent) {
                std::sort(accesses.begin(), accesses.end());
                groups.push_back(std::move(accesses));
            }
            std::sort(groups.begin(), groups.end());
            std::ostringstream out;
            for (const auto &g : groups) {
                for (const auto &[ins, addr, width, store] : g)
                    out << ins << ':' << addr << ':' << width << ':'
                        << store << ' ';
                out << '\n';
            }
            return out.str();
        });
}

/** Every per-thread count of a census, register writes then stores. */
std::string
censusKey(const handlers::ErrorInjectionProfiler &t)
{
    std::ostringstream out;
    for (const auto *profiles : {&t.profiles(), &t.storeProfiles()}) {
        for (const auto &p : *profiles) {
            out << p.kernel << '#' << p.invocation << ':';
            for (uint32_t c : p.perThread)
                out << ' ' << c;
            out << '\n';
        }
        out << "--\n";
    }
    return out.str();
}

/** The error-injection census: a reentrant-safe lane loop, so it
 *  runs inline on fused sites and generically otherwise. */
ToolBox
census(Device &dev, core::SassiRuntime &rt, int)
{
    return ToolBox::make<handlers::ErrorInjectionProfiler>(dev, rt,
                                                           censusKey);
}

/**
 * The tool rows. InstrCounter's warp handler also guards the
 * per-(site, warp) handler-environment arenas: interleaved sites and
 * warps must each see their own bound environment, so a count that
 * drifts in the fused columns means arena keying broke.
 */
const ToolRow kTools[] = {
    oracleTool<fuzz::ToolKind::InstrCounter>("InstrCounter"),
    oracleTool<fuzz::ToolKind::BlockCounter>("BlockCounter"),
    oracleTool<fuzz::ToolKind::BranchProfiler>("BranchProfiler"),
    oracleTool<fuzz::ToolKind::MemDivProfiler>("MemDivProfiler"),
    oracleTool<fuzz::ToolKind::ValueProfiler>("ValueProfiler"),
    {"MemTracer",
     [] { return fuzz::toolOptions(fuzz::ToolKind::MemTracer); },
     memTracer},
};

/**
 * A reentrant-safe after-handler that rewrites registers: every LOP
 * result gains 1 through SetRegValue. On the fused path the write
 * must reach the register through the epilogue's replayed fills, as
 * it does through the generic epilogue, so the device output matches.
 */
void
addRegisterWriter(core::SassiRuntime &rt,
                  core::HandlerTraits traits = {})
{
    traits.warpSynchronous = false;
    traits.reentrantSafe = true;
    rt.setAfterHandler([](const core::HandlerEnv &env) {
        if (!env.bp.GetInstrWillExecute() ||
            env.bp.GetOpcode() != Opcode::LOP)
            return;
        for (int d = 0; d < env.rp.GetNumGPRDsts(); ++d) {
            const core::SASSIGPRRegInfo dst = env.rp.GetGPRDst(d);
            env.rp.SetRegValue(dst, env.rp.GetRegValue(dst) + 1);
        }
    }, traits);
}

ToolBox
registerWriter(Device &, core::SassiRuntime &rt, int)
{
    addRegisterWriter(rt);
    return {};
}

core::InstrumentOptions
registerWriterOptions()
{
    core::InstrumentOptions o;
    o.afterRegWrites = true;
    o.registerInfo = true;
    return o;
}

/** The fast-path group's extra rows: fusing must run the census's
 *  lane loop inline with the same counts, and carry a fused
 *  handler's register writes into the register file. */
const ToolRow kFastpathRows[] = {
    {"ErrorInjectionProfiler",
     [] { return handlers::ErrorInjectionProfiler::options(); }, census},
    {"RegisterWriter", registerWriterOptions, registerWriter},
};

RunObservation
runTool(const ToolRow &tool, const DispatchMode &m, int threads)
{
    StressRun run(tool.options());
    const ToolBox box = tool.make(run.dev, run.rt, threads);
    RunObservation obs = run.launch(m, threads);
    EXPECT_TRUE(obs.outcome == Outcome::Ok) << obs.message;
    obs.toolKey = box.key();
    return obs;
}

/**
 * A case that switches the fast path alone: fused_simd against simd,
 * whose handlers run on fibers or lane loops under the same
 * superblock and SIMD tiers; `tool` names the kTools row it runs.
 */
struct InlineCase
{
    const char *name;
    const char *tool;
    std::span<const int> threads;
};

constexpr int kSerial[] = {1};
constexpr int kWide[] = {8};

/** The warp-body tools that left the fiber path, MemTracer under
 *  each of its keys, and InstrCounter as the arena guard. */
const InlineCase kInlineCases[] = {
    {"ValueProfiler", "ValueProfiler", kSerialAndWide},
    {"MemTracerSerial", "MemTracer", kSerial},
    {"MemTracerParallelCanonicalized", "MemTracer", kWide},
    {"InstrCounterArenaStability", "InstrCounter", kSerial},
};

/** Compare simd with fused_simd at each thread count (default: 1
 *  and 8 workers). */
void
fastPathAgrees(const RunFn &run,
               std::span<const int> threadCounts = kSerialAndWide)
{
    for (int threads : threadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectSameAs(run(fuzz::mode("simd"), threads),
                     run(fuzz::mode("fused_simd"), threads));
    }
}

void
inlineMatchesFiber(const InlineCase &c)
{
    const ToolRow &tool =
        *std::ranges::find_if(kTools, [&c](const ToolRow &t) {
            return std::string_view(t.name) == c.tool;
        });
    fastPathAgrees(
        [&tool](const DispatchMode &m, int threads) {
            return runTool(tool, m, threads);
        },
        c.threads);
}

/// @}
/// @name Error-tool rows
/// @{

/**
 * Both error tools are reentrant-safe lane loops with no warp body,
 * so simd runs them generically and fused_simd inline: the fast path
 * is the only switch. No case dispatches on fibers, so the TSan
 * preset runs them.
 */
RunObservation
runCensus(bool stores, const DispatchMode &m, int threads)
{
    StressRun run(handlers::ErrorInjectionProfiler::options(stores));
    const handlers::ErrorInjectionProfiler census(run.dev, run.rt,
                                                  1 << 16, stores);
    RunObservation obs = run.launch(m, threads);
    EXPECT_TRUE(obs.outcome == Outcome::Ok) << obs.message;
    obs.toolKey = censusKey(census);
    return obs;
}

/** The thread every injection targets: CTA 4, warp 1, lane 12; its
 *  loop runs once, as (tid & 3) + 1 = 1. */
constexpr uint64_t kInjectThread = 300;

/** Ends a corrupted loop fast; the clean kernel runs well under it. */
constexpr uint64_t kInjectWatchdog = 400'000;

/** One armed error of the stress kernel's thread kInjectThread. */
struct InjectionCase
{
    const char *name;
    handlers::InjectionMode mode;
    uint64_t instrIndex; //!< Its k-th eligible instruction.
    uint64_t dstSeed;
    uint64_t bitSeed;
    const char *flips; //!< What the description must name.
    Outcome outcome;
};

/**
 * The thread's eligible register writes are S2R x3, IMAD, LDC,
 * SHL (0-5), the IADD.CC (6: R16 and CC), IADD.X, LDG, LOP, the
 * trip-count IADD (10), four MOV32Is (11-14, R14 at 12), and the
 * loop's ISETP (15: P0 alone). Its only store is the STG of R12 to
 * [R16:R17].
 */
const InjectionCase kInjections[] = {
    {"InjectGpr", handlers::InjectionMode::DestReg, 12, 0, 3,
     "R14 bit 3", Outcome::Ok},
    {"InjectPredicate", handlers::InjectionMode::DestReg, 15, 0, 0,
     "P0", Outcome::Ok},
    // The IADD.X takes the flipped carry into the address high word.
    {"InjectCC", handlers::InjectionMode::DestReg, 6, 1, 0, "CC",
     Outcome::MemFault},
    // Bit 30 of the trip count: the loop runs ~2^30 times.
    {"InjectHang", handlers::InjectionMode::DestReg, 10, 0, 30,
     "R8 bit 30", Outcome::Hang},
    {"InjectStoreValue", handlers::InjectionMode::StoreValue, 0, 0, 5,
     "R12 bit 5", Outcome::Ok},
    // R16 lies above the handler's register cap, so the flip goes
    // straight to the register file on both paths.
    {"InjectStoreAddress", handlers::InjectionMode::StoreAddress, 0, 0,
     2, "R16 bit 2", Outcome::Ok},
};

/** One error-injection run; a hang is compared on its outcome only,
 *  since where the watchdog stops the other warps is a detail. */
RunObservation
runInjection(const ir::Kernel &kernel, const handlers::InjectionSite &site,
             const char *flips, const DispatchMode &m, int threads,
             LaunchResult *result = nullptr)
{
    const bool stores = site.mode != handlers::InjectionMode::DestReg;
    StressRun run(handlers::ErrorInjector::options(stores), kernel);
    const handlers::ErrorInjector injector(run.dev, run.rt, site);
    LaunchOptions base;
    base.watchdog = kInjectWatchdog;
    RunObservation obs = run.launch(m, threads, result, base);
    EXPECT_TRUE(injector.injected());
    const std::string what =
        std::string(handlers::injectionModeName(site.mode)) + ' ' +
        flips + " @";
    EXPECT_EQ(injector.description().rfind(what, 0), 0u)
        << injector.description();
    obs.toolKey = injector.description();
    if (obs.outcome == Outcome::Hang) {
        obs.message.clear();
        obs.statsKey.clear();
    }
    return obs;
}

RunObservation
runInjectionCase(const InjectionCase &c, const DispatchMode &m,
                 int threads)
{
    handlers::InjectionSite site;
    site.kernelName = "stress";
    site.thread = kInjectThread;
    site.instrIndex = c.instrIndex;
    site.dstSeed = c.dstSeed;
    site.bitSeed = c.bitSeed;
    site.mode = c.mode;
    RunObservation obs =
        runInjection(stressKernel(), site, c.flips, m, threads);
    EXPECT_TRUE(obs.outcome == c.outcome) << outcomeName(obs.outcome);
    return obs;
}

/// @}
/// @name Idle-visit rows
/// @{

/**
 * A fused visit that runs no handler body writes only the frame slots
 * read back after its JCAL (SiteRun::idleStores). Each row mixes idle
 * and live visits in every CTA and checks how many are idle; both
 * run lane loops, so they are fiber-free.
 */
struct IdleCase
{
    const char *name;
    core::InstrumentOptions (*options)();
    void (*install)(core::SassiRuntime &rt);
    /** The fused run's idle visit count, from its result (null:
     *  only checked to be neither none nor all). */
    uint64_t (*expectedIdle)(LaunchResult &r);
};

/** Before and after sites with spill elision: spills go to
 *  persistent slots, which later sites fill from without
 *  re-spilling, so an idle visit must still write them. */
core::InstrumentOptions
beforeAndAfterOptions()
{
    core::InstrumentOptions o = registerWriterOptions();
    o.beforeAll = true;
    o.elideRedundantSpills = true;
    return o;
}

const IdleCase kIdleCases[] = {
    // The writer's warp filter accepts odd warp ranks only: in each
    // two-warp CTA, warp 0's visits are idle and warp 1's live. The
    // writes raise warp 1's loop trip counts, so the split is uneven.
    {"OddWarpRegisterWriter", registerWriterOptions,
     [](core::SassiRuntime &rt) {
         core::HandlerTraits traits;
         traits.warpFilter = [](Executor &, Warp &warp,
                                const core::SiteInfo &) {
             return (warp.rank & 1) != 0;
         };
         addRegisterWriter(rt, traits);
     },
     nullptr},
    // Only the after handler is registered: every before visit idles.
    {"NullBeforeHandler", beforeAndAfterOptions,
     [](core::SassiRuntime &rt) { addRegisterWriter(rt); },
     [](LaunchResult &r) {
         return r.metrics.counter("core/dispatch/flavor/before");
     }},
    // Only a (no-op) before handler is registered: every after visit
    // idles. An after site is where a register's new value reaches
    // its persistent slot, and the next site fills from it; a frame
    // that dropped the slot would corrupt the register.
    {"NullAfterHandler", beforeAndAfterOptions,
     [](core::SassiRuntime &rt) {
         core::HandlerTraits traits;
         traits.warpSynchronous = false;
         traits.reentrantSafe = true;
         rt.setBeforeHandler([](const core::HandlerEnv &) {}, traits);
     },
     [](LaunchResult &r) {
         return r.metrics.counter("core/dispatch/flavor/after");
     }},
};

RunObservation
runIdleCase(const IdleCase &c, const DispatchMode &m, int threads)
{
    StressRun run(c.options());
    c.install(run.rt);
    LaunchResult r;
    RunObservation obs = run.launch(m, threads, &r);
    EXPECT_TRUE(obs.outcome == Outcome::Ok) << obs.message;
    EXPECT_EQ(r.dispatch.inlineFallbacks, 0u);
    if (m.fp) {
        EXPECT_GT(r.dispatch.idleHandlerCalls, 0u);
        EXPECT_LT(r.dispatch.idleHandlerCalls,
                  r.dispatch.inlineHandlerCalls);
        if (c.expectedIdle) {
            EXPECT_EQ(r.dispatch.idleHandlerCalls, c.expectedIdle(r));
        }
    } else {
        EXPECT_EQ(r.dispatch.idleHandlerCalls, 0u);
    }
    return obs;
}

/// @}
/// @name Stack-pointer sites
/// @{

/**
 * A kernel whose register writes name R1: it moves the stack pointer
 * down 16 bytes, round-trips gid through [R1] and moves it back, then
 * stores gid to buf[gid]. The pass never spills R1, so a handler's
 * GetRegValue(R1) reads the live register, which the fused path has
 * not yet lowered by the frame; the three sites naming R1 (both
 * IADDs and the LDL) must therefore stay generic.
 */
ir::Kernel
stackPtrKernel()
{
    KernelBuilder kb("stackptr");
    kb.s2r(4, SpecialReg::TidX);
    kb.s2r(5, SpecialReg::CtaIdX);
    kb.s2r(6, SpecialReg::NTidX);
    kb.imad(7, 5, 6, 4);
    kb.iaddi(sass::abi::StackPtr, sass::abi::StackPtr, -16);
    kb.stl(sass::abi::StackPtr, 0, 7);
    kb.ldl(8, sass::abi::StackPtr, 0);
    kb.iaddi(sass::abi::StackPtr, sass::abi::StackPtr, 16);
    kb.ldc(16, 0, 8);
    kb.shl(10, 7, 2);
    kb.iaddcc(16, 16, 10);
    kb.iaddx(17, 17, RZ);
    kb.stg(16, 0, 8);
    kb.exit();
    return kb.finish();
}

constexpr uint64_t kStackPtrSitesPerWarp = 3;

/** ValueProfiler records R1 at the IADDs: the planes must agree, and
 *  every R1 site of every warp falls back from the fused path. */
void
stackPtrValueProfiler()
{
    fastPathAgrees([](const DispatchMode &m, int threads) {
        StressRun run(fuzz::toolOptions(fuzz::ToolKind::ValueProfiler),
                      stackPtrKernel());
        const ToolBox box(fuzz::ToolKind::ValueProfiler, run.dev, run.rt);
        LaunchResult r;
        RunObservation obs = run.launch(m, threads, &r);
        EXPECT_TRUE(obs.outcome == Outcome::Ok) << obs.message;
        EXPECT_EQ(r.dispatch.inlineFallbacks,
                  m.fp ? kStackPtrSitesPerWarp * kCtas * kBlock / 32
                       : 0u);
        obs.toolKey = box.key();
        return obs;
    });
}

/**
 * Bit 8 of R1 after the first IADD. Instrumentation grows the 4 KB
 * local window by a frame and 0x40, to 0x1120, so R1 is 0x1110 after
 * the IADD. Generically the handler sees 0x1110 minus the frame,
 * 0x1030: setting bit 8 moves the frame to 0x1130, past the window,
 * and the epilogue's first fill faults. In a fused site it would see
 * 0x1110, clear the bit, and the kernel would run on in bounds.
 */
void
stackPtrInjector()
{
    handlers::InjectionSite site;
    site.kernelName = "stackptr";
    site.thread = kInjectThread;
    site.instrIndex = 4;
    site.bitSeed = 8;
    fastPathAgrees([&site](const DispatchMode &m, int threads) {
        LaunchResult r;
        RunObservation obs = runInjection(stackPtrKernel(), site,
                                          "R1 bit 8", m, threads, &r);
        EXPECT_TRUE(obs.outcome == Outcome::MemFault) << obs.message;
        EXPECT_EQ(r.dispatch.inlineFallbacks > 0, m.fp != 0);
        return obs;
    });
}

/// @}
/// @name Handler faults
/// @{

/** Below Device::GlobalBase: no device allocation covers it. */
constexpr uint64_t kUnmapped = 0x40;

/** Whether env is the stress kernel's store site in warp 1 of CTA 5
 *  (the STG is its only store; every lane of the warp is active). */
bool
isFaultSite(const core::HandlerEnv &env)
{
    return env.blockIdx.x == 5 && env.threadIdx.x / 32 == 1 &&
           env.bp.IsMem() && env.mp.IsStore();
}

core::InstrumentOptions
faultOptions()
{
    core::InstrumentOptions o;
    o.beforeAll = true;
    o.memoryInfo = true;
    return o;
}

/** The fault cases compare every fast tier on with generic. */
const DispatchMode kFaultModes[] = {fuzz::mode("fused_simd")};

/**
 * A reentrant-safe handler with no warp body is a lane loop on every
 * plane: generic without fused sites, fused with them. One lane
 * loads an unmapped address; every mode must report the same fault,
 * at the same point, with the same statistics.
 */
void
laneFaultMatchesAcrossPaths()
{
    auto run = [](const DispatchMode &m, int threads) {
        StressRun stress(faultOptions());
        core::HandlerTraits traits;
        traits.warpSynchronous = false;
        traits.reentrantSafe = true;
        stress.rt.setBeforeHandler([](const core::HandlerEnv &h) {
            if (isFaultSite(h) && h.lane == 5)
                (void)cuda::devLoad32(kUnmapped);
        }, traits);
        LaunchResult r;
        RunObservation obs = stress.launch(m, threads, &r);
        EXPECT_TRUE(obs.outcome == Outcome::MemFault);
        EXPECT_NE(obs.message.find("0x40"), std::string::npos)
            << obs.message;
        EXPECT_EQ(r.dispatch.inlineHandlerCalls > 0, m.sb && m.fp)
            << "inline calls " << r.dispatch.inlineHandlerCalls;
        return obs;
    };
    expectPlanesAgree(kFaultModes, kSerialAndWide, std::nullopt, run);
}

/**
 * A warp-synchronous handler without a warp body runs on fibers on
 * every plane. Lane 5 faults before the ballot; its fiber finishes,
 * the other 31 lanes' ballot completes without it, and the launch
 * reports the fault once the group has drained.
 */
void
warpSynchronousFaultDrainsFiberGroup()
{
    auto run = [](const DispatchMode &m, int threads) {
        StressRun stress(faultOptions());
        std::atomic<uint32_t> ballotSeen{0};
        stress.rt.setBeforeHandler([&](const core::HandlerEnv &h) {
            const bool site = isFaultSite(h);
            if (site && h.lane == 5)
                (void)cuda::devLoad32(kUnmapped);
            const uint32_t mask = cuda::ballot(1);
            if (site && h.lane == 6)
                ballotSeen = mask;
        });
        LaunchResult r;
        RunObservation obs = stress.launch(m, threads, &r);
        EXPECT_TRUE(obs.outcome == Outcome::MemFault);
        EXPECT_NE(obs.message.find("0x40"), std::string::npos)
            << obs.message;
        EXPECT_EQ(ballotSeen.load(), ~(1u << 5));
        EXPECT_EQ(r.dispatch.inlineHandlerCalls, 0u);
        return obs;
    };
    expectPlanesAgree(kFaultModes, kSerialAndWide, std::nullopt, run);
}

/// @}
/// @name Registration
/// @{

/** The fixture of every registered case: it runs a stored body. */
class PlaneCase : public ::testing::Test
{
  public:
    explicit PlaneCase(std::function<void()> body)
        : body_(std::move(body))
    {
    }

    void TestBody() override { body_(); }

  private:
    std::function<void()> body_;
};

void
add(const std::string &suiteName, const std::string &name,
    const char *param, std::function<void()> body)
{
    ::testing::RegisterTest(suiteName.c_str(), name.c_str(), nullptr,
                            param, __FILE__, __LINE__,
                            [body]() -> PlaneCase * {
                                return new PlaneCase(body);
                            });
}

std::string
identifier(const std::string &name)
{
    std::string out;
    for (char c : name)
        out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    return out;
}

[[maybe_unused]] const bool kRegistered = [] {
    for (const Group &g : kGroups) {
        const std::string stem = g.name;
        const size_t workloads = g.workloads ? suite().size() : 0;
        for (size_t i = 0; i < workloads; ++i) {
            add("All/" + stem + "Diff",
                "WorkloadObservablesMatch/" + identifier(suite()[i].name),
                std::to_string(i).c_str(), [&g, i] {
                    expectPlanesAgree(
                        g.modes, g.threads, g.ignored,
                        [i](const DispatchMode &m, int threads) {
                            return runWorkload(suite()[i], m, threads);
                        });
                });
        }
        for (const ToolRow &t : kTools) {
            add(stem + "HandlerDiff", t.name, nullptr, [&g, &t] {
                expectPlanesAgree(
                    g.modes, g.threads, g.ignored,
                    [&t](const DispatchMode &m, int threads) {
                        return runTool(t, m, threads);
                    });
            });
        }
    }
    for (const ToolRow &t : kFastpathRows) {
        add("FastpathHandlerDiff", t.name, nullptr, [&t] {
            expectPlanesAgree(kFastpathModes, kAllThreads, std::nullopt,
                              [&t](const DispatchMode &m, int threads) {
                                  return runTool(t, m, threads);
                              });
        });
    }
    add("FastpathHandlerDiff", "LaneFaultMatchesAcrossPaths", nullptr,
        laneFaultMatchesAcrossPaths);
    add("FastpathHandlerDiff", "WarpSynchronousFaultDrainsFiberGroup",
        nullptr, warpSynchronousFaultDrainsFiberGroup);
    for (const InlineCase &c : kInlineCases)
        add("HandlerInlineDiff", c.name, nullptr,
            [&c] { inlineMatchesFiber(c); });
    for (bool stores : {false, true}) {
        add("ErrorToolDiff", stores ? "CensusWithStores" : "Census",
            nullptr, [stores] {
                fastPathAgrees([stores](const DispatchMode &m, int t) {
                    return runCensus(stores, m, t);
                });
            });
    }
    for (const InjectionCase &c : kInjections) {
        add("ErrorToolDiff", c.name, nullptr, [&c] {
            fastPathAgrees([&c](const DispatchMode &m, int threads) {
                return runInjectionCase(c, m, threads);
            });
        });
    }
    for (const IdleCase &c : kIdleCases) {
        add("IdleSiteDiff", c.name, nullptr, [&c] {
            fastPathAgrees([&c](const DispatchMode &m, int threads) {
                return runIdleCase(c, m, threads);
            });
        });
    }
    add("StackPtrSiteDiff", "ValueProfiler", nullptr,
        stackPtrValueProfiler);
    add("StackPtrSiteDiff", "ErrorInjector", nullptr, stackPtrInjector);
    return true;
}();

/// @}

} // namespace
