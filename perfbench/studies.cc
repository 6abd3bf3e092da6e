/**
 * @file
 * The four workloads. Three are SASSI studies over the workload
 * suite: each op builds a fresh device, sets one application up,
 * optionally instruments it and attaches a tool, runs it, verifies
 * and collects — the calls a user's study makes. The fourth is a
 * differential-fuzz campaign.
 *
 * Before its window every study runs each distinct op once at one
 * simulator thread (the golden pass), and every measured op must
 * reproduce its golden op's simulated statistics exactly; the fuzz
 * campaign is likewise replayed with one shard and one simulator
 * thread. Only host time may differ between runs.
 */

#include "studies.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "core/runtime.h"
#include "cupti/callbacks.h"
#include "fuzz/campaign.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "handlers/branch_profiler.h"
#include "handlers/error_injector.h"
#include "handlers/memdiv_profiler.h"
#include "handlers/value_profiler.h"
#include "simt/decode.h"
#include "simt/device.h"
#include "util/rng.h"
#include "workloads/suite.h"

#include "spans.h"
#include "stats.h"

namespace sassibench {

void
Report::fail(uint64_t n, const std::string &why)
{
    if (n == 0)
        return;
    if (failed < 5)
        note("FAILED: " + why);
    failed += n;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "suite_profile", "hot_kernels", "inject_campaign",
        "fuzz_campaign"};
    return names;
}

namespace {

using namespace sassi;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
strf(const char *format, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(buf, sizeof(buf), format, ap);
    va_end(ap);
    return buf;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/**
 * Run fn(i) for every i in [0, n) on up to `threads` host threads
 * (inline when one suffices). Used for work whose timing is not
 * measured: goldens, and replays whose ops time themselves.
 */
void
forEachParallel(size_t n, int threads, const std::function<void(size_t)> &fn)
{
    const size_t workers =
        std::min(n, static_cast<size_t>(std::max(1, threads)));
    std::atomic<size_t> next{0};
    auto drain = [&] {
        for (size_t i; (i = next++) < n;)
            fn(i);
    };
    if (workers <= 1) {
        drain();
        return;
    }
    std::vector<std::thread> pool;
    for (size_t t = 0; t < workers; ++t)
        pool.emplace_back(drain);
    for (std::thread &t : pool)
        t.join();
}

/** Heap slack mapped for injection runs, as Figure 10 maps it. */
constexpr size_t kSlackBytes = 24u << 20;

/** Watchdog of injection runs, so corrupted control flow hangs fast. */
constexpr uint64_t kInjectWatchdog = 4'000'000;

/// @name Study ops
/// @{

enum class Tool { Bare, Branch, MemDiv, Value, Census, Inject };

const char *
toolName(Tool t)
{
    switch (t) {
      case Tool::Bare: return "bare";
      case Tool::Branch: return "branch_profiler";
      case Tool::MemDiv: return "memdiv_profiler";
      case Tool::Value: return "value_profiler";
      case Tool::Census: return "error_injection_profiler";
      case Tool::Inject: return "error_injector";
    }
    return "?";
}

core::InstrumentOptions
instrumentOptions(Tool t)
{
    switch (t) {
      case Tool::Branch: return handlers::BranchProfiler::options();
      case Tool::MemDiv: return handlers::MemDivProfiler::options();
      case Tool::Value: return handlers::ValueProfiler::options();
      case Tool::Census:
        return handlers::ErrorInjectionProfiler::options();
      case Tool::Inject: return handlers::ErrorInjector::options();
      case Tool::Bare: break;
    }
    return {};
}

/** One application of a study. */
struct App
{
    std::string name;
    std::function<std::unique_ptr<workloads::Workload>()> make;

    /**
     * Pinned to one simulator thread. histo's saturating increment is
     * racy across CTAs, so its instruction count depends on the CTA
     * interleaving at more than one thread.
     */
    bool serial = false;
};

std::vector<App>
appsOf(const std::vector<workloads::SuiteEntry> &suite)
{
    std::vector<App> apps;
    for (const auto &e : suite)
        apps.push_back({e.name, e.make, e.name == "histo"});
    return apps;
}

/** One op: an application run under one tool. */
struct OpSpec
{
    size_t app = 0;
    Tool tool = Tool::Bare;
    handlers::InjectionSite site; //!< Tool::Inject only.
};

/** The exact simulated observables of one op. */
struct OpStats
{
    simt::Outcome outcome = simt::Outcome::Ok;
    int injection = -1; //!< InjectionOutcome of an injection run.
    uint64_t warpInstrs = 0;
    uint64_t syntheticInstrs = 0;
    uint64_t handlerCalls = 0;
    uint64_t ctas = 0;
    uint64_t launches = 0;
    uint64_t kernelProxy = 0;
    uint64_t outputHash = 0;

    /** @return "" when equal to golden, else what differs. */
    std::string
    diff(const OpStats &golden) const
    {
        std::ostringstream out;
        auto cmp = [&](const char *what, uint64_t a, uint64_t b) {
            if (a != b)
                out << ' ' << what << '=' << a << " (golden " << b
                    << ')';
        };
        cmp("outcome", static_cast<uint64_t>(outcome),
            static_cast<uint64_t>(golden.outcome));
        cmp("injection_outcome", static_cast<uint64_t>(injection + 1),
            static_cast<uint64_t>(golden.injection + 1));
        cmp("launches", launches, golden.launches);
        // A hung launch stops wherever its workers' watchdog budgets
        // run out, which depends on the worker count; only the
        // outcome of a hang is exact.
        if (outcome != simt::Outcome::Hang) {
            cmp("warp_instrs", warpInstrs, golden.warpInstrs);
            cmp("synthetic_instrs", syntheticInstrs,
                golden.syntheticInstrs);
            cmp("handler_calls", handlerCalls, golden.handlerCalls);
            cmp("ctas", ctas, golden.ctas);
            cmp("kernel_proxy", kernelProxy, golden.kernelProxy);
        }
        // A corrupted run's output may depend on the CTA interleaving
        // (a flipped address can land in another CTA's data); its
        // outcome class stands in for the hash.
        if (injection < 0)
            cmp("output_hash", outputHash, golden.outputHash);
        return out.str();
    }
};

/** What one op produced and cost. */
struct OpResult
{
    OpStats stats;
    bool verified = false;
    double wallMs = 0;
    double launchMs = 0;   //!< Traced only: CUPTI launch->exit sum.
    uint64_t sites = 0;    //!< Instrumentation sites created.
    uint64_t spillBytes = 0;
    std::vector<handlers::ErrorInjectionProfiler::LaunchProfile>
        profiles; //!< Census ops only.
};

/** Whichever tool an op attaches, destroyed before its runtime. */
struct Tools
{
    std::unique_ptr<handlers::BranchProfiler> branch;
    std::unique_ptr<handlers::MemDivProfiler> memdiv;
    std::unique_ptr<handlers::ValueProfiler> value;
    std::unique_ptr<handlers::ErrorInjectionProfiler> census;
    std::unique_ptr<handlers::ErrorInjector> injector;

    void
    attach(const OpSpec &spec, simt::Device &dev, core::SassiRuntime &rt)
    {
        switch (spec.tool) {
          case Tool::Branch:
            branch = std::make_unique<handlers::BranchProfiler>(dev, rt);
            break;
          case Tool::MemDiv:
            memdiv = std::make_unique<handlers::MemDivProfiler>(dev, rt);
            break;
          case Tool::Value:
            value = std::make_unique<handlers::ValueProfiler>(dev, rt);
            break;
          case Tool::Census:
            census = std::make_unique<handlers::ErrorInjectionProfiler>(
                dev, rt);
            break;
          case Tool::Inject:
            injector = std::make_unique<handlers::ErrorInjector>(
                dev, rt, spec.site);
            break;
          case Tool::Bare:
            break;
        }
    }

    /** Read the tool's results back, as the study would. */
    void
    collect(const simt::Device &dev, OpResult &r) const
    {
        if (branch)
            branch->summarize(
                handlers::countStaticCondBranches(dev.module()));
        if (memdiv)
            memdiv->pmf();
        if (value)
            value->summarize();
        if (census)
            r.profiles = census->profiles();
    }
};

handlers::InjectionOutcome
categorize(const simt::LaunchResult &last, bool hashEqual)
{
    switch (last.outcome) {
      case simt::Outcome::Ok:
        return hashEqual ? handlers::InjectionOutcome::Masked
                         : handlers::InjectionOutcome::SDC;
      case simt::Outcome::Hang: return handlers::InjectionOutcome::Hang;
      case simt::Outcome::Trap:
        return handlers::InjectionOutcome::FailureSymptom;
      default: return handlers::InjectionOutcome::Crash;
    }
}

/**
 * Run one op on a fresh device at `threads` simulator threads (apps
 * that pin a count keep it). goldenHash classifies injection runs.
 */
OpResult
runOp(const App &app, const OpSpec &spec, int threads,
      uint64_t goldenHash)
{
    SpanLog &log = SpanLog::global();
    OpResult r;
    const Clock::time_point t0 = Clock::now();
    if (log.enabled())
        log.nextOp();
    {
        Span op("op", "bench");
        std::unique_ptr<workloads::Workload> w;
        {
            Span s("make", "workloads");
            w = app.make();
        }
        simt::LaunchOptions &lo = w->launchOptions;
        const int want = app.serial ? 1 : threads;
        lo.numThreads = lo.numThreads ? std::min(lo.numThreads, want)
                                      : want;
        lo.superblocks = 1;
        lo.handlerFastpath = 1;
        lo.simd = 1;
        if (spec.tool == Tool::Inject)
            lo.watchdog = kInjectWatchdog;

        std::unique_ptr<simt::Device> dev;
        {
            Span s("device", "simt");
            dev = std::make_unique<simt::Device>();
        }
        int launchSpan = -1;
        Clock::time_point launchStart;
        if (log.enabled()) {
            dev->callbacks().subscribe(
                [&](cupti::CallbackSite site, const cupti::CallbackData &) {
                    if (site == cupti::CallbackSite::KernelLaunch) {
                        launchSpan = log.open("launch", "simt");
                        launchStart = Clock::now();
                    } else if (launchSpan >= 0) {
                        r.launchMs += secondsSince(launchStart) * 1e3;
                        log.close(launchSpan);
                        launchSpan = -1;
                    }
                });
        }
        {
            Span s("setup", "workloads");
            w->setup(*dev);
        }
        if (spec.tool == Tool::Inject) {
            // Corrupted addresses mostly land in mapped memory, as on
            // hardware (see EXPERIMENTS.md on Figure 10).
            Span s("device", "simt");
            dev->mapSlack(kSlackBytes);
        }
        std::unique_ptr<core::SassiRuntime> rt;
        Tools tools;
        if (spec.tool != Tool::Bare) {
            {
                Span s("instrument", "core");
                rt = std::make_unique<core::SassiRuntime>(*dev);
                rt->instrument(instrumentOptions(spec.tool));
            }
            r.sites = rt->staticMetrics().counterValue("core/sites/total");
            r.spillBytes =
                rt->staticMetrics().counterValue("core/static/spill_bytes");
            Span s("attach", "handlers");
            tools.attach(spec, *dev, *rt);
        }

        simt::LaunchResult last;
        const uint64_t launches0 = dev->launches();
        {
            Span s("run", "workloads");
            dev->resetStats();
            last = w->run(*dev);
        }
        const simt::LaunchStats &total = dev->totalStats();
        OpStats &st = r.stats;
        st.outcome = last.outcome;
        st.warpInstrs = total.warpInstrs;
        st.syntheticInstrs = total.syntheticWarpInstrs;
        st.handlerCalls = total.handlerCalls;
        st.ctas = total.ctas;
        st.kernelProxy = total.kernelTimeProxy();
        st.launches = dev->launches() - launches0;
        {
            Span s("verify", "workloads");
            // Injection runs are judged by their output hash instead.
            r.verified = last.ok() &&
                         (spec.tool == Tool::Inject || w->verify(*dev));
            if (last.ok())
                st.outputHash = w->outputHash(*dev);
        }
        if (spec.tool == Tool::Inject)
            st.injection = static_cast<int>(
                categorize(last, st.outputHash == goldenHash));
        if (spec.tool != Tool::Bare) {
            Span s("collect", "handlers");
            tools.collect(*dev, r);
        }
        Span s("device", "simt");
        tools = Tools();
        rt.reset();
        dev.reset();
        w.reset();
    }
    r.wallMs = secondsSince(t0) * 1e3;
    return r;
}

/// @}
/// @name Studies
/// @{

/** A study: its applications and one pass of ops. */
struct Study
{
    std::vector<App> apps;
    std::vector<OpSpec> ops;          //!< One pass, in run order.
    std::vector<uint64_t> goldenHash; //!< Per app (injections).
    std::vector<double> bareLaunchMs; //!< Per app, traced bare runs.
    std::vector<double> censusK;      //!< Per app (inject_campaign).

    /** Measure whole passes (false: stop at any op boundary). */
    bool wholePasses = true;

    /**
     * Ops every window runs at least. The tail percentile is taken at
     * the level this count supports, so it stays fixed however many
     * more ops fit into the window.
     */
    size_t minOps = 0;

    /** Consecutive ops per rate sample: a pass, or a round of
     *  injections, whose cost depends on the outcomes drawn. */
    size_t chunk = 0;
};

/** The ops one stretch of measurement ran. */
struct Window
{
    std::vector<OpResult> results;
    std::vector<size_t> index; //!< Op index of each result.
    double seconds = 0;
    uint64_t firstOp = 0; //!< Span op ids [firstOp, lastOp].
    uint64_t lastOp = 0;

    /** Per chunk of Study::chunk ops: ops per second and
     *  non-injected simulated Minstr per second. Their medians are the
     *  window's rates, so a host stall or an expensive outlier op (a
     *  hung injection) moves one sample rather than the result. */
    std::vector<double> opsPerSec;
    std::vector<double> minstrPerSec;
};

/**
 * Cycle through the study's ops until `seconds` have passed and at
 * least minOps ran (and, for wholePasses, the pass is complete).
 */
Window
measure(const Study &st, int threads, double seconds, size_t minOps)
{
    Window w;
    w.firstOp = SpanLog::global().currentOp() + 1;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point chunkStart = t0;
    uint64_t chunkInstrs = 0;
    size_t i = 0;
    const size_t n = st.ops.size();
    while (w.results.size() < minOps || secondsSince(t0) < seconds ||
           (st.wholePasses && i % n != 0)) {
        const size_t k = i++ % n;
        const OpSpec &op = st.ops[k];
        w.results.push_back(runOp(st.apps[op.app], op, threads,
                                  st.goldenHash[op.app]));
        w.index.push_back(k);
        const OpStats &s = w.results.back().stats;
        chunkInstrs += s.warpInstrs - s.syntheticInstrs;
        if (i % st.chunk == 0) {
            const double secs = secondsSince(chunkStart);
            w.opsPerSec.push_back(static_cast<double>(st.chunk) / secs);
            w.minstrPerSec.push_back(
                static_cast<double>(chunkInstrs) * 1e-6 / secs);
            chunkStart = Clock::now();
            chunkInstrs = 0;
        }
    }
    w.seconds = secondsSince(t0);
    w.lastOp = SpanLog::global().currentOp();
    return w;
}

/**
 * The golden pass: every op once at one simulator thread. Ops are
 * independent, so untraced goldens run side by side on hostThreads
 * host threads; traced ones run serially, because their launch
 * times feed simt.parallel_speedup.
 */
Window
goldenPass(const Study &st, int hostThreads)
{
    Window w;
    w.firstOp = SpanLog::global().currentOp() + 1;
    w.results.resize(st.ops.size());
    for (size_t k = 0; k < st.ops.size(); ++k)
        w.index.push_back(k);
    forEachParallel(st.ops.size(), hostThreads, [&](size_t k) {
        const OpSpec &op = st.ops[k];
        w.results[k] =
            runOp(st.apps[op.app], op, 1, st.goldenHash[op.app]);
    });
    w.lastOp = SpanLog::global().currentOp();
    return w;
}

/**
 * Per-op wall times with every run of an op replaced by the median
 * of that op's runs in the window. A study's ops fall into a few
 * clusters of very different cost (bare and instrumented runs in
 * equal numbers), so a percentile lands on the edge between two
 * clusters; this keeps it off single extreme samples there.
 */
std::vector<double>
typicalLatencies(const Study &st, const Window &w)
{
    std::vector<std::vector<double>> byOp(st.ops.size());
    for (size_t i = 0; i < w.results.size(); ++i)
        byOp[w.index[i]].push_back(w.results[i].wallMs);
    std::vector<double> out;
    for (const std::vector<double> &runs : byOp)
        out.insert(out.end(), runs.size(), median(runs));
    return out;
}

/** Check a window op by op against the golden pass. */
void
check(const Study &st, const Window &golden, const Window &w,
      Report &rep)
{
    for (size_t i = 0; i < w.results.size(); ++i) {
        const size_t k = w.index[i];
        const OpSpec &op = st.ops[k];
        const OpResult &r = w.results[i];
        const std::string what =
            st.apps[op.app].name + " / " + toolName(op.tool);
        ++rep.attempted;
        if (op.tool != Tool::Inject && !r.verified) {
            rep.fail(1, what + ": " + simt::outcomeName(r.stats.outcome) +
                            ", output not verified");
            continue;
        }
        const std::string d = r.stats.diff(golden.results[k].stats);
        if (!d.empty())
            rep.fail(1, what + ": differs from the 1-thread golden:" + d);
    }
}

/** Sum of the window's span durations named `name`, and their count. */
struct SpanSum
{
    double ms = 0;
    uint64_t calls = 0;
    std::vector<double> samples;
};

SpanSum
spanSum(const char *name, const Window &w)
{
    SpanSum s;
    for (const SpanRecord &r : SpanLog::global().spans()) {
        if (r.op < w.firstOp || r.op > w.lastOp ||
            std::string_view(r.name) != name)
            continue;
        s.ms += r.ms();
        ++s.calls;
        s.samples.push_back(r.ms());
    }
    return s;
}

/** Process-wide uop-cache counter deltas across a stretch of work. */
struct UopDelta
{
    Metrics before;
    Metrics after;

    uint64_t
    operator()(std::string_view name) const
    {
        return after.counterValue(name) - before.counterValue(name);
    }
};

/** The per-layer metrics of a study from its traced window. */
void
addStudyLayers(Report &rep, const Study &st, const Window &golden,
               const Window &traced, const UopDelta &uop)
{
    const double ops = static_cast<double>(traced.results.size());
    const SpanSum make = spanSum("make", traced);
    const SpanSum setup = spanSum("setup", traced);
    const SpanSum instrument = spanSum("instrument", traced);
    const SpanSum device = spanSum("device", traced);
    const SpanSum attach = spanSum("attach", traced);
    const SpanSum launch = spanSum("launch", traced);
    const SpanSum run = spanSum("run", traced);
    const SpanSum verify = spanSum("verify", traced);
    const SpanSum collect = spanSum("collect", traced);

    rep.add("workloads.setup_ms", (make.ms + setup.ms) / ops, "ms");
    rep.add("core.instrument_ms", ratio(instrument.ms, instrument.calls),
            "ms");
    rep.add("simt.device_ms", device.ms / ops, "ms");
    rep.add("handlers.attach_ms", ratio(attach.ms, attach.calls), "ms");
    const Summary ls = summarize(launch.samples, launch.samples.size());
    rep.add("simt.launch_ms_p50", ls.p50, "ms");
    rep.add("simt.launch_ms_tail", ls.tail, "ms");
    rep.note(strf("simt.launch_ms_tail is p%g over %zu launches",
                  ls.tailLevel, ls.count));
    rep.add("workloads.host_self_ms", (run.ms - launch.ms) / ops, "ms");
    rep.add("handlers.collect_ms", ratio(collect.ms, collect.calls), "ms");
    rep.add("workloads.verify_ms", ratio(verify.ms, verify.calls), "ms");

    // Exact per-pass counts come from the golden pass.
    uint64_t launches = 0, ctas = 0, warp = 0, synthetic = 0, calls = 0;
    uint64_t sites = 0, spill = 0;
    for (const OpResult &r : golden.results) {
        launches += r.stats.launches;
        ctas += r.stats.ctas;
        warp += r.stats.warpInstrs;
        synthetic += r.stats.syntheticInstrs;
        calls += r.stats.handlerCalls;
        sites += r.sites;
        spill += r.spillBytes;
    }
    rep.add("simt.launches", static_cast<double>(launches), "count");
    rep.add("simt.ctas", static_cast<double>(ctas), "count");
    rep.add("core.sites", static_cast<double>(sites), "count");
    rep.add("core.spill_bytes", static_cast<double>(spill), "bytes");
    rep.add("simt.synthetic_warp_instrs", static_cast<double>(synthetic),
            "count");
    rep.add("simt.handler_calls", static_cast<double>(calls), "count");

    // Dispatch-plane shares over the golden pass.
    rep.add("simt.superblock_instr_frac",
            ratio(static_cast<double>(uop("uop/dynamic/superblock_instrs")),
                  static_cast<double>(warp)),
            "fraction");
    const double vec = static_cast<double>(uop("uop/simd/vector_uops"));
    const double sca = static_cast<double>(uop("uop/simd/scalar_uops"));
    rep.add("simt.vector_uop_frac", ratio(vec, vec + sca), "fraction");
    const double inl = static_cast<double>(uop("uop/handler/inline_calls"));
    const double fib = static_cast<double>(uop("uop/handler/fiber_calls"));
    rep.add("core.inline_call_frac", ratio(inl, inl + fib), "fraction");
    rep.add("core.inline_fallbacks",
            static_cast<double>(uop("uop/handler/inline_fallbacks")),
            "count");
    // Compiles per pass: SassiRuntime::instrument invalidates a
    // kernel's cached programs by name, so studies recompile.
    const double compiles = static_cast<double>(uop("uop/cache/compiles"));
    const double hits = static_cast<double>(uop("uop/cache/hits"));
    rep.add("simt.uop_compiles", compiles, "count");
    rep.add("simt.uop_hit_frac", ratio(hits, hits + compiles), "fraction");

    // Host time per simulated event, and per handler call beyond the
    // same application's bare launches.
    uint64_t tracedWarp = 0, tracedCalls = 0;
    double goldenLaunch = 0, extraMs = 0;
    for (size_t i = 0; i < traced.results.size(); ++i) {
        const OpResult &r = traced.results[i];
        const OpSpec &op = st.ops[traced.index[i]];
        tracedWarp += r.stats.warpInstrs;
        goldenLaunch += golden.results[traced.index[i]].launchMs;
        if (op.tool != Tool::Bare && r.stats.handlerCalls) {
            tracedCalls += r.stats.handlerCalls;
            extraMs += r.launchMs - st.bareLaunchMs[op.app];
        }
    }
    rep.add("simt.ns_per_warp_instr",
            ratio(launch.ms * 1e6, static_cast<double>(tracedWarp)), "ns");
    rep.add("core.ns_per_handler_call",
            ratio(extraMs * 1e6, static_cast<double>(tracedCalls)), "ns");
    rep.add("simt.parallel_speedup", ratio(goldenLaunch, launch.ms), "x");
}

/** Mean launch time of each app's bare ops in a traced window. */
void
noteBareLaunches(Study &st, const Window &w)
{
    std::vector<double> sum(st.apps.size(), 0);
    std::vector<int> n(st.apps.size(), 0);
    for (size_t i = 0; i < w.results.size(); ++i) {
        const OpSpec &op = st.ops[w.index[i]];
        if (op.tool == Tool::Bare) {
            sum[op.app] += w.results[i].launchMs;
            ++n[op.app];
        }
    }
    for (size_t a = 0; a < st.apps.size(); ++a)
        if (n[a])
            st.bareLaunchMs[a] = sum[a] / n[a];
}

Study
profileStudy(std::vector<App> apps, std::vector<Tool> tools)
{
    Study st;
    st.apps = std::move(apps);
    for (size_t a = 0; a < st.apps.size(); ++a)
        for (Tool t : tools)
            st.ops.push_back({a, t, {}});
    st.minOps = st.ops.size();
    st.chunk = st.ops.size();
    st.goldenHash.assign(st.apps.size(), 0);
    st.bareLaunchMs.assign(st.apps.size(), 0);
    return st;
}

Study
suiteStudy(bool smoke)
{
    std::vector<App> apps = appsOf(workloads::fullSuite());
    if (smoke) {
        std::vector<App> few;
        for (const App &a : apps)
            if (a.name == "vecadd" || a.name == "histo" ||
                a.name == "bfs (UT)")
                few.push_back(a);
        apps = few;
    }
    return profileStudy(apps, {Tool::Bare, Tool::Branch, Tool::MemDiv,
                               Tool::Value});
}

Study
hotStudy(bool smoke)
{
    using namespace workloads;
    // Long, few-CTA kernels: interpreter tiers dominate, not fixed
    // per-launch or per-CTA cost.
    std::vector<App> apps =
        smoke ? std::vector<App>{
                    {"tpacf (128)", [] { return makeTpacf(128, 16); }},
                    {"lavaMD (4x32)", [] { return makeLavamd(4, 32); }}}
              : std::vector<App>{
                    {"tpacf (512)", [] { return makeTpacf(512, 16); }},
                    {"sgemm (96)", [] { return makeSgemm(96, "hot"); }},
                    {"sad (8192)", [] { return makeSad(8192); }},
                    {"lavaMD (32x128)", [] { return makeLavamd(32, 128); }}};
    Study st = profileStudy(apps, {Tool::Bare, Tool::Value});
    st.minOps = 5 * st.ops.size();
    return st;
}

/** Model K of an instrumented golden op against its app's bare op. */
std::vector<double>
kernelSlowdowns(const Study &st, const Window &golden)
{
    std::vector<uint64_t> bare(st.apps.size(), 0);
    for (size_t k = 0; k < st.ops.size(); ++k)
        if (st.ops[k].tool == Tool::Bare)
            bare[st.ops[k].app] = golden.results[k].stats.kernelProxy;
    std::vector<double> ks;
    for (size_t k = 0; k < st.ops.size(); ++k)
        if (st.ops[k].tool != Tool::Bare && bare[st.ops[k].app])
            ks.push_back(static_cast<double>(
                             golden.results[k].stats.kernelProxy) /
                         static_cast<double>(bare[st.ops[k].app]));
    return ks;
}

/// @}
/// @name Fuzz
/// @{

/** The oracle's dispatch modes, as the 5-plane matrix names them. */
struct Mode
{
    const char *name;
    int sb, fp, sd;
};
constexpr Mode kModes[] = {{"generic", 0, 0, 0},
                           {"sb", 1, 0, 0},
                           {"sb_simd", 1, 0, 1},
                           {"sb_fp", 1, 1, 0},
                           {"all", 1, 1, 1}};

/** Generator seed of the fixed programs the replay times. */
constexpr uint64_t kReplaySeed = 0x5a551;

/** LaunchStats counters parsed back out of RunObservation::statsKey. */
struct ParsedStats
{
    bool ok = false;
    unsigned long long warp = 0, synthetic = 0, handlerCost = 0;
};

ParsedStats
parseStats(const std::string &key)
{
    ParsedStats p;
    unsigned long long thread = 0, calls = 0;
    p.ok = std::sscanf(key.c_str(),
                       "warp=%llu thread=%llu synthetic=%llu "
                       "handlerCalls=%llu handlerCost=%llu",
                       &p.warp, &thread, &p.synthetic, &calls,
                       &p.handlerCost) == 5;
    return p;
}

/** One program replayed over the oracle's config matrix. */
struct ReplayExec
{
    double ms = 0; //!< Wall of all its configs: one oracle exec.
    std::vector<std::pair<const char *, double>> modeMs, toolMs;
    uint64_t appInstrs = 0; //!< Non-injected warp instructions.
    std::vector<double> ks; //!< Per tool: modeled K against none.
    bool good = true;
};

/**
 * Evaluate generated program `index` over the oracle's matrix (every
 * tool, mode and thread count) one config at a time through
 * fuzz::runConfig — the work of one oracle exec, timed per config —
 * and check that outcome and digest agree everywhere and that stats
 * agree within each tool.
 */
ReplayExec
replayOne(uint64_t index, const std::vector<int> &threadCounts)
{
    ReplayExec out;
    const fuzz::FuzzProgram p = fuzz::generateProgram(kReplaySeed, index);
    fuzz::OracleOptions oo;
    oo.threadCounts = threadCounts;
    if (SpanLog::global().enabled())
        SpanLog::global().nextOp();
    Span op("op", "bench");
    const Clock::time_point t0 = Clock::now();
    fuzz::RunObservation base;
    std::map<int, std::string> toolStats;
    std::map<int, uint64_t> proxy; // all-planes mode, one thread
    bool first = true;
    for (int t = 0; t < fuzz::kNumToolKinds; ++t) {
        const auto tool = static_cast<fuzz::ToolKind>(t);
        for (const Mode &m : kModes) {
            for (int threads : threadCounts) {
                const fuzz::OracleConfig cfg{tool, threads, m.sb, m.fp,
                                             m.sd};
                const Clock::time_point c0 = Clock::now();
                fuzz::RunObservation obs;
                {
                    Span s("config", "fuzz");
                    obs = fuzz::runConfig(p, cfg, oo);
                }
                const double ms = secondsSince(c0) * 1e3;
                out.modeMs.emplace_back(m.name, ms);
                out.toolMs.emplace_back(fuzz::toolName(tool), ms);
                if (first) {
                    base = obs;
                    first = false;
                }
                out.good &= obs.outcome == base.outcome &&
                            obs.digest == base.digest;
                if (obs.outcome != simt::Outcome::Ok)
                    continue;
                auto [it, fresh] = toolStats.emplace(t, obs.statsKey);
                out.good &= fresh || it->second == obs.statsKey;
                const ParsedStats ps = parseStats(obs.statsKey);
                out.good &= ps.ok;
                out.appInstrs += ps.warp - ps.synthetic;
                if (m.sb && m.fp && m.sd && threads == 1)
                    proxy[t] = ps.warp + ps.handlerCost;
            }
        }
    }
    out.ms = secondsSince(t0) * 1e3;
    for (const auto &[t, k] : proxy)
        if (t != 0 && proxy[0])
            out.ks.push_back(static_cast<double>(k) /
                             static_cast<double>(proxy[0]));
    return out;
}

/** Replays of programs [0, programs), with their wall. */
struct Replay
{
    std::vector<ReplayExec> execs;
    double seconds = 0;
    uint64_t firstOp = 0, lastOp = 0;
};

/**
 * Replay `programs` fixed generated programs, side by side on
 * hostThreads host threads (as a campaign's shards run them) or
 * serially when traced.
 */
Replay
replay(uint64_t programs, const std::vector<int> &threadCounts,
       int hostThreads, Report &rep)
{
    Replay out;
    out.execs.resize(programs);
    out.firstOp = SpanLog::global().currentOp() + 1;
    const Clock::time_point t0 = Clock::now();
    forEachParallel(programs, hostThreads, [&](size_t i) {
        out.execs[i] = replayOne(i, threadCounts);
    });
    out.seconds = secondsSince(t0);
    out.lastOp = SpanLog::global().currentOp();
    for (size_t i = 0; i < programs; ++i) {
        ++rep.attempted;
        if (!out.execs[i].good)
            rep.fail(1, strf("fuzz replay program %zu: configs disagree",
                             i));
    }
    return out;
}

void
addFuzzConfigLayers(Report &rep, const Replay &r)
{
    std::map<std::string, std::pair<double, size_t>> byMode, byTool;
    for (const ReplayExec &e : r.execs) {
        for (const auto &[name, ms] : e.modeMs) {
            byMode[name].first += ms;
            ++byMode[name].second;
        }
        for (const auto &[name, ms] : e.toolMs) {
            byTool[name].first += ms;
            ++byTool[name].second;
        }
    }
    for (const Mode &m : kModes)
        rep.add(std::string("fuzz.config_ms.") + m.name,
                ratio(byMode[m.name].first,
                      static_cast<double>(byMode[m.name].second)),
                "ms");
    for (int t = 0; t < fuzz::kNumToolKinds; ++t) {
        const char *name = fuzz::toolName(static_cast<fuzz::ToolKind>(t));
        rep.add(std::string("fuzz.config_ms.tool.") + name,
                ratio(byTool[name].first,
                      static_cast<double>(byTool[name].second)),
                "ms");
    }
}

fuzz::CampaignOptions
campaignOptions(uint64_t seed, uint64_t iters, int jobs,
                std::vector<int> threadCounts)
{
    fuzz::CampaignOptions o;
    o.seed = seed;
    o.iters = iters;
    o.jobs = jobs;
    o.oracle.withTools = true;
    o.oracle.threadCounts = std::move(threadCounts);
    return o;
}

/** A campaign's exact identity, compared against its 1-thread run. */
std::string
campaignKey(const fuzz::CampaignResult &r)
{
    return strf("corpus=%016" PRIx64 " coverage=%zu buckets=[%s]",
                r.corpusHash(), r.coverage.size(), r.bucketsKey().c_str());
}

/// @}

/** Report the median of per-chunk rates, noting their spread. */
void
addRate(Report &rep, const char *name, const std::vector<double> &rates,
        const char *unit)
{
    rep.add(name, median(rates), unit);
    rep.note(strf("%s: median of %zu chunk rates (min %.4g, max %.4g)",
                  name, rates.size(),
                  rates.empty() ? 0.0
                                : *std::min_element(rates.begin(),
                                                    rates.end()),
                  rates.empty() ? 0.0
                                : *std::max_element(rates.begin(),
                                                    rates.end())));
}

void
addLatency(Report &rep, const std::vector<double> &ms, size_t minCount,
           const char *what)
{
    const Summary s = summarize(ms, minCount);
    rep.add("op_p50_ms", s.p50, "ms");
    rep.add("op_tail_ms", s.tail, "ms");
    rep.note(strf("op_tail_ms is p%g over %zu %s (median over the same)",
                  s.tailLevel, s.count, what));
}

void
addSelfTimes(Report &rep)
{
    // One line per layer, hornet's per-component report shape.
    rep.note("layer       calls     total_ms      self_ms  self_%");
    double self = 0;
    const std::vector<LayerTime> layers = SpanLog::global().layerTimes();
    for (const LayerTime &t : layers)
        self += t.selfMs;
    for (const LayerTime &t : layers)
        rep.note(strf("%-10s %6" PRIu64 " %12.2f %12.2f %6.1f%%",
                      t.layer.c_str(), t.calls, t.totalMs, t.selfMs,
                      100 * ratio(t.selfMs, self)));
}

/// @name Workload runners
/// @{

/**
 * A study workload: set-up (warm-up or census), the 1-thread golden
 * pass, the window, and the checks.
 */
Report
runStudy(const Options &opt, Study st, bool inject)
{
    Report rep;
    SpanLog &log = SpanLog::global();
    const size_t sitesPerApp = opt.smoke ? 2 : 10;

    // Set-up: fill the uop cache and spawn the worker pool.
    if (inject) {
        // Figure 10's first steps: a bare run, the census of
        // injectable instructions (its output is the golden hash),
        // a warm bare run, and host-side site selection.
        st.goldenHash.assign(st.apps.size(), 0);
        st.bareLaunchMs.assign(st.apps.size(), 0);
        st.censusK.assign(st.apps.size(), 0);
        std::vector<std::vector<handlers::InjectionSite>> sites;
        for (size_t a = 0; a < st.apps.size(); ++a) {
            const OpResult bare = runOp(st.apps[a], {a, Tool::Bare, {}},
                                        opt.threads, 0);
            const OpResult census = runOp(
                st.apps[a], {a, Tool::Census, {}}, opt.threads, 0);
            const OpResult warm = runOp(st.apps[a], {a, Tool::Bare, {}},
                                        opt.threads, 0);
            rep.attempted += 3;
            if (!bare.verified || !census.verified || !warm.verified)
                rep.fail(1, st.apps[a].name + ": set-up run not verified");
            st.goldenHash[a] = census.stats.outputHash;
            st.bareLaunchMs[a] = warm.launchMs;
            st.censusK[a] = ratio(
                static_cast<double>(census.stats.kernelProxy),
                static_cast<double>(bare.stats.kernelProxy));
            Rng rng = Rng(opt.seed).split(a);
            sites.push_back(handlers::selectInjectionSites(
                census.profiles, sitesPerApp, rng));
        }
        // Interleave the apps so any prefix of the pass mixes them.
        for (size_t j = 0; j < sitesPerApp; ++j)
            for (size_t a = 0; a < st.apps.size(); ++a)
                if (j < sites[a].size())
                    st.ops.push_back({a, Tool::Inject, sites[a][j]});
        st.wholePasses = false;
        // Half a pass is guaranteed, which fixes the tail at p75: at
        // p90 it would flip between hang and non-hang latencies with
        // the handful of hangs a seed happens to draw.
        st.minOps = st.ops.size() / 2;
        st.chunk = 2 * st.apps.size();
    } else {
        const Window warm = measure(st, opt.threads, 0, st.ops.size());
        for (const OpResult &r : warm.results)
            if (!r.verified)
                rep.fail(1, "warm-up op not verified");
    }
    rep.setupSeconds = secondsSince(opt.processStart);
    const Metrics uopAtSetup = simt::UopCache::global().snapshot();
    if (opt.setupOnly)
        return rep;

    UopDelta uop;
    uop.before = simt::UopCache::global().snapshot();
    const Window golden = goldenPass(st, opt.trace ? 1 : opt.threads);
    uop.after = simt::UopCache::global().snapshot();
    for (size_t k = 0; k < golden.results.size(); ++k) {
        ++rep.attempted;
        if (st.ops[k].tool != Tool::Inject && !golden.results[k].verified)
            rep.fail(1, st.apps[st.ops[k].app].name + " / " +
                            toolName(st.ops[k].tool) +
                            ": golden run not verified");
    }

    if (!opt.trace) {
        const Window w =
            measure(st, opt.threads, opt.seconds, st.minOps);
        check(st, golden, w, rep);
        addRate(rep, "ops_per_s", w.opsPerSec, "1/s");
        addLatency(rep, typicalLatencies(st, w), st.minOps,
                   inject ? "injections" : "(app, tool) runs");
        addRate(rep, "app_minstr_per_s", w.minstrPerSec, "Minstr/s");
        const std::vector<double> ks =
            inject ? st.censusK : kernelSlowdowns(st, golden);
        rep.add("model_k_geomean", geomean(ks), "x");
        rep.note(strf("model_k_geomean over %zu %s", ks.size(),
                      inject ? "error-injection-profiler census runs"
                             : "instrumented runs"));
        if (inject) {
            // Per-app outcome histograms of the window against the
            // same injections' golden outcomes.
            std::vector<std::array<uint64_t, 5>> got(st.apps.size()),
                want(st.apps.size());
            for (size_t i = 0; i < w.results.size(); ++i) {
                const size_t k = w.index[i];
                const size_t a = st.ops[k].app;
                ++got[a][static_cast<size_t>(
                    w.results[i].stats.injection)];
                ++want[a][static_cast<size_t>(
                    golden.results[k].stats.injection)];
            }
            for (size_t a = 0; a < st.apps.size(); ++a) {
                if (got[a] != want[a])
                    rep.fail(1, st.apps[a].name +
                                    ": injection outcome histogram "
                                    "differs from the golden");
                rep.note(strf("%-10s masked %3" PRIu64 " crash %3" PRIu64
                              " hang %3" PRIu64 " symptom %3" PRIu64
                              " sdc %3" PRIu64,
                              st.apps[a].name.c_str(), got[a][0],
                              got[a][1], got[a][2], got[a][3],
                              got[a][4]));
            }
        }
        return rep;
    }

    // Traced run: the same window untraced, then traced, each at least
    // one pass (one round over the apps for injections).
    const size_t minOps =
        st.wholePasses ? st.ops.size() : st.apps.size();
    log.setEnabled(false);
    const Window plain = measure(st, opt.threads, opt.seconds / 2, minOps);
    check(st, golden, plain, rep);
    log.setEnabled(true);
    const Window traced =
        measure(st, opt.threads, opt.seconds / 2, minOps);
    check(st, golden, traced, rep);
    if (!inject)
        noteBareLaunches(st, traced);
    addStudyLayers(rep, st, golden, traced, uop);
    rep.note(strf("uop cache: %" PRIu64 " compiles during set-up",
                  uopAtSetup.counterValue("uop/cache/compiles")));
    const double cover = log.coverage("op", traced.firstOp, traced.lastOp);
    rep.add("trace.coverage_frac", cover, "fraction");
    const double plainRate =
        static_cast<double>(plain.results.size()) / plain.seconds;
    const double tracedRate =
        static_cast<double>(traced.results.size()) / traced.seconds;
    rep.add("trace.overhead_frac", 1 - ratio(tracedRate, plainRate),
            "fraction");
    rep.note(strf("ops_per_s untraced %.3f, traced %.3f", plainRate,
                  tracedRate));

    // The fuzz layer is not on a study's path: time it on a fixed
    // two-program probe so its per-layer figures stay defined.
    const Replay probe = replay(2, {1}, 1, rep);
    addFuzzConfigLayers(rep, probe);
    rep.add("fuzz.configs_run", 0, "count");
    rep.add("fuzz.dedup_rate", 0, "fraction");
    rep.note("fuzz.config_ms.* from a 2-program probe (no campaign on "
             "this workload)");
    addSelfTimes(rep);
    return rep;
}

Report
runFuzz(const Options &opt)
{
    Report rep;
    SpanLog &log = SpanLog::global();
    // One shard per host thread, each simulating at one thread, so
    // shards x the largest oracle thread count stays within nproc and
    // as many programs as possible fit into the window.
    const std::vector<int> simThreads = {1};
    const int jobs = opt.threads;
    const uint64_t iters = opt.smoke ? 4 : 48;
    const uint64_t replayPrograms = opt.smoke ? 2 : 40;

    // Set-up: spawn the shard threads and the simulator pool.
    {
        const fuzz::CampaignResult warm =
            fuzz::runCampaign(campaignOptions(0, 2, jobs, simThreads));
        rep.attempted += warm.executed;
        rep.fail(warm.mismatches, "warm-up campaign mismatched");
    }
    rep.setupSeconds = secondsSince(opt.processStart);
    if (opt.setupOnly)
        return rep;

    struct Run
    {
        uint64_t seed;
        fuzz::CampaignResult result;
    };
    // Campaigns with seeds drawn from --seed run back to back until
    // the window is over. @return executed programs per second.
    uint64_t campaignIndex = 0;
    auto window = [&](double seconds, std::vector<Run> &runs) {
        const Clock::time_point t0 = Clock::now();
        uint64_t executed = 0;
        do {
            const uint64_t seed =
                Rng(opt.seed).split(campaignIndex++).next();
            if (log.enabled())
                log.nextOp();
            Span op("op", "bench");
            Span s("campaign", "fuzz");
            runs.push_back(
                {seed, fuzz::runCampaign(
                           campaignOptions(seed, iters, jobs, simThreads))});
            executed += runs.back().result.executed;
        } while (secondsSince(t0) < seconds);
        return static_cast<double>(executed) / secondsSince(t0);
    };

    std::vector<Run> plain, traced;
    double plainRate = 0, tracedRate = 0;
    uint64_t firstTraced = 0;
    if (!opt.trace) {
        plainRate = window(opt.seconds, plain);
    } else {
        log.setEnabled(false);
        plainRate = window(opt.seconds / 2, plain);
        log.setEnabled(true);
        firstTraced = log.currentOp() + 1;
        tracedRate = window(opt.seconds / 2, traced);
    }

    // Exact check: each campaign against the same campaign run with
    // one shard. Campaigns are independent, so the goldens run side
    // by side, one per host thread.
    std::vector<const Run *> all;
    for (const std::vector<Run> *runs : {&plain, &traced})
        for (const Run &run : *runs)
            all.push_back(&run);
    std::vector<std::string> goldenKeys(all.size());
    forEachParallel(all.size(), jobs, [&](size_t i) {
        goldenKeys[i] = campaignKey(fuzz::runCampaign(
            campaignOptions(all[i]->seed, iters, 1, {1})));
    });
    double configsRun = 0, dedup = 0;
    for (size_t i = 0; i < all.size(); ++i) {
        const fuzz::CampaignResult &r = all[i]->result;
        rep.attempted += r.executed;
        rep.fail(r.mismatches, strf("campaign %" PRIx64 ": %" PRIu64
                                    " oracle mismatches",
                                    all[i]->seed, r.mismatches));
        if (campaignKey(r) != goldenKeys[i])
            rep.fail(r.executed, strf("campaign %" PRIx64 ": ",
                                      all[i]->seed) +
                                     campaignKey(r) + " vs one shard " +
                                     goldenKeys[i]);
        configsRun += static_cast<double>(r.configsRun);
        dedup += r.dedupRate();
    }
    const double campaigns =
        static_cast<double>(plain.size() + traced.size());

    if (!opt.trace) {
        // Exec latency comes from replaying fixed programs, side by
        // side as the campaign's shards run them: the campaign does
        // not expose per-exec timing.
        const Replay r = replay(replayPrograms, simThreads, jobs, rep);
        rep.add("ops_per_s", plainRate, "1/s");
        std::vector<double> ms, ks;
        uint64_t appInstrs = 0;
        for (const ReplayExec &e : r.execs) {
            ms.push_back(e.ms);
            appInstrs += e.appInstrs;
            ks.insert(ks.end(), e.ks.begin(), e.ks.end());
        }
        addLatency(rep, ms, replayPrograms, "replayed oracle execs");
        rep.add("app_minstr_per_s",
                ratio(static_cast<double>(appInstrs) * 1e-6, r.seconds),
                "Minstr/s");
        rep.add("model_k_geomean", geomean(ks), "x");
        rep.note(strf("model_k_geomean over %zu (program, tool) pairs of "
                      "the replay",
                      ks.size()));
        rep.note(strf("%zu campaigns of %" PRIu64 " programs, %d shards, "
                      "oracle threads {1}",
                      plain.size(), iters, jobs));
        return rep;
    }

    // Traced: time every config serially, as spans.
    const Replay r = replay(opt.smoke ? 2 : 8, simThreads, 1, rep);
    addFuzzConfigLayers(rep, r);
    rep.add("fuzz.configs_run", configsRun / campaigns, "count");
    rep.add("fuzz.dedup_rate", dedup / campaigns, "fraction");

    // The study layers are not on a campaign's path (its devices are
    // internal to the oracle): time them on a small probe study.
    Study probe = profileStudy(appsOf(workloads::fullSuite()),
                               {Tool::Bare, Tool::Branch, Tool::MemDiv,
                                Tool::Value});
    probe.apps.resize(1); // vecadd
    probe.ops.resize(4);
    UopDelta uop;
    uop.before = simt::UopCache::global().snapshot();
    const Window golden = goldenPass(probe, 1);
    uop.after = simt::UopCache::global().snapshot();
    const Window pw =
        measure(probe, opt.threads, 0, 10 * probe.ops.size());
    check(probe, golden, pw, rep);
    noteBareLaunches(probe, pw);
    addStudyLayers(rep, probe, golden, pw, uop);
    rep.note("study-layer metrics from a vecadd probe (no study on this "
             "workload)");
    rep.add("trace.coverage_frac",
            log.coverage("op", firstTraced, r.lastOp), "fraction");
    rep.add("trace.overhead_frac", 1 - ratio(tracedRate, plainRate),
            "fraction");
    rep.note(strf("execs_per_s untraced %.3f, traced %.3f", plainRate,
                  tracedRate));
    addSelfTimes(rep);
    return rep;
}

/// @}

} // namespace

Report
runWorkload(const Options &opt)
{
    if (opt.trace)
        SpanLog::global().enable();
    Report rep;
    if (opt.workload == "suite_profile")
        rep = runStudy(opt, suiteStudy(opt.smoke), false);
    else if (opt.workload == "hot_kernels")
        rep = runStudy(opt, hotStudy(opt.smoke), false);
    else if (opt.workload == "inject_campaign") {
        Study st;
        st.apps = appsOf(workloads::fig10Suite());
        if (opt.smoke)
            st.apps.resize(2);
        rep = runStudy(opt, std::move(st), true);
    } else
        rep = runFuzz(opt);
    if (opt.trace && !opt.traceOut.empty() &&
        !SpanLog::global().writeChromeTrace(opt.traceOut))
        rep.fail(1, "cannot write " + opt.traceOut);
    return rep;
}

} // namespace sassibench
