#include "handlers/error_injector.h"

#include "core/intrinsics.h"
#include "util/logging.h"

namespace sassi::handlers {

namespace {

/** One injectable destination of an instruction. */
struct DstCandidate
{
    enum class Kind { Gpr, Pred, CC } kind;
    int index; //!< Register number or predicate index.
};

/** Enumerate the paper's injectable destinations at a site. */
std::vector<DstCandidate>
eligibleDsts(const core::HandlerEnv &env)
{
    std::vector<DstCandidate> out;
    int n = env.rp.GetNumGPRDsts();
    for (int d = 0; d < n && d < 4; ++d) {
        out.push_back({DstCandidate::Kind::Gpr,
                       env.rp.GetRegNum(env.rp.GetGPRDst(d))});
    }
    uint32_t preds = env.rp.GetDstPredMask();
    for (int p = 0; p < sass::NumPred; ++p) {
        if (preds & (1u << p))
            out.push_back({DstCandidate::Kind::Pred, p});
    }
    if (env.rp.WritesCC())
        out.push_back({DstCandidate::Kind::CC, 0});
    return out;
}

/** Grid-global linear thread id of a handler invocation. */
uint64_t
globalThread(const core::HandlerEnv &env)
{
    uint64_t block_linear =
        (static_cast<uint64_t>(env.blockIdx.z) * env.gridDim.y +
         env.blockIdx.y) * env.gridDim.x + env.blockIdx.x;
    uint64_t in_block =
        (static_cast<uint64_t>(env.threadIdx.z) * env.blockDim.y +
         env.threadIdx.y) * env.blockDim.x + env.threadIdx.x;
    return block_linear * env.blockDim.count() + in_block;
}

} // namespace

const char *
injectionModeName(InjectionMode m)
{
    switch (m) {
      case InjectionMode::DestReg: return "dest-reg";
      case InjectionMode::StoreValue: return "store-value";
      case InjectionMode::StoreAddress: return "store-address";
    }
    return "?";
}

const char *
injectionOutcomeName(InjectionOutcome o)
{
    switch (o) {
      case InjectionOutcome::Masked: return "masked";
      case InjectionOutcome::Crash: return "crash";
      case InjectionOutcome::Hang: return "hang";
      case InjectionOutcome::FailureSymptom: return "failure-symptom";
      case InjectionOutcome::SDC: return "sdc";
    }
    return "?";
}

ErrorInjectionProfiler::ErrorInjectionProfiler(simt::Device &dev,
                                               core::SassiRuntime &rt,
                                               uint64_t max_threads,
                                               bool include_stores)
    : dev_(dev), max_threads_(max_threads)
{
    counters_ = dev_.malloc(max_threads_ * 4);
    dev_.memset(counters_, 0, max_threads_ * 4);

    uint64_t counters = counters_;
    core::HandlerTraits traits;
    traits.warpSynchronous = false; // Pure per-lane counting.
    traits.reentrantSafe = true;    // Reads only frame params.
    // Every launch fits in the counters (checked at launch).
    rt.setAfterHandler([counters](const core::HandlerEnv &env) {
        if (!env.bp.GetInstrWillExecute())
            return;
        if (eligibleDsts(env).empty())
            return;
        cuda::atomicAdd32(counters + globalThread(env) * 4, 1);
    }, traits);

    if (include_stores) {
        store_counters_ = dev_.malloc(max_threads_ * 4);
        dev_.memset(store_counters_, 0, max_threads_ * 4);
        uint64_t store_counters = store_counters_;
        rt.setBeforeHandler(
            [store_counters](const core::HandlerEnv &env) {
                if (!env.bp.GetInstrWillExecute())
                    return;
                if (!env.bp.IsMemWrite() || env.bp.IsSpillOrFill())
                    return;
                cuda::atomicAdd32(
                    store_counters + globalThread(env) * 4, 1);
            },
            traits);
    }

    dev_.callbacks().subscribe([this](cupti::CallbackSite cb_site,
                                      const cupti::CallbackData &data) {
        uint64_t threads =
            static_cast<uint64_t>(data.grid[0]) * data.grid[1] *
            data.grid[2] * data.block[0] * data.block[1] * data.block[2];
        if (cb_site == cupti::CallbackSite::KernelLaunch) {
            // Dropping threads past the bound would bias selection.
            fatal_if(threads > max_threads_,
                     "census of '%s' launches %llu threads, more than "
                     "its bound of %llu",
                     data.kernelName.c_str(),
                     static_cast<unsigned long long>(threads),
                     static_cast<unsigned long long>(max_threads_));
            dev_.memset(counters_, 0, threads * 4);
            if (store_counters_)
                dev_.memset(store_counters_, 0, threads * 4);
            return;
        }
        auto collect = [&](uint64_t device_array,
                           std::vector<LaunchProfile> &dst) {
            LaunchProfile profile;
            profile.kernel = data.kernelName;
            profile.invocation = data.invocation;
            profile.perThread.resize(threads);
            dev_.memcpyDtoH(profile.perThread.data(), device_array,
                            threads * 4);
            for (uint32_t c : profile.perThread)
                profile.total += c;
            dst.push_back(std::move(profile));
        };
        collect(counters_, profiles_);
        if (store_counters_)
            collect(store_counters_, store_profiles_);
    });
}

std::vector<InjectionSite>
selectInjectionSites(
    const std::vector<ErrorInjectionProfiler::LaunchProfile> &profiles,
    size_t n, Rng &rng)
{
    uint64_t grand_total = 0;
    for (const auto &p : profiles)
        grand_total += p.total;
    std::vector<InjectionSite> out;
    if (grand_total == 0)
        return out;

    for (size_t i = 0; i < n; ++i) {
        uint64_t r = rng.nextBelow(grand_total);
        for (const auto &p : profiles) {
            if (r >= p.total) {
                r -= p.total;
                continue;
            }
            InjectionSite site;
            site.kernelName = p.kernel;
            site.invocation = p.invocation;
            for (size_t t = 0; t < p.perThread.size(); ++t) {
                if (r < p.perThread[t]) {
                    site.thread = t;
                    site.instrIndex = r;
                    break;
                }
                r -= p.perThread[t];
            }
            site.dstSeed = rng.next();
            site.bitSeed = rng.next();
            out.push_back(std::move(site));
            break;
        }
    }
    return out;
}

ErrorInjector::ErrorInjector(simt::Device &dev, core::SassiRuntime &rt,
                             InjectionSite site)
    : dev_(dev), site_(std::move(site)), armed_(new std::atomic<bool>(false))
{
    state_ = dev_.malloc(16);
    dev_.memset(state_, 0, 16);

    auto armed = armed_;
    InjectionSite s = site_;
    uint64_t state = state_;
    ErrorInjector *self = this;
    core::HandlerTraits traits;
    traits.warpSynchronous = false;
    // Writes go through the spill slots (SetRegValue/SetPredValue/
    // SetCCValue), so a fused epilogue replays them like a generic
    // one.
    traits.reentrantSafe = true;
    // The leading kernel/invocation/thread tests are warp-uniform;
    // skip warps that cannot contain the target thread. A fused site
    // asks once per visit, at entry: armed changes mid-launch only in
    // the target warp's own handler, so the answer holds per visit.
    traits.warpFilter = [armed, s](simt::Executor &exec,
                                   simt::Warp &warp,
                                   const core::SiteInfo &) {
        if (!armed->load(std::memory_order_relaxed))
            return false;
        uint64_t first = exec.globalThreadLinear(warp, 0);
        return s.thread >= first && s.thread < first + 32;
    };
    auto finish = [state, self, armed, s](const std::string &what) {
        cuda::devStore32(state + 8, 1);
        self->description_ = detail::strFormat(
            "%s %s @ %s inv %u thread %llu instr %llu",
            injectionModeName(s.mode), what.c_str(),
            s.kernelName.c_str(), s.invocation,
            static_cast<unsigned long long>(s.thread),
            static_cast<unsigned long long>(s.instrIndex));
        armed->store(false, std::memory_order_relaxed); // One error per application run (§8).
    };

    if (site_.mode == InjectionMode::DestReg) {
        rt.setAfterHandler([armed, s, state, finish](
                               const core::HandlerEnv &env) {
            if (!armed->load(std::memory_order_relaxed))
                return;
            if (globalThread(env) != s.thread)
                return;
            // Mirror the profiler's eligibility stream exactly.
            if (!env.bp.GetInstrWillExecute())
                return;
            auto dsts = eligibleDsts(env);
            if (dsts.empty())
                return;
            uint32_t count = cuda::devLoad32(state);
            cuda::devStore32(state, count + 1);
            if (count != s.instrIndex)
                return;

            const DstCandidate &dst = dsts[s.dstSeed % dsts.size()];
            std::string what;
            switch (dst.kind) {
              case DstCandidate::Kind::Gpr: {
                int bit = static_cast<int>(s.bitSeed % 32);
                core::SASSIGPRRegInfo info{
                    static_cast<sass::RegId>(dst.index)};
                uint32_t v = env.rp.GetRegValue(info);
                env.rp.SetRegValue(info, v ^ (1u << bit));
                what = detail::strFormat("R%d bit %d", dst.index, bit);
                break;
              }
              case DstCandidate::Kind::Pred: {
                bool v = env.rp.GetPredValue(dst.index);
                env.rp.SetPredValue(dst.index, !v);
                what = detail::strFormat("P%d", dst.index);
                break;
              }
              case DstCandidate::Kind::CC: {
                env.rp.SetCCValue(!env.rp.GetCCValue());
                what = "CC";
                break;
              }
            }
            finish(what);
        }, traits);
    } else {
        // SASSIFI-style store corruption: flip a bit of the store's
        // value or address register *before* the store executes.
        // The flipped register flows back through the spill slots,
        // so the restored value feeds the store.
        rt.setBeforeHandler([armed, s, state, finish](
                                const core::HandlerEnv &env) {
            if (!armed->load(std::memory_order_relaxed))
                return;
            if (globalThread(env) != s.thread)
                return;
            if (!env.bp.GetInstrWillExecute())
                return;
            if (!env.bp.IsMemWrite() || env.bp.IsSpillOrFill())
                return;
            uint32_t count = cuda::devLoad32(state);
            cuda::devStore32(state, count + 1);
            if (count != s.instrIndex)
                return;

            const sass::Instruction &ins = env.site->instr;
            std::vector<sass::RegId> regs;
            if (s.mode == InjectionMode::StoreValue) {
                int n = ins.width <= 4 ? 1 : ins.width / 4;
                for (int i = 0; i < n; ++i)
                    regs.push_back(
                        static_cast<sass::RegId>(ins.srcB + i));
            } else {
                regs.push_back(ins.srcA);
                if (ins.addrIsPair())
                    regs.push_back(
                        static_cast<sass::RegId>(ins.srcA + 1));
            }
            sass::RegId reg = regs[s.dstSeed % regs.size()];
            int bit = static_cast<int>(s.bitSeed % 32);
            core::SASSIGPRRegInfo info{reg};
            uint32_t v = env.rp.GetRegValue(info);
            env.rp.SetRegValue(info, v ^ (1u << bit));
            finish(detail::strFormat("R%d bit %d", reg, bit));
        }, traits);
    }

    dev_.callbacks().subscribe(
        [armed, s, state, &dev](cupti::CallbackSite cb_site,
                                const cupti::CallbackData &data) {
            if (data.kernelName != s.kernelName ||
                data.invocation != s.invocation) {
                return;
            }
            if (cb_site == cupti::CallbackSite::KernelLaunch) {
                if (dev.read<uint32_t>(state + 8) == 0) {
                    dev.write<uint32_t>(state, 0);
                    armed->store(true, std::memory_order_relaxed);
                }
            } else {
                armed->store(false, std::memory_order_relaxed);
            }
        });
}

bool
ErrorInjector::injected() const
{
    return dev_.read<uint32_t>(state_ + 8) != 0;
}

} // namespace sassi::handlers
