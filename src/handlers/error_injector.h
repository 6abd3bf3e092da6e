/**
 * @file
 * Case study IV: transient-error injection (paper §8).
 *
 * Three-step flow, exactly as the paper describes:
 *  1. a profiling run (ErrorInjectionProfiler) counts, per kernel
 *     invocation and per thread, the dynamic instructions that are
 *     not predicated off and write architecturally visible state;
 *  2. stochastic site selection (selectInjectionSites) picks tuples
 *     of (kernel, invocation id, thread id, dynamic instruction
 *     index, destination seed, bit seed) on the host;
 *  3. an injection run (ErrorInjector) arms one tuple, flips the
 *     selected bit in a destination register / predicate / carry
 *     flag through SASSIRegisterParams, and the application runs on
 *     unhindered while the harness watches for crashes, hangs, and
 *     output corruption.
 *
 * handlers::runInjectionCampaign (injection_campaign.h) runs all
 * three for one application and classifies each run's outcome.
 *
 * Error model (paper §8): a single-bit flip in one destination
 * register of an executing instruction; general registers flip a
 * random bit, predicates flip a written predicate bit, and the
 * condition code flips its flag. Pure stores have no destination
 * register and are excluded (the paper's memory-state injections
 * belong to the SASSIFI follow-up).
 */

#ifndef SASSI_HANDLERS_ERROR_INJECTOR_H
#define SASSI_HANDLERS_ERROR_INJECTOR_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "util/rng.h"

namespace sassi::handlers {

/** What state a campaign corrupts (SASSIFI-style error models). */
enum class InjectionMode {
    DestReg,      //!< A destination register/predicate/CC (§8).
    StoreValue,   //!< A store's data register, pre-execution.
    StoreAddress, //!< A store's address register, pre-execution.
};

/** @return a printable name for an injection mode. */
const char *injectionModeName(InjectionMode m);

/** One selected error-injection site (the paper's tuple). */
struct InjectionSite
{
    std::string kernelName;
    uint32_t invocation = 1; //!< 1-based dynamic invocation id.
    uint64_t thread = 0;     //!< Grid-global linear thread id.
    uint64_t instrIndex = 0; //!< k-th eligible dynamic instruction.
    uint64_t dstSeed = 0;    //!< Selects the destination register.
    uint64_t bitSeed = 0;    //!< Selects the bit to flip.
    InjectionMode mode = InjectionMode::DestReg;

    bool operator==(const InjectionSite &) const = default;
};

/** How an injected error manifested (Figure 10's categories). */
enum class InjectionOutcome {
    Masked,         //!< No observable difference.
    Crash,          //!< Memory/PC fault terminated the kernel.
    Hang,           //!< Watchdog expired.
    FailureSymptom, //!< Kernel signalled an error (trap) but ran on.
    SDC,            //!< Output data silently corrupted.
};

/** @return a printable name for an outcome. */
const char *injectionOutcomeName(InjectionOutcome o);

/** Step 1: the profiling instrumentation library. */
class ErrorInjectionProfiler
{
  public:
    /** Per-(kernel, invocation) eligible-instruction census. */
    struct LaunchProfile
    {
        std::string kernel;
        uint32_t invocation = 0;
        std::vector<uint32_t> perThread; //!< Eligible instrs per thread.
        uint64_t total = 0;
    };

    /**
     * @param dev Device under test.
     * @param rt Runtime instrumented with options(include_stores).
     * @param max_threads Upper bound on threads per launch; a
     *        launch with more threads is fatal.
     * @param include_stores Also census store instructions for the
     *        SASSIFI-style StoreValue/StoreAddress error models.
     */
    ErrorInjectionProfiler(simt::Device &dev, core::SassiRuntime &rt,
                           uint64_t max_threads = 1 << 16,
                           bool include_stores = false);

    // The registered callbacks capture this.
    ErrorInjectionProfiler(const ErrorInjectionProfiler &) = delete;
    ErrorInjectionProfiler &
    operator=(const ErrorInjectionProfiler &) = delete;

    /** @return register-write census for every launch so far. */
    const std::vector<LaunchProfile> &profiles() const
    {
        return profiles_;
    }

    /** @return the store census (include_stores mode only). */
    const std::vector<LaunchProfile> &storeProfiles() const
    {
        return store_profiles_;
    }

    /** @return the InstrumentOptions this tool requires. */
    static core::InstrumentOptions
    options(bool include_stores = false)
    {
        core::InstrumentOptions o;
        o.afterRegWrites = true;
        o.registerInfo = true;
        if (include_stores) {
            o.beforeMem = true;
            o.memoryInfo = true;
        }
        return o;
    }

  private:
    simt::Device &dev_;
    uint64_t max_threads_;
    uint64_t counters_;       //!< Device: one u32 per thread.
    uint64_t store_counters_ = 0;
    std::vector<LaunchProfile> profiles_;
    std::vector<LaunchProfile> store_profiles_;
};

/**
 * Step 2: stochastically select n injection sites from a census,
 * uniform over all eligible dynamic instructions of the whole run.
 */
std::vector<InjectionSite> selectInjectionSites(
    const std::vector<ErrorInjectionProfiler::LaunchProfile> &profiles,
    size_t n, Rng &rng);

/** Step 3: the injection instrumentation library. */
class ErrorInjector
{
  public:
    /**
     * Arm one site. The injector watches CUPTI launch callbacks for
     * the matching (kernel, invocation) and flips the selected bit
     * when the target thread reaches the target dynamic instruction.
     */
    ErrorInjector(simt::Device &dev, core::SassiRuntime &rt,
                  InjectionSite site);

    // The registered handlers capture this.
    ErrorInjector(const ErrorInjector &) = delete;
    ErrorInjector &operator=(const ErrorInjector &) = delete;

    /** @return whether the flip actually happened. */
    bool injected() const;

    /** @return human-readable record of what was flipped. */
    std::string description() const { return description_; }

    /** Same InstrumentOptions as the profiler (match the mode). */
    static core::InstrumentOptions
    options(bool include_stores = false)
    {
        return ErrorInjectionProfiler::options(include_stores);
    }

  private:
    simt::Device &dev_;
    InjectionSite site_;
    uint64_t state_; //!< Device: [0] countdown flag+counter, [1] done.
    // Read by the warp filter on every CTA worker concurrently.
    std::shared_ptr<std::atomic<bool>> armed_;
    std::string description_;
};

} // namespace sassi::handlers

#endif // SASSI_HANDLERS_ERROR_INJECTOR_H
