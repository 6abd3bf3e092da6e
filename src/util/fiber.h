/**
 * @file
 * Cooperative fibers used to execute instrumentation handlers
 * warp-synchronously.
 *
 * The paper's handlers are written in CUDA and freely use warp-wide
 * intrinsics (__ballot, __shfl, __all). Emulating that on a host CPU
 * requires every active lane of a warp to reach the intrinsic before
 * any lane can observe its result. We run each lane's handler
 * invocation on its own fiber; an intrinsic call suspends the lane
 * until all active lanes arrive, at which point the warp-wide result
 * is computed and all lanes resume.
 *
 * On x86-64 a fiber switch is a short assembly routine that saves
 * only the callee-saved registers, MXCSR and the x87 control word,
 * with no system call. Other targets switch with ucontext. Under
 * AddressSanitizer and ThreadSanitizer every switch is announced
 * through the sanitizer fiber API.
 */

#ifndef SASSI_UTIL_FIBER_H
#define SASSI_UTIL_FIBER_H

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace sassi {

/**
 * A group of cooperatively scheduled fibers with barrier-style
 * rendezvous, sized for one 32-lane warp.
 *
 * Usage: call run() with the set of participating lanes and a body.
 * Inside the body, a lane may call barrier(value) to publish a 64-bit
 * value and suspend; when every live lane has either called barrier()
 * with the same sequence number or finished, the scheduler invokes
 * the reduction callback with all published values and resumes the
 * waiting lanes, each receiving the reduction result.
 */
class FiberGroup
{
  public:
    /**
     * Per-rendezvous reduction: given the values published by the
     * blocked lanes (vals[i] came from lanes[i]), fill results[i]
     * with the value lane lanes[i] should receive. results arrives
     * pre-sized to lanes.size() and zero-filled, so reductions that
     * produce one warp-wide answer may fill every slot identically.
     */
    using Reducer = std::function<void(const std::vector<uint64_t> &vals,
                                       const std::vector<int> &lanes,
                                       std::vector<uint64_t> &results)>;

    /** Construct a group supporting up to max_lanes lanes. */
    explicit FiberGroup(int max_lanes = 32, size_t stack_bytes = 1 << 17);
    ~FiberGroup();

    FiberGroup(const FiberGroup &) = delete;
    FiberGroup &operator=(const FiberGroup &) = delete;

    /**
     * Run body(lane) on a fiber for each lane listed in lanes,
     * scheduling them in lane order and servicing rendezvous until
     * every fiber has finished.
     *
     * @param lanes Participating lane ids (ascending).
     * @param body Per-lane work; may call barrier().
     */
    void run(const std::vector<int> &lanes,
             const std::function<void(int lane)> &body);

    /**
     * Publish a value at a warp-wide rendezvous and suspend until all
     * live lanes arrive. Must only be called from inside a fiber.
     *
     * @param value The lane's contribution.
     * @param reducer Combines all contributions into the result every
     *                lane receives. All lanes must pass an equivalent
     *                reducer (the first arriving lane's is used; it
     *                must stay alive until this call returns).
     * @return The reduction result.
     */
    uint64_t barrier(uint64_t value, const Reducer &reducer);

    /** @return true when called from inside a fiber of this group. */
    bool inFiber() const { return current_lane_ >= 0; }

    /** @return the FiberGroup currently executing on this thread. */
    static FiberGroup *current();

  private:
    enum class LaneState { Idle, Runnable, Blocked, Done };

#if defined(__x86_64__)
    /** A suspended fiber: its stack pointer, above its saved registers. */
    using Context = void *;
#else
    using Context = ucontext_t;
#endif

    struct Lane
    {
        Context ctx{};
        std::vector<uint8_t> stack;
        void *tsan_fiber = nullptr; //!< ThreadSanitizer builds only.
        LaneState state = LaneState::Idle;
        uint64_t pending_value = 0;
        uint64_t barrier_result = 0;
    };

    [[noreturn]] static void laneEntry(FiberGroup *group) noexcept;
#if !defined(__x86_64__)
    static void trampoline(unsigned hi, unsigned lo);
#endif
    void seedLane(Lane &lane);
    static void switchContext(Context &save, Context &to);
    void resumeLane(Lane &lane);
    void switchToScheduler(bool lane_done);

    std::vector<Lane> lanes_;
    Context sched_ctx_{};
    const void *sched_stack_bottom_ = nullptr; //!< AddressSanitizer only.
    size_t sched_stack_size_ = 0;
    void *sched_tsan_fiber_ = nullptr;
    const std::function<void(int)> *body_ = nullptr;
    std::vector<int> live_lanes_;
    int current_lane_ = -1;
    /** The first arriver's reducer; that lane stays suspended in
     *  barrier() until the reduction runs, so the pointee lives. */
    const Reducer *pending_reducer_ = nullptr;
    std::vector<uint64_t> vals_; //!< Rendezvous scratch, reused.
    std::vector<int> blocked_;
    std::vector<uint64_t> results_;
};

} // namespace sassi

#endif // SASSI_UTIL_FIBER_H
