#include "util/fiber.h"

#include "util/logging.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
extern "C" {
/**
 * Save the running fiber's callee-saved registers, MXCSR and x87
 * control word on its stack, store its stack pointer to *save_sp,
 * and resume the fiber suspended at to_sp.
 */
void sassi_fiber_switch(void **save_sp, void *to_sp);
/** First code on a seeded lane stack: laneEntry(rbx) via r12. */
void sassi_fiber_start();
}

// SysV x86-64. The saved frame, from the stack pointer up: MXCSR
// (4 bytes) and the x87 control word (2 bytes) in one 8-byte slot,
// r15, r14, r13, r12, rbx, rbp, then the return address.
// sassi_fiber_start has no caller: .cfi_undefined rip stops unwinders.
// The compiler does not track sections across top-level asm, so the
// block restores the one it found.
asm(R"(
    .pushsection .text
    .p2align 4
    .globl sassi_fiber_switch
    .hidden sassi_fiber_switch
    .type sassi_fiber_switch, @function
sassi_fiber_switch:
    .cfi_startproc
    pushq %rbp
    .cfi_adjust_cfa_offset 8
    pushq %rbx
    .cfi_adjust_cfa_offset 8
    pushq %r12
    .cfi_adjust_cfa_offset 8
    pushq %r13
    .cfi_adjust_cfa_offset 8
    pushq %r14
    .cfi_adjust_cfa_offset 8
    pushq %r15
    .cfi_adjust_cfa_offset 8
    subq $8, %rsp
    .cfi_adjust_cfa_offset 8
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    .cfi_adjust_cfa_offset -8
    popq %r15
    .cfi_adjust_cfa_offset -8
    popq %r14
    .cfi_adjust_cfa_offset -8
    popq %r13
    .cfi_adjust_cfa_offset -8
    popq %r12
    .cfi_adjust_cfa_offset -8
    popq %rbx
    .cfi_adjust_cfa_offset -8
    popq %rbp
    .cfi_adjust_cfa_offset -8
    ret
    .cfi_endproc
    .size sassi_fiber_switch, .-sassi_fiber_switch

    .p2align 4
    .globl sassi_fiber_start
    .hidden sassi_fiber_start
    .type sassi_fiber_start, @function
sassi_fiber_start:
    .cfi_startproc
    .cfi_undefined rip
    movq %rbx, %rdi
    callq *%r12
    ud2
    .cfi_endproc
    .size sassi_fiber_start, .-sassi_fiber_start
    .popsection
)");
#endif

namespace sassi {

namespace {

/** The group whose fibers are currently executing on this thread. */
thread_local FiberGroup *tl_current_group = nullptr;

// Sanitizer fiber hooks; each compiles to nothing in other builds.
// ASan must learn the stack it runs on (fake_save is nullptr when the
// leaving fiber ends for good); TSan keeps one context per fiber.

void
asanStartSwitch(void **fake_save, const void *bottom, size_t size)
{
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(fake_save, bottom, size);
#else
    (void)fake_save, (void)bottom, (void)size;
#endif
}

void
asanFinishSwitch(void *fake_save, const void **old_bottom, size_t *old_size)
{
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_save, old_bottom, old_size);
#else
    (void)fake_save, (void)old_bottom, (void)old_size;
#endif
}

void
tsanSwitchTo(void *fiber)
{
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(fiber, 0);
#else
    (void)fiber;
#endif
}

} // namespace

FiberGroup *
FiberGroup::current()
{
    return tl_current_group;
}

FiberGroup::FiberGroup(int max_lanes, size_t stack_bytes)
    : lanes_(static_cast<size_t>(max_lanes))
{
    for (Lane &lane : lanes_)
        lane.stack.resize(stack_bytes);
    vals_.reserve(lanes_.size());
    blocked_.reserve(lanes_.size());
    results_.reserve(lanes_.size());
    live_lanes_.reserve(lanes_.size());
}

FiberGroup::~FiberGroup() = default;

void
FiberGroup::laneEntry(FiberGroup *group) noexcept
{
    // The scheduler's stack is the one this first switch left.
    asanFinishSwitch(nullptr, &group->sched_stack_bottom_,
                     &group->sched_stack_size_);
    const int id = group->current_lane_;
    (*group->body_)(id);
    group->lanes_[static_cast<size_t>(id)].state = LaneState::Done;
    group->switchToScheduler(true);
    __builtin_unreachable();
}

#if !defined(__x86_64__)
void
FiberGroup::trampoline(unsigned hi, unsigned lo)
{
    auto ptr = (static_cast<uintptr_t>(hi) << 32) | lo;
    laneEntry(reinterpret_cast<FiberGroup *>(ptr));
}
#endif

void
FiberGroup::seedLane(Lane &lane)
{
#if defined(__SANITIZE_ADDRESS__)
    // A finished lane never returned from its bottom frames; clear
    // their redzones before the stack is reused.
    __asan_unpoison_memory_region(lane.stack.data(), lane.stack.size());
#endif
#if defined(__SANITIZE_THREAD__)
    lane.tsan_fiber = __tsan_create_fiber(0);
#endif
#if defined(__x86_64__)
    // The first switch into the lane pops this frame and returns into
    // sassi_fiber_start with the stack 16-byte aligned at its call.
    // The lane starts in the caller's floating-point control modes.
    auto top = reinterpret_cast<uintptr_t>(lane.stack.data() +
                                           lane.stack.size()) & ~uintptr_t{15};
    auto *frame = reinterpret_cast<uint64_t *>(top) - 10;
    uint32_t mxcsr = 0;
    uint16_t fpcw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fpcw));
    frame[0] = mxcsr | (uint64_t{fpcw} << 32);
    frame[1] = 0;                                           // r15
    frame[2] = 0;                                           // r14
    frame[3] = 0;                                           // r13
    frame[4] = reinterpret_cast<uintptr_t>(&laneEntry);     // r12
    frame[5] = reinterpret_cast<uintptr_t>(this);           // rbx
    frame[6] = 0;                                           // rbp
    frame[7] = reinterpret_cast<uintptr_t>(&sassi_fiber_start);
    frame[8] = 0;
    frame[9] = 0;
    lane.ctx = frame;
#else
    auto self = reinterpret_cast<uintptr_t>(this);
    getcontext(&lane.ctx);
    lane.ctx.uc_stack.ss_sp = lane.stack.data();
    lane.ctx.uc_stack.ss_size = lane.stack.size();
    lane.ctx.uc_link = nullptr; // laneEntry never returns.
    makecontext(&lane.ctx, reinterpret_cast<void (*)()>(&trampoline),
                2, static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
#endif
}

void
FiberGroup::switchContext(Context &save, Context &to)
{
#if defined(__x86_64__)
    sassi_fiber_switch(&save, to);
#else
    swapcontext(&save, &to);
#endif
}

void
FiberGroup::resumeLane(Lane &lane)
{
    void *fake_save = nullptr;
    asanStartSwitch(&fake_save, lane.stack.data(), lane.stack.size());
    tsanSwitchTo(lane.tsan_fiber);
    switchContext(sched_ctx_, lane.ctx);
    asanFinishSwitch(fake_save, nullptr, nullptr);
#if defined(__SANITIZE_THREAD__)
    if (lane.state == LaneState::Done) {
        __tsan_destroy_fiber(lane.tsan_fiber);
        lane.tsan_fiber = nullptr;
    }
#endif
}

void
FiberGroup::switchToScheduler(bool lane_done)
{
    Lane &lane = lanes_[static_cast<size_t>(current_lane_)];
    current_lane_ = -1;
    void *fake_save = nullptr;
    asanStartSwitch(lane_done ? nullptr : &fake_save, sched_stack_bottom_,
                    sched_stack_size_);
    tsanSwitchTo(sched_tsan_fiber_);
    switchContext(lane.ctx, sched_ctx_);
    asanFinishSwitch(fake_save, &sched_stack_bottom_, &sched_stack_size_);
}

uint64_t
FiberGroup::barrier(uint64_t value, const Reducer &reducer)
{
    panic_if(current_lane_ < 0,
             "warp intrinsic called outside handler execution");
    Lane &lane = lanes_[static_cast<size_t>(current_lane_)];
    lane.pending_value = value;
    lane.state = LaneState::Blocked;
    if (!pending_reducer_)
        pending_reducer_ = &reducer;
    switchToScheduler(false);
    return lane.barrier_result;
}

void
FiberGroup::run(const std::vector<int> &lanes,
                const std::function<void(int)> &body)
{
    panic_if(tl_current_group != nullptr,
             "nested FiberGroup::run is not supported");
    panic_if(lanes.empty(), "FiberGroup::run with no lanes");

    tl_current_group = this;
    body_ = &body;
    live_lanes_ = lanes;
#if defined(__SANITIZE_THREAD__)
    sched_tsan_fiber_ = __tsan_get_current_fiber();
#endif

    for (int id : live_lanes_) {
        Lane &lane = lanes_.at(static_cast<size_t>(id));
        seedLane(lane);
        lane.state = LaneState::Runnable;
    }

    for (;;) {
        bool any_ran = false;
        for (int id : live_lanes_) {
            Lane &lane = lanes_[static_cast<size_t>(id)];
            if (lane.state != LaneState::Runnable)
                continue;
            any_ran = true;
            current_lane_ = id;
            resumeLane(lane);
            current_lane_ = -1;
        }
        if (any_ran)
            continue;

        // No lane is runnable: either everyone finished, or the
        // blocked lanes form a complete rendezvous.
        vals_.clear();
        blocked_.clear();
        bool all_done = true;
        for (int id : live_lanes_) {
            Lane &lane = lanes_[static_cast<size_t>(id)];
            if (lane.state == LaneState::Blocked) {
                vals_.push_back(lane.pending_value);
                blocked_.push_back(id);
                all_done = false;
            } else if (lane.state != LaneState::Done) {
                all_done = false;
            }
        }
        if (all_done)
            break;
        panic_if(blocked_.empty(), "fiber scheduler wedged: no lane "
                 "runnable, blocked, or done");
        panic_if(!pending_reducer_, "rendezvous without a reducer");

        results_.assign(blocked_.size(), 0);
        (*pending_reducer_)(vals_, blocked_, results_);
        pending_reducer_ = nullptr;
        for (size_t i = 0; i < blocked_.size(); ++i) {
            Lane &lane = lanes_[static_cast<size_t>(blocked_[i])];
            lane.barrier_result = results_[i];
            lane.state = LaneState::Runnable;
        }
    }

    body_ = nullptr;
    live_lanes_.clear();
    tl_current_group = nullptr;
}

} // namespace sassi
