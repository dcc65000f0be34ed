#include "polytm/thread_gate.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <thread>

namespace proteus::polytm {

void
ThreadGate::checkTid(int tid)
{
    if (tid < 0 || tid >= tm::kMaxThreads) {
        throw std::out_of_range(
            "ThreadGate: tid " + std::to_string(tid) +
            " outside [0, " + std::to_string(tm::kMaxThreads) +
            ") - too many worker threads registered (tm::kMaxThreads)");
    }
}

void
ThreadGate::enter(int tid)
{
    checkTid(tid);
    Slot &slot = slots_[tid];
    for (;;) {
        // Fast path: one fetch-and-add on a thread-private line.
        const std::uint64_t val =
            slot.state->fetch_add(kRun, std::memory_order_acq_rel);
        if ((val & kBlockMask) == 0)
            return;
        // We raced with (or arrived after) a disable: undo and park.
        slot.state->fetch_sub(kRun, std::memory_order_acq_rel);
        std::unique_lock<std::mutex> lk(slot.mutex);
        slot.cv.wait(lk, [&] {
            return (slot.state->load(std::memory_order_acquire) &
                    kBlockMask) == 0;
        });
    }
}

void
ThreadGate::exit(int tid)
{
    checkTid(tid);
    slots_[tid].state->fetch_sub(kRun, std::memory_order_acq_rel);
}

void
ThreadGate::block(int tid)
{
    checkTid(tid);
    Slot &slot = slots_[tid];
    std::uint64_t val =
        slot.state->fetch_add(kBlock, std::memory_order_acq_rel);
    // Wait out an in-flight transaction (paper: "because t was already
    // executing a transaction"). Spin briefly, then yield every
    // iteration: on oversubscribed hosts the waited-on thread only
    // finishes its transaction if it gets the CPU.
    unsigned spins = 0;
    while (val & kRunMask) {
        if (++spins > 16)
            std::this_thread::yield();
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
        val = slot.state->load(std::memory_order_acquire);
    }
}

void
ThreadGate::unblock(int tid)
{
    checkTid(tid);
    Slot &slot = slots_[tid];
    {
        std::lock_guard<std::mutex> lk(slot.mutex);
        const std::uint64_t prev =
            slot.state->fetch_sub(kBlock, std::memory_order_acq_rel);
        assert(prev & kBlockMask);
        (void)prev;
    }
    slot.cv.notify_all();
}

bool
ThreadGate::blocked(int tid) const
{
    checkTid(tid);
    return (slots_[tid].state->load(std::memory_order_acquire) &
            kBlockMask) != 0;
}

bool
ThreadGate::pin(int tid)
{
    checkTid(tid);
    return (slots_[tid].state->fetch_or(kPin, std::memory_order_seq_cst) &
            kBlockMask) != 0;
}

void
ThreadGate::unpin(int tid)
{
    checkTid(tid);
    slots_[tid].state->fetch_and(~kPin, std::memory_order_seq_cst);
}

bool
ThreadGate::pinned(int tid) const
{
    checkTid(tid);
    return (slots_[tid].state->load(std::memory_order_seq_cst) & kPin) != 0;
}

std::uint64_t
ThreadGate::rawState(int tid) const
{
    checkTid(tid);
    return slots_[tid].state->load(std::memory_order_acquire);
}

} // namespace proteus::polytm
