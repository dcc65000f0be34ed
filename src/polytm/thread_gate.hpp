/**
 * @file
 * ThreadGate: the synchronization scheme of the paper's Algorithm 1.
 *
 * Each registered thread owns a padded state word. An application
 * thread entering a transaction does one uncontended fetch-and-add on
 * its own (cached) word — the cheap common case the paper measures at
 * ~17 cycles. The adapter thread blocks a thread by adding BLOCK and
 * spinning until the RUN bit clears; a blocked thread parks on a
 * per-thread condition variable.
 *
 * Deviation from the paper's pseudo-code: enable() *subtracts* BLOCK
 * instead of overwriting the state with RUN. The overwrite is only
 * safe if the enabled thread is guaranteed to be parked; the
 * subtraction is safe unconditionally and keeps the fetch-and-add
 * fast path identical.
 *
 * The same word carries the thread's PIN bit (PolyTm::setPinned), so a
 * pin or unpin is one RMW on the owner's line rather than a write to
 * a line every tid shares. Layout: bits 0-30 count RUN, bit 31 is PIN,
 * bits 32-63 count BLOCK.
 */

#ifndef PROTEUS_POLYTM_THREAD_GATE_HPP
#define PROTEUS_POLYTM_THREAD_GATE_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/cacheline.hpp"
#include "tm/tm_api.hpp"

namespace proteus::polytm {

class ThreadGate
{
  public:
    /**
     * Announce intent to run a transaction; blocks (parking on the
     * thread's condvar) while the thread is disabled. This is the
     * only way in: a caller that must not park keeps itself enabled
     * instead (PolyTm::setPinned).
     *
     * Every entry point validates `tid` against tm::kMaxThreads and
     * throws std::out_of_range on violation: a driver spawning more
     * workers than the gate has slots must fail loudly, not scribble
     * past the slot array.
     */
    void enter(int tid);

    /** Transaction attempt finished (commit or abort). */
    void exit(int tid);

    /**
     * Adapter side: disable a thread and wait until it is not inside
     * a transaction. Nestable (BLOCK is a counter at bit 32).
     */
    void block(int tid);

    /** Adapter side: drop one disable; wakes the thread if parked. */
    void unblock(int tid);

    /** Whether the thread currently has a BLOCK pending. */
    bool blocked(int tid) const;

    /**
     * Owner side: set the thread's PIN bit (a seq_cst RMW). Returns
     * whether a BLOCK was pending when the bit went up, which the
     * caller must then resolve under its own admission lock.
     */
    bool pin(int tid);

    /** Owner side: clear the thread's PIN bit (a seq_cst RMW). */
    void unpin(int tid);

    /** Whether the thread's PIN bit is set (a seq_cst load). */
    bool pinned(int tid) const;

    /** Raw state word (tests / stats). */
    std::uint64_t rawState(int tid) const;

  private:
    /** Throws std::out_of_range unless 0 <= tid < tm::kMaxThreads. */
    static void checkTid(int tid);

    static constexpr std::uint64_t kRun = 1;
    static constexpr std::uint64_t kPin = std::uint64_t{1} << 31;
    /** The RUN count: every test of it masks the PIN bit. */
    static constexpr std::uint64_t kRunMask = kPin - 1;
    static constexpr std::uint64_t kBlock = std::uint64_t{1} << 32;
    static constexpr std::uint64_t kBlockMask = ~(kBlock - 1);

    struct Slot
    {
        Padded<std::atomic<std::uint64_t>> state{};
        std::mutex mutex;
        std::condition_variable cv;
    };

    Slot slots_[tm::kMaxThreads];
};

} // namespace proteus::polytm

#endif // PROTEUS_POLYTM_THREAD_GATE_HPP
