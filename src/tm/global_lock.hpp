/**
 * @file
 * Single-global-lock TM: every transaction is serialized behind one
 * spinlock. The degenerate baseline (and the Sequential comparator of
 * Fig. 8 when run with one thread).
 *
 * Writes go in place but are undo-logged (the pre-image of each
 * address is recorded on first write), so an explicit abort —
 * tx.retry(), or a foreign exception unwinding through PolyTm::run —
 * restores memory and releases the lock instead of leaking a torn
 * state, as every backend's rollback does (TmBackend's contract; the
 * emulated HTM's fallback keeps the same log).
 * The undo log costs one hash probe per transactional write; reads
 * stay single loads (relaxed atomics, like every backend's data-word
 * accesses, so hint-only peeks outside transactions race with
 * nothing).
 */

#ifndef PROTEUS_TM_GLOBAL_LOCK_HPP
#define PROTEUS_TM_GLOBAL_LOCK_HPP

#include <atomic>

#include "common/cacheline.hpp"
#include "tm/backend.hpp"

namespace proteus::tm {

/** Test-and-test-and-set spinlock padded to a cache line. */
class alignas(kCacheLineSize) SpinLock
{
  public:
    void lock();
    bool tryLock();
    void unlock();
    bool lockedNow() const
    {
        return flag_.load(std::memory_order_acquire);
    }

  private:
    std::atomic<bool> flag_{false};
};

/** Global-lock backend; never conflicts, undo-logged in-place writes. */
class GlobalLockTm : public TmBackend
{
  public:
    BackendKind kind() const override { return BackendKind::kGlobalLock; }

    void txBegin(TxDesc &tx) override;
    std::uint64_t txRead(TxDesc &tx, const std::uint64_t *addr) override;
    void txWrite(TxDesc &tx, std::uint64_t *addr,
                 std::uint64_t value) override;
    void txCommit(TxDesc &tx) override;
    void rollback(TxDesc &tx) override;
    void reset() override;

  private:
    SpinLock lock_;
};

} // namespace proteus::tm

#endif // PROTEUS_TM_GLOBAL_LOCK_HPP
