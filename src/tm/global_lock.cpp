#include "tm/global_lock.hpp"

#include <thread>

namespace proteus::tm {

namespace {

// Data words are accessed atomically (relaxed: the global lock orders
// transactions), like every other backend does: code outside any
// transaction, such as the KV store's read-ahead peeks, may load the
// same words, and mixing plain and atomic accesses on one word is a
// data race. On x86-64 these compile to plain moves.
std::uint64_t
loadWord(const std::uint64_t *addr)
{
    return reinterpret_cast<const std::atomic<std::uint64_t> *>(addr)->load(
        std::memory_order_relaxed);
}

void
storeWord(std::uint64_t *addr, std::uint64_t value)
{
    reinterpret_cast<std::atomic<std::uint64_t> *>(addr)->store(
        value, std::memory_order_relaxed);
}

} // namespace

void
SpinLock::lock()
{
    for (unsigned spins = 0; ; ++spins) {
        if (!flag_.load(std::memory_order_relaxed) &&
            !flag_.exchange(true, std::memory_order_acquire)) {
            return;
        }
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
        if ((spins & 0x3f) == 0x3f)
            std::this_thread::yield();
    }
}

bool
SpinLock::tryLock()
{
    return !flag_.load(std::memory_order_relaxed) &&
           !flag_.exchange(true, std::memory_order_acquire);
}

void
SpinLock::unlock()
{
    flag_.store(false, std::memory_order_release);
}

void
GlobalLockTm::txBegin(TxDesc &tx)
{
    tx.beginAttempt();
    lock_.lock();
    tx.inFallback = true; // marks "holding the global lock"
}

std::uint64_t
GlobalLockTm::txRead(TxDesc &, const std::uint64_t *addr)
{
    return loadWord(addr);
}

void
GlobalLockTm::txWrite(TxDesc &tx, std::uint64_t *addr,
                      std::uint64_t value)
{
    // Undo log, first-write-wins: record the pre-image once per
    // address (the write set doubles as the undo log here — its
    // `value` field holds the OLD word, not the new one).
    if (tx.writeSet.find(addr) == nullptr)
        tx.writeSet.put(addr, loadWord(addr));
    storeWord(addr, value);
}

void
GlobalLockTm::txCommit(TxDesc &tx)
{
    tx.writeSet.clear();
    tx.inFallback = false;
    lock_.unlock();
}

void
GlobalLockTm::rollback(TxDesc &tx)
{
    // Restore pre-images newest-first (entries are insertion-ordered
    // and hold first-write pre-images, so any order restores the same
    // memory; reverse keeps the mental model simple), then release.
    if (tx.inFallback) {
        auto &entries = tx.writeSet.entries();
        for (std::size_t i = entries.size(); i-- > 0;)
            storeWord(entries[i].addr, entries[i].value);
        tx.writeSet.clear();
        tx.inFallback = false;
        lock_.unlock();
    }
}

void
GlobalLockTm::reset()
{
}

} // namespace proteus::tm
