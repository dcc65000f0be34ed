#include "tm/sim_htm.hpp"

#include <cassert>
#include <thread>

#include "common/fault.hpp"

namespace proteus::tm {

namespace {

/** Pause, yielding periodically so an oversubscribed lock/ownership
 *  holder can run (this host may have fewer cores than threads). */
struct SpinWaiter
{
    unsigned spins = 0;

    void
    pause()
    {
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
        if ((++spins & 0x3f) == 0)
            std::this_thread::yield();
    }
};

void
cpuRelax()
{
#if defined(__x86_64__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
}

std::uint64_t
loadWord(const std::uint64_t *addr)
{
    return reinterpret_cast<const std::atomic<std::uint64_t> *>(addr)->load(
        std::memory_order_acquire);
}

void
storeWord(std::uint64_t *addr, std::uint64_t value)
{
    reinterpret_cast<std::atomic<std::uint64_t> *>(addr)->store(
        value, std::memory_order_release);
}

} // namespace

bool
ReadSignature::add(std::size_t stripe)
{
    const std::uint64_t bit = bitOf(stripe);
    const std::uint64_t old =
        words_[wordOf(stripe)].fetch_or(bit, std::memory_order_seq_cst);
    return (old & bit) == 0;
}

bool
ReadSignature::mightContain(std::size_t stripe) const
{
    return (words_[wordOf(stripe)].load(std::memory_order_seq_cst) &
            bitOf(stripe)) != 0;
}

void
ReadSignature::clear()
{
    for (auto &w : words_)
        w.store(0, std::memory_order_seq_cst);
}

std::size_t
ReadSignature::wordOf(std::size_t stripe)
{
    return (stripe * 0x9e3779b97f4a7c15ull >> 32) % kWords;
}

std::uint64_t
ReadSignature::bitOf(std::size_t stripe)
{
    return std::uint64_t{1} << ((stripe * 0x9e3779b97f4a7c15ull >> 26) & 63);
}

SimHtm::SimHtm(SimHtmConfig config, unsigned log2_stripes)
    : config_(config), owners_(log2_stripes)
{
}

void
SimHtm::registerThread(TxDesc &tx)
{
    assert(tx.tid >= 0 && tx.tid < kMaxThreads);
    slots_[tx.tid].desc.store(&tx, std::memory_order_release);
}

void
SimHtm::deregisterThread(TxDesc &tx)
{
    slots_[tx.tid].desc.store(nullptr, std::memory_order_release);
}

void
SimHtm::checkDoomed(TxDesc &tx)
{
    if (tx.doomed->load(std::memory_order_seq_cst))
        abortTx(tx, AbortCause::kConflict);
}

void
SimHtm::doomAllActive(int except_tid)
{
    for (int t = 0; t < kMaxThreads; ++t) {
        if (t == except_tid)
            continue;
        if (TxDesc *d = slots_[t].desc.load(std::memory_order_acquire))
            d->doomed->store(true, std::memory_order_seq_cst);
    }
}

void
SimHtm::hwBegin(TxDesc &tx)
{
    // Lock-elision style begin: do not start speculating while the
    // fallback lock is held.
    while (fallbackLock_.lockedNow())
        cpuRelax();
    tx.seqSnapshot = fallbackGen_->load(std::memory_order_seq_cst);
    tx.inHtm = true;
    ThreadSlot &slot = slots_[tx.tid];
    slot.readLines = 0;
    slot.signature.clear();
}

void
SimHtm::beginFallback(TxDesc &tx)
{
    fallbackLock_.lock();
    fallbackGen_->fetch_add(1, std::memory_order_seq_cst);
    // In-place writer with no ownership claims: every speculating
    // hardware tx must die (coherence would have killed them).
    doomAllActive(tx.tid);
    tx.inFallback = true;
}

void
SimHtm::txBegin(TxDesc &tx)
{
    tx.beginAttempt();
    if (tx.htmBudgetLeft <= 0) {
        beginFallback(tx);
    } else {
        hwBegin(tx);
    }
}

std::uint64_t
SimHtm::hwRead(TxDesc &tx, const std::uint64_t *addr)
{
    if (!tx.writeSet.empty()) {
        if (const WriteEntry *we = tx.writeSet.find(addr))
            return we->value;
    }

    ThreadSlot &slot = slots_[tx.tid];
    const std::size_t stripe = stripeOf(addr);

    // Publish the read *before* checking ownership so a racing writer
    // either sees our signature bit (and dooms us) or is seen by us.
    if (slot.signature.add(stripe)) {
        if (++slot.readLines > config_.readCapacityLines)
            abortTx(tx, AbortCause::kCapacity);
    }

    Orec &owner = owners_.forAddr(addr);
    SpinWaiter waiter;
    for (;;) {
        const OrecWord w = owner.load(std::memory_order_seq_cst);
        if (!w.locked() || w.owner() == static_cast<std::uint64_t>(tx.tid))
            break;
        // Requester-wins: abort the owning writer, then wait for it to
        // notice and release (it may also be mid-commit, in which case
        // we will read its committed value: it serializes before us).
        if (TxDesc *victim =
                slots_[w.owner()].desc.load(std::memory_order_acquire)) {
            victim->doomed->store(true, std::memory_order_seq_cst);
        }
        checkDoomed(tx); // a deadlocked pair resolves by both dying
        waiter.pause();
    }

    const std::uint64_t value = loadWord(addr);
    // Post-read doom check closes the torn-snapshot window: any writer
    // whose write-back we can observe doomed us before writing.
    checkDoomed(tx);
    return value;
}

void
SimHtm::hwWrite(TxDesc &tx, std::uint64_t *addr, std::uint64_t value)
{
    Orec &owner = owners_.forAddr(addr);
    const auto tid = static_cast<std::uint64_t>(tx.tid);

    SpinWaiter waiter;
    for (;;) {
        const OrecWord w = owner.load(std::memory_order_seq_cst);
        if (w.locked()) {
            if (w.owner() == tid) {
                WriteEntry &we = tx.writeSet.put(addr, value);
                we.orec = &owner;
                checkDoomed(tx);
                return;
            }
            if (TxDesc *victim =
                    slots_[w.owner()].desc.load(std::memory_order_acquire)) {
                victim->doomed->store(true, std::memory_order_seq_cst);
            }
            checkDoomed(tx);
            waiter.pause();
            continue;
        }
        if (!owner.tryLock(w, tid))
            continue;

        WriteEntry &we = tx.writeSet.put(addr, value);
        we.orec = &owner;
        we.prevWord = w;
        we.holdsLock = true; // first claim of this stripe

        std::size_t claimed = 0;
        for (const WriteEntry &e : tx.writeSet.entries())
            claimed += e.holdsLock ? 1 : 0;
        if (claimed > config_.writeCapacityLines)
            abortTx(tx, AbortCause::kCapacity);

        // Doom every reader of this stripe (coherence invalidation).
        for (int t = 0; t < kMaxThreads; ++t) {
            if (t == tx.tid)
                continue;
            if (TxDesc *d = slots_[t].desc.load(std::memory_order_acquire)) {
                if (slots_[t].signature.mightContain(stripeOf(addr)))
                    d->doomed->store(true, std::memory_order_seq_cst);
            }
        }
        checkDoomed(tx);
        return;
    }
}

void
SimHtm::awaitOwnerRelease(const void *addr)
{
    // A hardware commit is one step on real HTM; here it is two
    // (hwPreCommitChecks, then hwWriteBackAndRelease), and the
    // fallback lock can be taken between them, too late for
    // doomAllActive to stop the committer. Its buffered writes land
    // only at write-back, so touching a word it still owns would read
    // the pre-image or be overwritten: wait until the owner releases
    // (a committer after its write-back, a doomed owner on abort).
    // The fallback path itself never owns a stripe. An owner that
    // appears after the check is a doomed hardware transaction (none
    // begin while the fallback lock is held), which never writes back.
    const Orec &owner = owners_.forAddr(addr);
    SpinWaiter waiter;
    while (owner.load(std::memory_order_seq_cst).locked())
        waiter.pause();
}

std::uint64_t
SimHtm::txRead(TxDesc &tx, const std::uint64_t *addr)
{
    // Atomic even in the in-place fallback: speculative readers
    // access the same words through loadWord, and mixing plain and
    // atomic accesses on one location is a (TSan-visible) data race.
    if (tx.inFallback) {
        awaitOwnerRelease(addr);
        return loadWord(addr);
    }
    return hwRead(tx, addr);
}

void
SimHtm::txWrite(TxDesc &tx, std::uint64_t *addr, std::uint64_t value)
{
    if (tx.inFallback) {
        awaitOwnerRelease(addr);
        // Undo log, first-write-wins, as GlobalLockTm keeps it: the
        // entry's `value` holds the OLD word, which rollback() stores
        // back. No hardware transaction can use the in-place word
        // meanwhile: none begins while the fallback lock is held, and
        // a doomed one fails its post-read doom check.
        if (tx.writeSet.find(addr) == nullptr)
            tx.writeSet.put(addr, loadWord(addr));
        storeWord(addr, value);
        return;
    }
    hwWrite(tx, addr, value);
}

void
SimHtm::hwPreCommitChecks(TxDesc &tx)
{
    checkDoomed(tx);
    // Fallback-lock subscription: abort if it was (or is being) taken.
    if (fallbackLock_.lockedNow() ||
        fallbackGen_->load(std::memory_order_seq_cst) != tx.seqSnapshot) {
        abortTx(tx, AbortCause::kFallbackLock);
    }
}

void
SimHtm::hwWriteBackAndRelease(TxDesc &tx)
{
    for (const WriteEntry &we : tx.writeSet.entries()) {
        reinterpret_cast<std::atomic<std::uint64_t> *>(we.addr)->store(
            we.value, std::memory_order_release);
    }
    for (WriteEntry &we : tx.writeSet.entries()) {
        if (we.holdsLock) {
            we.orec->releaseRestore(we.prevWord);
            we.holdsLock = false;
        }
    }
    slots_[tx.tid].signature.clear();
    tx.inHtm = false;
}

void
SimHtm::txCommit(TxDesc &tx)
{
    if (tx.inFallback) {
        tx.writeSet.clear();
        tx.inFallback = false;
        fallbackLock_.unlock();
        return;
    }
    hwPreCommitChecks(tx);
    // Test hook: an armed point yields here, widening the window in
    // which a fallback transaction can start (see awaitOwnerRelease).
    static fault::FaultPoint commit_window("htm.commit_window");
    if (commit_window.fire() != 0)
        std::this_thread::yield();
    hwWriteBackAndRelease(tx);
}

void
SimHtm::rollback(TxDesc &tx)
{
    if (tx.inFallback) {
        // Restore the pre-images newest-first, then release.
        auto &entries = tx.writeSet.entries();
        for (std::size_t i = entries.size(); i-- > 0;)
            storeWord(entries[i].addr, entries[i].value);
        tx.writeSet.clear();
        tx.inFallback = false;
        fallbackLock_.unlock();
        return;
    }
    for (WriteEntry &we : tx.writeSet.entries()) {
        if (we.holdsLock) {
            we.orec->releaseRestore(we.prevWord);
            we.holdsLock = false;
        }
    }
    slots_[tx.tid].signature.clear();
    tx.inHtm = false;
}

void
SimHtm::reset()
{
    owners_.reset();
    fallbackGen_->store(0, std::memory_order_relaxed);
    for (auto &slot : slots_) {
        slot.signature.clear();
        slot.readLines = 0;
    }
}

} // namespace proteus::tm
