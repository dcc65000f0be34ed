/**
 * @file
 * Per-thread transaction descriptor and read/write-set containers.
 *
 * One TxDesc exists per registered thread and is reused across
 * transactions (and across backend switches: it is a superset of the
 * state any backend needs). The write set is an open-addressing hash
 * map with generation-tagged slots so that clearing between attempts
 * is O(1) in the common case.
 */

#ifndef PROTEUS_TM_TXDESC_HPP
#define PROTEUS_TM_TXDESC_HPP

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/cacheline.hpp"
#include "common/rng.hpp"
#include "tm/orec.hpp"
#include "tm/tm_api.hpp"

namespace proteus::tm {

/** One buffered transactional write (redo-log entry). In-place
 *  writers (the global lock, the emulated HTM's fallback) keep an
 *  undo log instead: `value` then holds the word's pre-image. */
struct WriteEntry
{
    std::uint64_t *addr = nullptr;
    std::uint64_t value = 0;
    /** Orec covering addr; cached to avoid re-hashing at commit. */
    Orec *orec = nullptr;
    /** Orec word observed when this entry first locked the stripe. */
    OrecWord prevWord{};
    /** True once this tx holds the stripe lock (eager backends). */
    bool holdsLock = false;
    /** Second lock table entry (SwissTM write-lock). */
    Orec *wlockOrec = nullptr;
    /** True once this tx holds the SwissTM write-lock. */
    bool holdsWlock = false;
};

/**
 * Redo-log with O(1) lookup by address.
 *
 * Open-addressing; slots carry a generation tag, so clear() is a
 * counter bump. Grows by rehash when load factor exceeds 3/4.
 */
class WriteSet
{
  public:
    WriteSet();

    /** Number of buffered writes. */
    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /** Find the entry for addr, or nullptr. */
    WriteEntry *find(const std::uint64_t *addr);

    /**
     * Insert a new entry or update the buffered value of an existing
     * one. Returns the entry (new or old).
     */
    WriteEntry &put(std::uint64_t *addr, std::uint64_t value);

    /** All entries, insertion-ordered. */
    std::vector<WriteEntry> &entries() { return entries_; }
    const std::vector<WriteEntry> &entries() const { return entries_; }

    /** Drop all entries (O(1) amortized). */
    void clear();

  private:
    struct Slot
    {
        std::uint64_t generation = 0;
        std::uint32_t entryIndex = 0;
        const std::uint64_t *key = nullptr;
    };

    std::size_t probeStart(const std::uint64_t *addr) const;
    void grow();

    std::vector<WriteEntry> entries_;
    std::vector<Slot> slots_;
    std::uint64_t generation_ = 1;
    std::size_t slotMask_;
};

/** One read-set entry; backends use the fields they need. */
struct ReadEntry
{
    /** Address read (value-based validation: NOrec, SimHtm). */
    const std::uint64_t *addr = nullptr;
    /** Value observed (value-based validation). */
    std::uint64_t value = 0;
    /** Orec covering addr (version-based validation). */
    Orec *orec = nullptr;
    /** Orec word observed at read time (version-based validation). */
    OrecWord word{};
};

/**
 * Per-thread transaction descriptor.
 *
 * Lifetime: created at thread registration, destroyed at
 * deregistration; all fields are reset between attempts by the owning
 * backend. The `doomed` flag is the only field written by *other*
 * threads (emulated-HTM eager conflicts) and is therefore atomic and
 * padded.
 */
class TxDesc
{
  public:
    explicit TxDesc(int tid, std::uint64_t seed)
        : tid(tid), rng(seed)
    {}

    TxDesc(const TxDesc &) = delete;
    TxDesc &operator=(const TxDesc &) = delete;

    /** Registered thread id, dense from 0. */
    const int tid;

    /** Per-thread RNG (backoff jitter). */
    Rng rng;

    /** Read timestamp (rv) for timestamp-based backends. */
    std::uint64_t startTs = 0;
    /** NOrec/Hybrid sequence-lock snapshot. */
    std::uint64_t seqSnapshot = 0;

    WriteSet writeSet;
    std::vector<ReadEntry> readSet;

    /** True while inside an emulated hardware transaction. */
    bool inHtm = false;
    /** True while holding the HTM fallback lock or the global lock
     *  (writes go in place, undo-logged in the write set). */
    bool inFallback = false;
    /** HTM retries left before falling back. */
    int htmBudgetLeft = 0;

    /** Set asynchronously by a conflicting emulated-HTM writer. */
    Padded<std::atomic<bool>> doomed{};

    /** Cause of the most recent abort of this thread's transaction. */
    AbortCause lastAbortCause = AbortCause::kNone;
    /** Aborts since the last commit (drives exponential backoff). */
    unsigned consecutiveAborts = 0;

    /** Reset per-attempt state; called by backends at txBegin. */
    void
    beginAttempt()
    {
        writeSet.clear();
        readSet.clear();
        inHtm = false;
        inFallback = false;
        doomed->store(false, std::memory_order_relaxed);
    }
};

} // namespace proteus::tm

#endif // PROTEUS_TM_TXDESC_HPP
