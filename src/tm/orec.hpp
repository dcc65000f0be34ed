/**
 * @file
 * Ownership records (orecs), the global version clock, and the shared
 * lock-table used by the word-based STMs.
 *
 * An orec is a 64-bit versioned lock:
 *   - unlocked: (version << 1) | 0
 *   - locked:   (owner-thread-id << 1) | 1
 *
 * Versions are drawn from a global clock (TL2/TinySTM-style). All orec
 * state lives in backend-owned tables, never inside application memory,
 * which is the integration requirement PolyTM imposes on backends
 * (paper §4: metadata "in separate memory regions").
 */

#ifndef PROTEUS_TM_OREC_HPP
#define PROTEUS_TM_OREC_HPP

#include <atomic>
#include <cstdint>

#include "common/cacheline.hpp"
#include "common/line_array.hpp"

namespace proteus::tm {

/** Word describing an orec state. */
struct OrecWord
{
    std::uint64_t raw = 0;

    static constexpr std::uint64_t kLockBit = 1;

    bool locked() const { return (raw & kLockBit) != 0; }
    std::uint64_t version() const { return raw >> 1; }
    std::uint64_t owner() const { return raw >> 1; }

    static OrecWord makeVersion(std::uint64_t version)
    {
        return OrecWord{version << 1};
    }

    static OrecWord makeLocked(std::uint64_t owner_tid)
    {
        return OrecWord{(owner_tid << 1) | kLockBit};
    }

    bool operator==(const OrecWord &other) const = default;
};

/**
 * One versioned lock: a single unpadded word. Orecs sit 8 to a cache
 * line (see OrecTable for which words share one).
 */
struct Orec
{
    std::atomic<std::uint64_t> word{0};

    OrecWord load(std::memory_order mo = std::memory_order_acquire) const
    {
        return OrecWord{word.load(mo)};
    }

    /** Try to move unlocked `expected` -> locked by `tid`. */
    bool
    tryLock(OrecWord expected, std::uint64_t tid)
    {
        std::uint64_t raw = expected.raw;
        return word.compare_exchange_strong(
            raw, OrecWord::makeLocked(tid).raw, std::memory_order_acq_rel);
    }

    /** Release a lock we own, installing a new version. */
    void
    releaseToVersion(std::uint64_t version)
    {
        word.store(OrecWord::makeVersion(version).raw,
                   std::memory_order_release);
    }

    /** Release a lock we own, restoring the pre-lock word. */
    void
    releaseRestore(OrecWord prev)
    {
        word.store(prev.raw, std::memory_order_release);
    }
};
static_assert(sizeof(Orec) == 8, "orecs pack 8 per cache line");

/**
 * Fixed-size hash table of orecs indexed by address, one orec per
 * word.
 *
 * The stripe count is a power of two. The hash is line-local: a
 * multiplicative hash (like TinySTM's lock array) of the 64-byte line
 * address picks an orec line, and the word's index within its line
 * (address bits 3-5) is the orec's index within that line. The 8 words
 * of one data line therefore own the 8 orecs of one orec line, so a
 * transaction touching a line's words pays one metadata line for them,
 * not one per word. Conflict granularity stays one word: two words
 * alias no more often than in a word-hashed table of the same size
 * (the words of one line never do).
 */
class OrecTable
{
  public:
    /** @param log2_size log2 of the number of stripes. */
    explicit OrecTable(unsigned log2_size = 20)
        : mask_((std::size_t{1} << log2_size) - 1),
          orecs_(std::size_t{1} << log2_size)
    {}

    Orec &forAddr(const void *addr)
    {
        return orecs_[indexOf(addr)];
    }

    std::size_t indexOf(const void *addr) const
    {
        const auto bits = reinterpret_cast<std::uintptr_t>(addr);
        const std::uint64_t line = (bits >> 6) * 0x9e3779b97f4a7c15ull;
        const std::size_t word_in_line = (bits >> 3) & 7;
        return (static_cast<std::size_t>(line >> 24) << 3 | word_in_line) &
               mask_;
    }

    std::size_t size() const { return orecs_.size(); }

    /** Reset all stripes to version 0 (only while quiesced). */
    void
    reset()
    {
        for (auto &o : orecs_)
            o.word.store(0, std::memory_order_relaxed);
    }

  private:
    std::size_t mask_;
    /** Line-aligned, so orecs [8k, 8k+8) share one cache line. */
    LineArray<Orec> orecs_;
};

/** Global version clock shared by the timestamp-based STMs. */
class GlobalClock
{
  public:
    std::uint64_t now() const
    {
        return clock_->load(std::memory_order_acquire);
    }

    /** Atomically advance and return the new timestamp. */
    std::uint64_t tick()
    {
        return clock_->fetch_add(1, std::memory_order_acq_rel) + 1;
    }

    /** Reset to zero (only while quiesced). */
    void reset() { clock_->store(0, std::memory_order_relaxed); }

  private:
    PaddedAtomicU64 clock_{};
};

} // namespace proteus::tm

#endif // PROTEUS_TM_OREC_HPP
