/**
 * @file
 * SimHtm: software emulation of a best-effort hardware TM (Intel TSX /
 * POWER8 class), the substitution for real HTM hardware (DESIGN.md §2).
 *
 * Faithfully emulated properties:
 *  - *best effort*: bounded read/write footprint; exceeding the
 *    emulated L1 capacity raises AbortCause::kCapacity;
 *  - *eager, requester-wins conflict detection*: accesses doom the
 *    conflicting transaction via an asynchronous `doomed` flag (the
 *    analogue of a coherence-message abort);
 *  - *no progress guarantee*: mutual dooming is possible; forward
 *    progress comes from the retry budget + fallback global lock, the
 *    exact mechanism the paper's contention-management dimensions tune;
 *  - *fallback-lock subscription*: hardware transactions cannot begin
 *    while the lock is held and abort if it was acquired mid-flight.
 *
 * The fallback path writes in place under its lock and undo-logs each
 * word's first pre-image, so its rollback() restores memory like every
 * other backend's (TmBackend's contract).
 *
 * Read visibility uses per-thread signatures (4096-bit Bloom filters
 * over stripe indices), the standard simulator technique (cf. Ruby
 * TM / LogTM-SE); false positives only cause spurious aborts, which
 * real signatures have too.
 */

#ifndef PROTEUS_TM_SIM_HTM_HPP
#define PROTEUS_TM_SIM_HTM_HPP

#include <array>
#include <atomic>

#include "common/cacheline.hpp"
#include "tm/backend.hpp"
#include "tm/global_lock.hpp"
#include "tm/orec.hpp"

namespace proteus::tm {

/** Emulated hardware capacity (in cache-line stripes). */
struct SimHtmConfig
{
    /** Max distinct lines a hardware tx may read (L1+L2 tracking). */
    std::size_t readCapacityLines = 4096;
    /** Max distinct lines a hardware tx may write (L1-bounded). */
    std::size_t writeCapacityLines = 448;
};

/** Per-thread Bloom signature of read stripes. */
class ReadSignature
{
  public:
    static constexpr std::size_t kWords = 64; // 4096 bits

    /** Set the bit for a stripe; returns true if newly set. */
    bool add(std::size_t stripe);

    /** Membership test (false positives possible). */
    bool mightContain(std::size_t stripe) const;

    void clear();

  private:
    static std::size_t wordOf(std::size_t stripe);
    static std::uint64_t bitOf(std::size_t stripe);

    std::array<std::atomic<std::uint64_t>, kWords> words_{};
};

class SimHtm : public TmBackend
{
  public:
    explicit SimHtm(SimHtmConfig config = {}, unsigned log2_stripes = 18);

    BackendKind kind() const override { return BackendKind::kSimHtm; }

    void registerThread(TxDesc &tx) override;
    void deregisterThread(TxDesc &tx) override;

    void txBegin(TxDesc &tx) override;
    std::uint64_t txRead(TxDesc &tx, const std::uint64_t *addr) override;
    void txWrite(TxDesc &tx, std::uint64_t *addr,
                 std::uint64_t value) override;
    void txCommit(TxDesc &tx) override;
    void rollback(TxDesc &tx) override;
    void reset() override;

    const SimHtmConfig &config() const { return config_; }

  protected:
    /** Begin under the fallback lock, dooming hw txs. */
    void beginFallback(TxDesc &tx);

    /** Doom every registered thread currently in a hardware tx. */
    void doomAllActive(int except_tid);

    /** Fallback accesses: wait while a hardware transaction owns
     *  `addr`'s stripe (see sim_htm.cpp). */
    void awaitOwnerRelease(const void *addr);

    /** Abort if this tx was doomed by a conflicting access. */
    void checkDoomed(TxDesc &tx);

    /** Hardware-path pieces, shared with HybridNorecTm. */
    void hwBegin(TxDesc &tx);
    std::uint64_t hwRead(TxDesc &tx, const std::uint64_t *addr);
    void hwWrite(TxDesc &tx, std::uint64_t *addr, std::uint64_t value);
    /** Validate subscription+doom state; throws on failure. */
    void hwPreCommitChecks(TxDesc &tx);
    /** Write back and release ownership/signature. */
    void hwWriteBackAndRelease(TxDesc &tx);

    std::size_t stripeOf(const void *addr) const
    {
        return owners_.indexOf(addr);
    }

    SimHtmConfig config_;

    /** Stripe write-ownership table (locked == owned by tid). */
    OrecTable owners_;

    /** Per-registered-thread state. */
    struct ThreadSlot
    {
        std::atomic<TxDesc *> desc{nullptr};
        ReadSignature signature;
        /** Distinct stripes read by the in-flight hw tx. */
        std::size_t readLines = 0;
    };
    std::array<ThreadSlot, kMaxThreads> slots_;

    SpinLock fallbackLock_;
    /** Counts fallback acquisitions; hw commits check it moved not. */
    PaddedAtomicU64 fallbackGen_{};
};

} // namespace proteus::tm

#endif // PROTEUS_TM_SIM_HTM_HPP
