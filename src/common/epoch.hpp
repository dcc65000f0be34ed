/**
 * @file
 * EpochDomain: quiescent-state-based reclamation for read paths.
 *
 * A domain owns one cache-line-padded slot per thread. A reader
 * *enters* a section by publishing the domain's current epoch into its
 * slot (and re-validating, so a concurrent reclaimer can never miss
 * it), and *exits* by clearing the slot. Retiring a resource costs
 * nothing epoch-wise: the owner just parks it on a reclaimer-visible
 * list (behind a lock or another synchronizing handoff). A reclaim
 * sweep stamps everything parked so far with one advance() — the
 * epoch fence — and recycles a stamped resource once minActive()
 * exceeds its tag, i.e. once every section that could have observed
 * it while it was still reachable has ended.
 *
 * The guarantee callers build on: a handle obtained *inside* a section
 * entered at epoch e — from any committed-current read — is retired at
 * some R >= e if it is ever retired at all (the retire must follow the
 * displacement that made the handle unreachable, which follows the
 * read, which follows the enter). While the section is open the slot
 * pins minActive() <= e <= R, so the handle's target is never
 * recycled underneath the reader. ProteusKV dereferences every blob
 * handle inside such a section, and copies the payload with no check
 * (value_arena.hpp).
 *
 * Sections must be short and never held across a blocking wait (enter
 * inside the transaction body, not around the retry loop): an open
 * section only *defers* recycling, so a stalled section grows the
 * limbo lists, never corrupts them. enter/exit do not nest, but
 * EpochPin does: a pin on a slot that is already in a section joins
 * that section, so a helper can pin its own dereference whether or
 * not its caller pinned the whole body.
 *
 * Memory-order sketch (why a reclaimer cannot miss a live reader):
 * enter() stores the slot and re-loads the epoch seq_cst; advance()
 * is a seq_cst RMW, so it reads the tail of the epoch's modification
 * order — its returned tag R is >= the entry epoch e of every section
 * opened before it. If the bump (to R+1 > e) were ordered before a
 * reader's re-load, that reader would have seen the newer epoch and
 * re-pinned past R (and can no longer reach anything tagged R);
 * otherwise the bump, and therefore the sweep's minActive() scan, is
 * ordered after the reader's slot store and must observe the pinned
 * e <= R.
 */

#ifndef PROTEUS_COMMON_EPOCH_HPP
#define PROTEUS_COMMON_EPOCH_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/cacheline.hpp"

namespace proteus {

/** One reader's published epoch; 0 = quiescent (not in a section). */
struct alignas(kCacheLineSize) EpochSlot
{
    std::atomic<std::uint64_t> active{0};
};

class EpochDomain
{
  public:
    explicit EpochDomain(std::size_t slot_count)
        : slotCount_(slot_count),
          slots_(std::make_unique<EpochSlot[]>(slot_count))
    {
        // Epoch 0 is reserved: a slot holding 0 reads as quiescent.
        epoch_->store(1, std::memory_order_relaxed);
    }

    EpochDomain(const EpochDomain &) = delete;
    EpochDomain &operator=(const EpochDomain &) = delete;

    /** Hand out slot `i`, widening the minActive() scan to cover it.
     *  Callers map threads to distinct slot indices (e.g. dense TM
     *  tids); claiming is idempotent. */
    EpochSlot *
    claimSlot(std::size_t i)
    {
        std::uint64_t seen =
            watermark_->load(std::memory_order_relaxed);
        while (seen < i + 1 &&
               !watermark_->compare_exchange_weak(
                   seen, i + 1, std::memory_order_acq_rel,
                   std::memory_order_relaxed)) {
        }
        return &slots_[i];
    }

    /** Open a section; returns the entry epoch. */
    std::uint64_t
    enter(EpochSlot &slot)
    {
        std::uint64_t e = epoch_->load(std::memory_order_relaxed);
        for (;;) {
            slot.active.store(e, std::memory_order_seq_cst);
            const std::uint64_t cur =
                epoch_->load(std::memory_order_seq_cst);
            if (cur == e)
                return e;
            e = cur; // a retire raced the publish; re-pin at its epoch
        }
    }

    static void
    exit(EpochSlot &slot)
    {
        slot.active.store(0, std::memory_order_release);
    }

    /**
     * Reclaim-sweep fence: bumps the epoch and returns the pre-bump
     * value. Every resource that was *handed to the reclaimer before
     * this call* (through a synchronizing channel — e.g. pushed under
     * the limbo lock the sweeper then takes) may be tagged with the
     * returned value and recycled once minActive() > tag: any section
     * that could hold such a resource entered at an epoch <= tag (its
     * entry epoch was in the modification order this RMW reads the
     * tail of), and sections entered after the bump observe an epoch
     * > tag, so they can no longer reach it. One RMW amortizes over
     * the whole batch — the retire hot path itself touches no shared
     * epoch state.
     */
    std::uint64_t
    advance()
    {
        return epoch_->fetch_add(1, std::memory_order_seq_cst);
    }

    /** Oldest epoch pinned by an open section (max value if none).
     *  Scans only the claimed-slot prefix. */
    std::uint64_t
    minActive() const
    {
        std::uint64_t min = ~std::uint64_t{0};
        const std::uint64_t used =
            watermark_->load(std::memory_order_acquire);
        for (std::size_t i = 0; i < used; ++i) {
            const std::uint64_t v =
                slots_[i].active.load(std::memory_order_seq_cst);
            if (v != 0 && v < min)
                min = v;
        }
        return min;
    }

    std::uint64_t
    current() const
    {
        return epoch_->load(std::memory_order_acquire);
    }

  private:
    std::size_t slotCount_;
    std::unique_ptr<EpochSlot[]> slots_;
    /** Starts at 1 so slot value 0 can mean "quiescent". */
    Padded<std::atomic<std::uint64_t>> epoch_;
    /** One past the highest slot index ever claimed. */
    Padded<std::atomic<std::uint64_t>> watermark_;
};

/**
 * RAII section over one slot. On a slot that is already in a section
 * (only its owning thread writes it, so a relaxed load sees its own
 * last store) the pin neither enters nor exits: the outer section
 * covers it and ends with the outer pin.
 */
class EpochPin
{
  public:
    EpochPin(EpochDomain &domain, EpochSlot &slot)
    {
        if (slot.active.load(std::memory_order_relaxed) == 0) {
            domain.enter(slot);
            slot_ = &slot;
        }
    }
    ~EpochPin()
    {
        if (slot_ != nullptr)
            EpochDomain::exit(*slot_);
    }

    EpochPin(const EpochPin &) = delete;
    EpochPin &operator=(const EpochPin &) = delete;

    /** True when this pin opened the section (the slot was quiescent),
     *  false when it joined an enclosing one. */
    bool opened() const { return slot_ != nullptr; }

  private:
    EpochSlot *slot_ = nullptr;
};

} // namespace proteus

#endif // PROTEUS_COMMON_EPOCH_HPP
