/**
 * @file
 * ValueRef + ValueArena: the wide-value layer under ProteusKV slots.
 *
 * A slot's value word is interpreted according to the slot's state:
 *
 *  - kFull      : the word is a raw 64-bit value (the legacy numeric
 *                 API; kAdd arithmetic operates on these directly);
 *  - kFullRef   : the word is a ValueRef — a tagged word that is
 *                 either an *inline small value* (up to 7 bytes packed
 *                 next to a length nibble) or a *blob handle* into the
 *                 shard's ValueArena.
 *
 * Blob handles carry a 15-bit generation next to the 48-bit blob
 * address. A reader dereferences a handle only inside the owning
 * shard's reader-epoch section (common/epoch.hpp), and only a handle
 * it read through the TM inside that section. Blobs are recycled only
 * after the displacing write committed AND every section that could
 * hold the handle has ended, so the payload cannot change under the
 * copy, and readBlob/readBlobWord copy with no check. The generation
 * is bumped once per blob lifetime (publish) and serves the TM, not
 * the reader: NOrec and hybrid NOrec validate a writing transaction's
 * reads by value at commit, after its section has closed, and a blob
 * recycled and republished into the same slot must not reproduce the
 * handle word the transaction read. Payload words are std::atomic
 * with relaxed ordering because popFree reads a free blob's next
 * pointer while a racing popper may already be rewriting it (the ABA
 * tag then fails the CAS).
 *
 * Allocation keeps writers off each other's cache lines, the way a
 * jemalloc tcache fronts its arena. Each size class has a lock-free
 * global free list (Treiber stack, ABA-tagged head, the next pointer
 * lives in the dead payload's first word), and every allocation and
 * free goes through a writer's Cache: a bounded per-class magazine
 * refilled in batches from the global list, a private slab, and a
 * limbo of the writer's retired blobs. One Cache per writer per shard
 * lives in the shard's record for that writer (see Shard). A growing
 * store has nothing to recycle, so every insert needs a fresh blob; a
 * writer bump-allocates blobs of up to kSlabMaxBlobBytes from its slab
 * and takes the carve mutex only to carve the next kSlabBytes from the
 * newest chunk (larger blobs carve under it each time). Blobs of two
 * writers therefore never share a line, except where their slabs meet.
 * The per-operation counters sit in per-thread, line-padded stripes
 * that stats() and bytesLive() sum. Freeing splits by reachability:
 *
 *  - freeBlob(): immediate recycle, legal ONLY for blobs whose handle
 *    was never reachable through a committed slot word (staged blobs
 *    of a failed write);
 *  - retire(): deferred recycle for displaced handles. The blob parks
 *    in the writer's own limbo, which the writer drains itself once
 *    every reader section that could hold the handle has ended; what
 *    it cannot drain (a reader parked in a section, or the writer
 *    leaving) spills to the arena's shared limbo, which reclaim()
 *    sweeps on the shard's maintenance cadence.
 *
 * Memory is never returned to the OS while the arena lives: chunks are
 * only released on destruction, so a stale handle (a read-ahead peek)
 * always points at mapped memory.
 */

#ifndef PROTEUS_KVSTORE_VALUE_ARENA_HPP
#define PROTEUS_KVSTORE_VALUE_ARENA_HPP

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cacheline.hpp"
#include "common/epoch.hpp"
#include "common/hints.hpp"
#include "common/line_array.hpp"
#include "obs/flight_recorder.hpp"

namespace proteus::kvstore {

/** Tagged value word stored under state kFullRef (see file comment). */
using ValueRef = std::uint64_t;

constexpr std::uint64_t kValueRefBlobBit = std::uint64_t{1} << 63;
/** Inline payload: bits [58:56] = length (0..7), bits [55:0] = data. */
constexpr unsigned kValueRefInlineLenShift = 56;
constexpr std::size_t kValueRefInlineMax = 7;
/** Blob handle: bits [62:48] = generation, bits [47:0] = address. */
constexpr unsigned kValueRefGenShift = 48;
constexpr std::uint64_t kValueRefPtrMask =
    (std::uint64_t{1} << kValueRefGenShift) - 1;
constexpr std::uint64_t kValueRefGenMask = 0x7fff;

inline bool
valueRefIsBlob(ValueRef ref)
{
    return (ref & kValueRefBlobBit) != 0;
}

inline ValueRef
makeInlineRef(const void *data, std::size_t len)
{
    std::uint64_t word = 0;
    std::memcpy(&word, data, len); // len <= 7: tag byte stays clear
    return word |
           (static_cast<std::uint64_t>(len) << kValueRefInlineLenShift);
}

inline std::size_t
inlineRefLen(ValueRef ref)
{
    return static_cast<std::size_t>((ref >> kValueRefInlineLenShift) & 7);
}

inline void
inlineRefCopy(ValueRef ref, std::string *out)
{
    const std::size_t len = inlineRefLen(ref);
    out->resize(len);
    std::memcpy(out->data(), &ref, len);
}

/**
 * Blob arena with stable addresses, per-size-class recycling and
 * reader-epoch deferred reuse. Thread-safe; one per shard.
 */
class ValueArena
{
  public:
    /**
     * Size classes, by payload capacity (a blob adds a 16-byte header):
     * 16-byte steps up to 256 B, then four classes per doubling up to
     * kMaxBlobBytes — the spacing jemalloc uses. Rounding a non-empty
     * payload up to its class wastes at most 15 B up to 256 B and less
     * than 25% of the length above it.
     */
    static constexpr std::size_t kMinClassBytes = 16;
    static constexpr std::size_t kMaxBlobBytes = std::size_t{512} << 10;
    static constexpr unsigned kLog2LinearMax = 8; // 16-byte steps to 256 B
    static constexpr unsigned kLog2PerDoubling = 2; // 4 classes/doubling
    static constexpr std::size_t kLinearClasses =
        (std::size_t{1} << kLog2LinearMax) / kMinClassBytes;
    static constexpr std::size_t kPerDoubling = std::size_t{1}
                                                << kLog2PerDoubling;
    static constexpr std::size_t kNumClasses =
        kLinearClasses +
        kPerDoubling * (std::bit_width(kMaxBlobBytes) - 1 - kLog2LinearMax);

    /**
     * Class of a `len`-byte payload: the smallest class whose capacity
     * holds it, in O(1). Capacities strictly increase with the class,
     * so a class's own capacity maps back to that class (the inverse
     * the free paths use). Throws std::length_error above
     * kMaxBlobBytes.
     */
    static constexpr std::size_t
    classOf(std::size_t len)
    {
        if (len > kMaxBlobBytes)
            throw std::length_error("ValueArena: blob too large");
        if (len <= kLinearClasses * kMinClassBytes)
            return len <= kMinClassBytes ? 0 : (len - 1) / kMinClassBytes;
        // 2^k < len <= 2^(k+1): the doubling's steps are 2^(k-2) wide,
        // so (len - 1) >> (k - 2) lies in [kPerDoubling, 2*kPerDoubling).
        const unsigned k = std::bit_width(len - 1) - 1;
        return kLinearClasses + (k - kLog2LinearMax) * kPerDoubling +
               ((len - 1) >> (k - kLog2PerDoubling)) - kPerDoubling;
    }

    /** Payload capacity of class `cls` (< kNumClasses). */
    static constexpr std::size_t
    classCapacity(std::size_t cls)
    {
        if (cls < kLinearClasses)
            return (cls + 1) * kMinClassBytes;
        const std::size_t doubling = (cls - kLinearClasses) / kPerDoubling;
        const std::size_t step = (cls - kLinearClasses) % kPerDoubling;
        return (kPerDoubling + 1 + step)
               << (kLog2LinearMax - kLog2PerDoubling + doubling);
    }

    /**
     * One writer's allocation state: a free-blob magazine (one bounded
     * stack per size class), a private slab that fresh blobs are
     * bump-allocated from, and a limbo of the writer's retired blobs.
     * Only its owner touches it, so the alloc/free/retire traffic of
     * one writer touches no shared state in steady state. Must be
     * flushed back (flushCache) before its owner forgets it, or the
     * cached capacity and the parked blobs leak until arena
     * destruction.
     */
    class Cache
    {
      public:
        static constexpr std::size_t kMagazine = 8;
        /** Bytes a cache carves from the newest chunk at a time. */
        static constexpr std::size_t kSlabBytes = std::size_t{32} << 10;
        /**
         * Largest blob (header included) bumped from the slab; larger
         * ones carve from the chunk directly. A slab that cannot fit
         * the next blob strands its tail only when another carve
         * followed it in the chunk, so the cap bounds that waste to a
         * sixteenth of a slab.
         */
        static constexpr std::size_t kSlabMaxBlobBytes = kSlabBytes / 16;
        /** Retired blobs parked before retire() attempts a drain. */
        static constexpr std::size_t kDrainThreshold = 32;
        /** Limbo bound; beyond it a drain spills to the shared limbo. */
        static constexpr std::size_t kLimboCapacity = 256;

        /** Retired blobs parked in this cache's limbo. */
        std::size_t limboSize() const { return limbo_.size(); }

      private:
        friend class ValueArena;
        struct ClassCache
        {
            std::atomic<std::uint64_t> *blobs[kMagazine];
            std::uint32_t count = 0;
        };
        /**
         * Limbo entries are unstamped (epoch 0) at retire; a drain
         * stamps the batch with one advance() RMW (the only operation
         * guaranteed to observe the epoch's modification-order tail —
         * a plain load could read a value older than a concurrently
         * pinned reader's entry epoch and recycle under it).
         */
        struct LimboEntry
        {
            std::atomic<std::uint64_t> *blob;
            std::uint64_t epoch; //!< 0 until a drain stamps it
        };
        ClassCache classes_[kNumClasses]{};
        /** Unused part of the slab: fresh blobs come from its front. */
        std::atomic<std::uint64_t> *slabNext_ = nullptr;
        std::atomic<std::uint64_t> *slabEnd_ = nullptr;
        std::vector<LimboEntry> limbo_;
    };

    /** Contention/throughput telemetry (monotonic, relaxed). */
    struct Stats
    {
        std::uint64_t allocs = 0;
        std::uint64_t magazineHits = 0;
        std::uint64_t globalHits = 0;
        /** Fresh blobs, from a slab or straight from a chunk. */
        std::uint64_t carves = 0;
        /** carve-mutex acquisitions that found it already held. */
        std::uint64_t carveContended = 0;
        /** failed CAS attempts on the lock-free free-list heads. */
        std::uint64_t casRetries = 0;
        std::uint64_t retired = 0;
        std::uint64_t recycled = 0;
    };

    ValueArena() = default;
    ValueArena(const ValueArena &) = delete;
    ValueArena &operator=(const ValueArena &) = delete;

    /**
     * Allocate a blob from `cache` (magazine, then the global list,
     * then a fresh carve), copy `len` bytes into it and return its
     * handle. Call *outside* any transaction (allocation is a side
     * effect a retried transaction body must not repeat); publish the
     * handle in a slot's value word transactionally afterwards.
     */
    ValueRef allocBlob(const void *data, std::size_t len, Cache &cache);

    /**
     * Immediately recycle a blob whose handle was NEVER reachable
     * through a committed slot word (a failed write's staged blob).
     * Published handles must go through retire instead — a pinned
     * reader may still be copying them. Inline refs are ignored, so
     * callers can pass any kFullRef word.
     */
    void freeBlob(ValueRef ref, Cache &cache);

    /**
     * Defer-recycle a displaced blob once its displacing transaction
     * committed: park it in `cache`'s limbo (no shared state). At
     * Cache::kDrainThreshold the call drains the limbo in place, so
     * displace churn recycles its own garbage into its own magazine.
     * Inline refs are ignored.
     */
    void retire(ValueRef ref, Cache &cache, EpochDomain &readers);

    /**
     * Stamp + sweep `cache`'s limbo: one advance() RMW tags every
     * unstamped entry, then entries older than the oldest active
     * reader section recycle into the magazine (then the free lists).
     * Entries still pinned stay; if the limbo exceeds
     * Cache::kLimboCapacity anyway, it spills to the shared limbo.
     */
    void drain(Cache &cache, EpochDomain &readers);

    /**
     * Reclaim sweep of the shared limbo against the shard's
     * reader-epoch domain: captures the pending batch under the limbo
     * lock, THEN takes the domain's epoch fence (ordering matters — a
     * spill that lands after the capture waits for the next sweep
     * instead of being stamped with a tag older than a reader that can
     * still hold it), and recycles every stamped blob whose tag
     * predates the oldest active reader section. Cheap no-op when the
     * limbo is empty.
     */
    void reclaim(EpochDomain &readers);

    /**
     * Give a cache back: its magazines go to the global free lists,
     * its limbo to the shared limbo (quiescence is NOT required), and
     * its slab is dropped. An unused slab tail that still ends the
     * newest chunk goes back to the chunk, so the next carve starts
     * there.
     */
    void flushCache(Cache &cache);

    /**
     * Copy the payload out. Legal only while the caller is pinned in
     * the owning shard's EpochDomain AND obtained the handle from a
     * committed-current read inside that section, or owns a blob no
     * committed slot word names yet (see file comment).
     */
    void readBlob(ValueRef ref, std::string *out) const;

    /**
     * First up-to-8 payload bytes as a little-endian word, zero-padded
     * (the numeric decode of a byte value). Same rule as readBlob.
     */
    std::uint64_t readBlobWord(ValueRef ref) const;

    /**
     * Read-ahead hint: prefetch the leading lines (header and first
     * payload bytes) of the blob `ref` names; a no-op for inline refs.
     * Address arithmetic only, and chunks stay mapped while the arena
     * lives, so a stale or recycled handle costs a wasted prefetch.
     */
    static void
    prefetchBlob(ValueRef ref)
    {
        if (valueRefIsBlob(ref)) {
            prefetchLines(reinterpret_cast<const void *>(
                              ref & kValueRefPtrMask),
                          kPrefetchBytes);
        }
    }

    /**
     * Bytes currently handed out to live blobs (capacity, not len).
     * Exact once writers quiesce; a read racing them sums stripes at
     * slightly different moments, so it may lag, and reads 0 rather
     * than below it.
     */
    std::size_t bytesLive() const;

    /** Blobs in the shared limbo awaiting reader-epoch quiescence
     *  (writers' own limbos are not counted; see Cache). */
    std::size_t limboCount() const
    {
        return limboCount_.load(std::memory_order_relaxed);
    }

    Stats stats() const;

    /** Attach the store's flight recorder (called by the owning
     *  Shard at construction) so retire/recycle batches land as
     *  trace events stamped with the store-wide commit sequence. */
    void
    attachObs(obs::FlightRecorder *recorder,
              const std::atomic<std::uint64_t> *commitSeq, int shard)
    {
        recorder_ = recorder;
        commitSeqSrc_ = commitSeq;
        shardIndex_ = shard;
    }

  private:
    void
    trace(obs::TraceKind kind, std::uint64_t a, std::uint64_t b) const
    {
        if (recorder_) {
            recorder_->record(
                kind, shardIndex_,
                commitSeqSrc_ ? commitSeqSrc_->load(
                                    std::memory_order_relaxed)
                              : 0,
                a, b);
        }
    }

    obs::FlightRecorder *recorder_ = nullptr;
    const std::atomic<std::uint64_t> *commitSeqSrc_ = nullptr;
    std::int32_t shardIndex_ = -1;

    /**
     * Blob layout inside a chunk, in 64-bit atomic words:
     *   word 0: generation, bumped once per lifetime (see file comment)
     *   word 1: (capacityWords << 32) | payload length in bytes
     *   word 2..: payload, little-endian packed (word 2 doubles as the
     *             intrusive next pointer while the blob sits on a free
     *             list — the payload is dead there by construction)
     *
     * A chunk is one huge page (kChunkWords words, on a huge-page
     * boundary: see common/line_array.hpp). A shard's blobs can span
     * far more than the 8 MiB a TLB maps in 4 KiB pages, and then a
     * blob read pays a page walk on top of its cache misses; in 2 MiB
     * pages the TLB covers the arena. Blobs are carved from the newest
     * chunk only, and the largest class fits one chunk, so a chunk
     * gives up at most the tail that the next blob did not fit in.
     */
    struct Chunk
    {
        std::unique_ptr<LineArray<std::atomic<std::uint64_t>>> words;
        std::size_t used = 0;
    };


    /**
     * One writer's per-operation counters, alone on a cache line. A
     * thread picks its stripe once (stripe()), so writers on different
     * threads bump different lines. `bytesLive` is the stripe's net
     * share: a blob freed on another thread than the one that
     * allocated it moves bytes between stripes, so one stripe's value
     * wraps and only the sum over stripes means anything.
     */
    struct alignas(kCacheLineSize) Stripe
    {
        std::atomic<std::uint64_t> allocs{0};
        std::atomic<std::uint64_t> magazineHits{0};
        std::atomic<std::uint64_t> globalHits{0};
        std::atomic<std::uint64_t> carves{0};
        std::atomic<std::uint64_t> retired{0};
        std::atomic<std::uint64_t> recycled{0};
        std::atomic<std::uint64_t> bytesLive{0};
    };
    static_assert(sizeof(Stripe) == kCacheLineSize);
    static constexpr std::size_t kStripes = 16;

    /** The calling thread's stripe. */
    Stripe &stripe();

    static constexpr std::size_t kChunkWords =
        kHugePageSize / sizeof(std::uint64_t); // 2 MiB
    static constexpr std::size_t kSlabWords =
        Cache::kSlabBytes / sizeof(std::uint64_t);
    static_assert(kChunkWords % kSlabWords == 0);
    /** Bytes prefetchBlob covers from the blob's first word. */
    static constexpr std::size_t kPrefetchBytes = 192;

    /** A fresh `words`-word blob: from the cache's slab when it is
     *  small enough, else straight from the newest chunk. */
    std::atomic<std::uint64_t> *carve(std::size_t words, Cache &cache,
                                      Stripe &st);
    /** Lock mutex_, counting acquisitions that found it held. */
    std::unique_lock<std::mutex> lockCarve();
    /**
     * Take `min_words` to `max_words` words off the newest chunk (as
     * many as it has left, up to `max_words`), starting a new chunk
     * when fewer than `min_words` remain; `*got` receives the count.
     * mutex_ held.
     */
    std::atomic<std::uint64_t> *takeLocked(std::size_t min_words,
                                           std::size_t max_words,
                                           std::size_t *got);
    /** Drop the cache's slab; its unused tail goes back to the newest
     *  chunk when nothing was carved after it. mutex_ held. */
    void releaseSlabLocked(Cache &cache);
    /** Start a lifetime: bump the generation, write `len` bytes and
     *  return the handle. */
    ValueRef publish(std::atomic<std::uint64_t> *blob,
                     std::size_t cap_bytes, const void *data,
                     std::size_t len);
    void pushFree(std::size_t cls, std::atomic<std::uint64_t> *blob);
    std::atomic<std::uint64_t> *popFree(std::size_t cls);
    /** Hand a dead blob of class `cls` to `cache`'s magazine when it
     *  has room, else to the class's global free list. */
    void stash(std::size_t cls, std::atomic<std::uint64_t> *blob,
               Cache &cache);
    /** Move every limbo entry of `cache` to the shared limbo. */
    void spill(Cache &cache);

    mutable std::mutex mutex_; //!< guards chunk carving only
    std::vector<Chunk> chunks_;

    /**
     * Lock-free per-class free lists: head = (ABA tag << 48) | blob
     * address (user-space pointers fit in 48 bits — the same layout
     * assumption ValueRef and the intent words already make).
     */
    Padded<std::atomic<std::uint64_t>> freeHeads_[kNumClasses];

    std::mutex limboMutex_;
    /** Spilled, not yet epoch-stamped (awaiting the next sweep). */
    std::vector<std::atomic<std::uint64_t> *> pending_;
    /** Epoch-stamped, awaiting reader quiescence. */
    std::vector<Cache::LimboEntry> limbo_;
    std::atomic<std::size_t> limboCount_{0};

    Stripe stripes_[kStripes];
    /** Bumped only when a CAS or the carve mutex meets another
     *  thread, so they stay shared. */
    std::atomic<std::uint64_t> carveContended_{0};
    std::atomic<std::uint64_t> casRetries_{0};
};

static_assert(ValueArena::kNumClasses == 60);
static_assert(ValueArena::classCapacity(ValueArena::kNumClasses - 1) ==
              ValueArena::kMaxBlobBytes);

} // namespace proteus::kvstore

#endif // PROTEUS_KVSTORE_VALUE_ARENA_HPP
