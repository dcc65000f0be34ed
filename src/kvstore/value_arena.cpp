#include "kvstore/value_arena.hpp"

#include <algorithm>
#include <new>

#include "common/fault.hpp"

namespace proteus::kvstore {

namespace {

inline std::atomic<std::uint64_t> *
blobOf(ValueRef ref)
{
    return reinterpret_cast<std::atomic<std::uint64_t> *>(
        ref & kValueRefPtrMask);
}

constexpr std::size_t
wordsFor(std::size_t payload_bytes)
{
    return 2 + (payload_bytes + 7) / 8;
}

inline std::size_t
capBytesOf(const std::atomic<std::uint64_t> *blob)
{
    const std::uint64_t meta = blob[1].load(std::memory_order_relaxed);
    return (static_cast<std::size_t>(meta >> 32) - 2) * 8;
}

constexpr std::uint64_t kHeadPtrMask =
    (std::uint64_t{1} << 48) - 1;

inline std::atomic<std::uint64_t> *
headPtr(std::uint64_t head)
{
    return reinterpret_cast<std::atomic<std::uint64_t> *>(
        head & kHeadPtrMask);
}

inline std::uint64_t
packHead(std::uint64_t tag, const std::atomic<std::uint64_t> *ptr)
{
    return (tag << 48) |
           (reinterpret_cast<std::uint64_t>(ptr) & kHeadPtrMask);
}

} // namespace

ValueArena::Stripe &
ValueArena::stripe()
{
    // Threads take stripes round-robin on first use, so up to
    // kStripes live threads get a line each.
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t mine =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripes_[mine];
}

std::unique_lock<std::mutex>
ValueArena::lockCarve()
{
    std::unique_lock<std::mutex> lk(mutex_, std::try_to_lock);
    if (!lk.owns_lock()) {
        carveContended_.fetch_add(1, std::memory_order_relaxed);
        lk.lock();
    }
    return lk;
}

std::atomic<std::uint64_t> *
ValueArena::takeLocked(std::size_t min_words, std::size_t max_words,
                       std::size_t *got)
{
    static_assert(wordsFor(kMaxBlobBytes) <= kChunkWords,
                  "every size class fits one chunk");
    if (chunks_.empty() || kChunkWords - chunks_.back().used < min_words) {
        chunks_.push_back(
            {std::make_unique<LineArray<std::atomic<std::uint64_t>>>(
                 kChunkWords),
             0});
    }
    Chunk &chunk = chunks_.back();
    *got = std::min(max_words, kChunkWords - chunk.used);
    std::atomic<std::uint64_t> *run = chunk.words->begin() + chunk.used;
    chunk.used += *got;
    return run;
}

void
ValueArena::releaseSlabLocked(Cache &cache)
{
    if (!chunks_.empty()) {
        Chunk &chunk = chunks_.back();
        // used > 0: a slab ending at an empty chunk's first word lies
        // in an older chunk that merely sits just below it.
        if (chunk.used > 0 &&
            cache.slabEnd_ == chunk.words->begin() + chunk.used)
            chunk.used = static_cast<std::size_t>(cache.slabNext_ -
                                                  chunk.words->begin());
    }
    cache.slabNext_ = cache.slabEnd_ = nullptr;
}

std::atomic<std::uint64_t> *
ValueArena::carve(std::size_t words, Cache &cache, Stripe &st)
{
    // Allocation-failure injection: surfaces as the bad_alloc a real
    // exhausted arena would throw, so the write paths' kNoMemory
    // handling can be exercised deterministically.
    static fault::FaultPoint fpCarve("arena.carve");
    if (fpCarve.fire())
        throw std::bad_alloc{};
    std::atomic<std::uint64_t> *blob = nullptr;
    if (words * sizeof(std::uint64_t) <= Cache::kSlabMaxBlobBytes) {
        if (static_cast<std::size_t>(cache.slabEnd_ - cache.slabNext_) <
            words) {
            // Return the tail first: when nothing was carved after
            // this slab, the next one continues it and strands nothing.
            std::unique_lock<std::mutex> lk = lockCarve();
            releaseSlabLocked(cache);
            std::size_t got = 0;
            cache.slabNext_ = takeLocked(words, kSlabWords, &got);
            cache.slabEnd_ = cache.slabNext_ + got;
        }
        blob = cache.slabNext_;
        cache.slabNext_ += words;
    } else {
        std::unique_lock<std::mutex> lk = lockCarve();
        std::size_t got = 0;
        blob = takeLocked(words, words, &got);
    }
    st.carves.fetch_add(1, std::memory_order_relaxed);
    return blob;
}

void
ValueArena::pushFree(std::size_t cls, std::atomic<std::uint64_t> *blob)
{
    std::atomic<std::uint64_t> &head = freeHeads_[cls].value;
    std::uint64_t h = head.load(std::memory_order_acquire);
    for (;;) {
        blob[2].store(reinterpret_cast<std::uint64_t>(headPtr(h)),
                      std::memory_order_relaxed);
        const std::uint64_t next = packHead((h >> 48) + 1, blob);
        if (head.compare_exchange_weak(h, next,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire))
            return;
        casRetries_.fetch_add(1, std::memory_order_relaxed);
    }
}

std::atomic<std::uint64_t> *
ValueArena::popFree(std::size_t cls)
{
    std::atomic<std::uint64_t> &head = freeHeads_[cls].value;
    std::uint64_t h = head.load(std::memory_order_acquire);
    for (;;) {
        std::atomic<std::uint64_t> *blob = headPtr(h);
        if (!blob)
            return nullptr;
        // Racing poppers may read a junk next off a blob that was
        // popped and repurposed underneath them — the ABA tag then
        // fails the CAS before the junk can be published.
        const std::uint64_t next_ptr =
            blob[2].load(std::memory_order_relaxed);
        const std::uint64_t next = packHead((h >> 48) + 1,
                                            reinterpret_cast<
                                                std::atomic<
                                                    std::uint64_t> *>(
                                                next_ptr & kHeadPtrMask));
        if (head.compare_exchange_weak(h, next,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire))
            return blob;
        casRetries_.fetch_add(1, std::memory_order_relaxed);
    }
}

ValueRef
ValueArena::publish(std::atomic<std::uint64_t> *blob,
                    std::size_t cap_bytes, const void *data,
                    std::size_t len)
{
    // No reader holds a handle of this lifetime yet, and the payload
    // reaches readers through the TM commit that publishes the handle,
    // so every store here is relaxed. Only this thread writes word 0.
    const std::uint64_t gen = blob[0].load(std::memory_order_relaxed) + 1;
    blob[0].store(gen, std::memory_order_relaxed);
    blob[1].store((static_cast<std::uint64_t>(cap_bytes / 8 + 2) << 32) |
                      static_cast<std::uint64_t>(len),
                  std::memory_order_relaxed);
    const auto *src = static_cast<const unsigned char *>(data);
    for (std::size_t w = 0; w * 8 < len; ++w) {
        std::uint64_t word = 0;
        const std::size_t n = len - w * 8 < 8 ? len - w * 8 : 8;
        std::memcpy(&word, src + w * 8, n);
        blob[2 + w].store(word, std::memory_order_relaxed);
    }
    return kValueRefBlobBit |
           ((gen & kValueRefGenMask) << kValueRefGenShift) |
           (reinterpret_cast<std::uint64_t>(blob) & kValueRefPtrMask);
}

ValueRef
ValueArena::allocBlob(const void *data, std::size_t len, Cache &cache)
{
    const std::size_t cls = classOf(len);
    const std::size_t cap_bytes = classCapacity(cls);
    Stripe &st = stripe();
    st.allocs.fetch_add(1, std::memory_order_relaxed);

    Cache::ClassCache &cc = cache.classes_[cls];
    std::atomic<std::uint64_t> *blob = nullptr;
    if (cc.count > 0) {
        blob = cc.blobs[--cc.count];
        st.magazineHits.fetch_add(1, std::memory_order_relaxed);
    } else if ((blob = popFree(cls)) != nullptr) {
        st.globalHits.fetch_add(1, std::memory_order_relaxed);
        // Batch-refill half a magazine so the next allocs of this
        // class stay off the shared list entirely.
        while (cc.count < Cache::kMagazine / 2) {
            std::atomic<std::uint64_t> *extra = popFree(cls);
            if (extra == nullptr)
                break;
            cc.blobs[cc.count++] = extra;
        }
    } else {
        blob = carve(wordsFor(cap_bytes), cache, st);
    }
    st.bytesLive.fetch_add(cap_bytes, std::memory_order_relaxed);
    return publish(blob, cap_bytes, data, len);
}

void
ValueArena::freeBlob(ValueRef ref, Cache &cache)
{
    if (!valueRefIsBlob(ref))
        return;
    std::atomic<std::uint64_t> *blob = blobOf(ref);
    const std::size_t cap_bytes = capBytesOf(blob);
    stripe().bytesLive.fetch_sub(cap_bytes, std::memory_order_relaxed);
    stash(classOf(cap_bytes), blob, cache);
}

void
ValueArena::stash(std::size_t cls, std::atomic<std::uint64_t> *blob,
                  Cache &cache)
{
    Cache::ClassCache &cc = cache.classes_[cls];
    if (cc.count < Cache::kMagazine) {
        cc.blobs[cc.count++] = blob;
        return;
    }
    pushFree(cls, blob);
}

void
ValueArena::retire(ValueRef ref, Cache &cache, EpochDomain &readers)
{
    if (!valueRefIsBlob(ref))
        return;
    std::atomic<std::uint64_t> *blob = blobOf(ref);
    // Account once, here (a spill to the shared limbo must NOT repeat
    // it).
    Stripe &st = stripe();
    st.bytesLive.fetch_sub(capBytesOf(blob), std::memory_order_relaxed);
    st.retired.fetch_add(1, std::memory_order_relaxed);
    cache.limbo_.push_back({blob, 0});
    if (cache.limbo_.size() >= Cache::kDrainThreshold)
        drain(cache, readers);
}

void
ValueArena::drain(Cache &cache, EpochDomain &readers)
{
    if (cache.limbo_.empty())
        return;
    // One epoch fence stamps the whole unstamped batch. advance() is
    // an RMW, so it reads the epoch's modification-order tail — the
    // returned tag is >= the entry epoch of every reader pinned
    // before this point, which is exactly the guarantee the ripeness
    // test below leans on (see reclaim()).
    const std::uint64_t tag = readers.advance();
    for (Cache::LimboEntry &entry : cache.limbo_) {
        if (entry.epoch == 0)
            entry.epoch = tag;
    }
    const std::uint64_t min_active = readers.minActive();
    std::size_t bytes = 0;
    std::size_t kept = 0;
    std::size_t freed = 0;
    for (Cache::LimboEntry &entry : cache.limbo_) {
        if (entry.epoch < min_active) {
            // No reader can reach the blob any more: the minActive()
            // scan that ripened it read every section's exit, which
            // orders the readers' payload loads before the stores of
            // its next owner.
            const std::size_t cap_bytes = capBytesOf(entry.blob);
            bytes += cap_bytes;
            ++freed;
            stash(classOf(cap_bytes), entry.blob, cache);
        } else {
            cache.limbo_[kept++] = entry;
        }
    }
    cache.limbo_.resize(kept);
    if (freed > 0) {
        stripe().recycled.fetch_add(freed, std::memory_order_relaxed);
        trace(obs::TraceKind::kArenaRecycle, freed, bytes);
    }
    // Pathological pinning (a reader parked in a section for the
    // owner's whole write burst): bound the limbo by handing the
    // backlog to the shared limbo, whose sweeper retries on its own
    // cadence. Accounting already happened at retire.
    if (cache.limbo_.size() >= Cache::kLimboCapacity)
        spill(cache);
}

void
ValueArena::spill(Cache &cache)
{
    if (cache.limbo_.empty())
        return;
    std::size_t bytes = 0;
    {
        std::lock_guard<std::mutex> lk(limboMutex_);
        for (const Cache::LimboEntry &entry : cache.limbo_) {
            // Into pending_ (unstamped) even when the entry already
            // carries a tag: the next shared sweep re-stamps with a
            // newer — strictly more conservative — fence.
            pending_.push_back(entry.blob);
            bytes += capBytesOf(entry.blob);
        }
        limboCount_.store(pending_.size() + limbo_.size(),
                          std::memory_order_relaxed);
    }
    trace(obs::TraceKind::kArenaSpill, cache.limbo_.size(), bytes);
    cache.limbo_.clear();
}

void
ValueArena::reclaim(EpochDomain &readers)
{
    if (limboCount_.load(std::memory_order_relaxed) == 0)
        return;
    // Move ripe entries out under the lock, recycle them outside it.
    std::vector<Cache::LimboEntry> ripe;
    {
        std::lock_guard<std::mutex> lk(limboMutex_);
        // Stamp the pending batch. The fence MUST come after the
        // batch is observed (we hold the lock its pushers used, so
        // the handoff happened-before the advance): a retire pushed
        // after this capture gets the NEXT sweep's — newer — tag,
        // never one older than a reader that can still hold it.
        if (!pending_.empty()) {
            const std::uint64_t tag = readers.advance();
            for (std::atomic<std::uint64_t> *blob : pending_)
                limbo_.push_back({blob, tag});
            pending_.clear();
        }
        // Entries are appended in retire order and tags only grow, so
        // the vector is tag-sorted: the ripe run is a prefix. The
        // scan runs after the fence, so it cannot miss a reader
        // pinned at or before any tag it clears.
        const std::uint64_t min_active = readers.minActive();
        std::size_t n = 0;
        while (n < limbo_.size() && limbo_[n].epoch < min_active)
            ++n;
        if (n > 0) {
            ripe.assign(limbo_.begin(), limbo_.begin() + n);
            limbo_.erase(limbo_.begin(), limbo_.begin() + n);
        }
        limboCount_.store(limbo_.size(), std::memory_order_relaxed);
    }
    std::size_t bytes = 0;
    for (const Cache::LimboEntry &entry : ripe) {
        // Ripe: no reader can reach it any more (see drain()).
        const std::size_t cap_bytes = capBytesOf(entry.blob);
        bytes += cap_bytes;
        pushFree(classOf(cap_bytes), entry.blob);
    }
    if (!ripe.empty()) {
        stripe().recycled.fetch_add(ripe.size(), std::memory_order_relaxed);
        trace(obs::TraceKind::kArenaRecycle, ripe.size(), bytes);
    }
}

void
ValueArena::flushCache(Cache &cache)
{
    spill(cache);
    for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
        auto &cc = cache.classes_[cls];
        while (cc.count > 0)
            pushFree(cls, cc.blobs[--cc.count]);
    }
    if (cache.slabNext_ != nullptr) {
        std::unique_lock<std::mutex> lk = lockCarve();
        releaseSlabLocked(cache);
    }
}

void
ValueArena::readBlob(ValueRef ref, std::string *out) const
{
    const std::atomic<std::uint64_t> *blob = blobOf(ref);
    const std::size_t len = static_cast<std::size_t>(
        blob[1].load(std::memory_order_relaxed) & 0xffffffffu);
    out->resize(len);
    for (std::size_t w = 0; w * 8 < len; ++w) {
        const std::uint64_t word =
            blob[2 + w].load(std::memory_order_relaxed);
        const std::size_t n = len - w * 8 < 8 ? len - w * 8 : 8;
        std::memcpy(out->data() + w * 8, &word, n);
    }
}

std::uint64_t
ValueArena::readBlobWord(ValueRef ref) const
{
    const std::atomic<std::uint64_t> *blob = blobOf(ref);
    const std::size_t len = static_cast<std::size_t>(
        blob[1].load(std::memory_order_relaxed) & 0xffffffffu);
    const std::uint64_t word = blob[2].load(std::memory_order_relaxed);
    // Mask the tail so short values decode with zero padding.
    return len >= 8 ? word
                    : word & (len == 0 ? 0
                                       : ~std::uint64_t{0} >> (64 - 8 * len));
}

ValueArena::Stats
ValueArena::stats() const
{
    Stats out;
    for (const Stripe &st : stripes_) {
        out.allocs += st.allocs.load(std::memory_order_relaxed);
        out.magazineHits += st.magazineHits.load(std::memory_order_relaxed);
        out.globalHits += st.globalHits.load(std::memory_order_relaxed);
        out.carves += st.carves.load(std::memory_order_relaxed);
        out.retired += st.retired.load(std::memory_order_relaxed);
        out.recycled += st.recycled.load(std::memory_order_relaxed);
    }
    out.carveContended =
        carveContended_.load(std::memory_order_relaxed);
    out.casRetries = casRetries_.load(std::memory_order_relaxed);
    return out;
}

std::size_t
ValueArena::bytesLive() const
{
    std::uint64_t sum = 0;
    for (const Stripe &st : stripes_)
        sum += st.bytesLive.load(std::memory_order_relaxed);
    // Mod 2^64 the stripes sum to the exact total; a read racing a
    // cross-thread free can see the free without the alloc it undoes.
    const auto net = static_cast<std::int64_t>(sum);
    return net < 0 ? 0 : static_cast<std::size_t>(net);
}

} // namespace proteus::kvstore
