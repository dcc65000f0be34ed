/**
 * ValueArena on its own, without a store around it:
 *
 *  1. The size-class map for every payload length up to the maximum:
 *     the class holds the length, wastes at most 15 B (up to 256 B) or
 *     under 25% (above), is the smallest class that fits, never
 *     decreases with the length, and maps its own capacity back to
 *     itself. Longer payloads throw std::length_error.
 *  2. Copy-out round trips at every class edge.
 *  3. Recycling: a freed blob is reused only within its class, a
 *     recycled blob's next handle differs from its stale one (a new
 *     generation), and a retire into a cache's limbo waits out a
 *     reader section that opened before it, also after a nested pin
 *     joined and left that section.
 *  4. Accounting: bytesLive() returns to 0 once every blob is gone.
 *  5. A four-thread alloc/free/retire stress over mixed lengths with
 *     pinned readers, limbos drained by their owners and spilled to
 *     the shared limbo (for the sanitizer jobs).
 *  6. Chunks: each is one 2 MiB huge page on its own boundary, and the
 *     largest class fits in one.
 *  7. Slabs: each cache bumps its fresh blobs from a private slab, so
 *     one cache's blobs lie back to back however allocations through
 *     two caches interleave; a flushed slab's unused tail is the next
 *     thing carved; and four threads with their own caches get
 *     disjoint blobs while the per-thread counter stripes sum to the
 *     exact totals.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/epoch.hpp"
#include "common/rng.hpp"
#include "kvstore/value_arena.hpp"

namespace proteus::kvstore {
namespace {

using Arena = ValueArena;

std::uint64_t
addressOf(ValueRef ref)
{
    return ref & kValueRefPtrMask;
}

/** `len` bytes that differ from any other (len, seed) pair's. */
std::string
pattern(std::size_t len, std::uint64_t seed)
{
    std::string out(len, '\0');
    for (std::size_t i = 0; i < len; ++i)
        out[i] = static_cast<char>((seed * 131 + i * 7 + (i >> 8)) & 0xff);
    return out;
}

TEST(ValueArenaTest, ClassMapBoundsWasteForEveryLength)
{
    std::size_t prev_cls = 0;
    std::size_t bad_len = 0;
    int failures = 0;
    for (std::size_t len = 0; len <= Arena::kMaxBlobBytes; ++len) {
        const std::size_t cls = Arena::classOf(len);
        const std::size_t cap = Arena::classCapacity(cls);
        const std::size_t waste = cap - len;
        const bool holds = cls < Arena::kNumClasses && cap >= len;
        const bool bounded =
            len == 0 ? cls == 0
            : len <= 256 ? waste <= 15
                         : 4 * waste < len;
        const bool smallest =
            cls == 0 || Arena::classCapacity(cls - 1) < len;
        const bool monotone = cls == prev_cls || cls == prev_cls + 1;
        if (!(holds && bounded && smallest && monotone)) {
            if (failures++ == 0)
                bad_len = len;
        }
        prev_cls = cls;
    }
    EXPECT_EQ(failures, 0) << "first failing length " << bad_len;
    EXPECT_EQ(prev_cls, Arena::kNumClasses - 1);
    EXPECT_EQ(Arena::classOf(Arena::kMaxBlobBytes), Arena::kNumClasses - 1);
    EXPECT_THROW(Arena::classOf(Arena::kMaxBlobBytes + 1),
                 std::length_error);

    // Exact capacity -> class inverse (what freeBlob and the recycle
    // paths derive from a blob's meta word).
    for (std::size_t cls = 0; cls < Arena::kNumClasses; ++cls) {
        EXPECT_EQ(Arena::classOf(Arena::classCapacity(cls)), cls);
        EXPECT_EQ(Arena::classCapacity(cls) % 16, 0u);
        if (cls > 0) {
            EXPECT_LT(Arena::classCapacity(cls - 1),
                      Arena::classCapacity(cls));
        }
    }
}

TEST(ValueArenaTest, OversizedBlobThrowsLengthError)
{
    Arena arena;
    Arena::Cache cache;
    const std::string big(Arena::kMaxBlobBytes + 1, 'x');
    EXPECT_THROW(arena.allocBlob(big.data(), big.size(), cache),
                 std::length_error);
    EXPECT_EQ(arena.bytesLive(), 0u);
    EXPECT_EQ(arena.stats().carves, 0u);
}

TEST(ValueArenaTest, ChunkIsOneHugePageThatHoldsTheLargestClass)
{
    constexpr std::uint64_t kChunkBytes = std::uint64_t{2} << 20;
    Arena arena;
    Arena::Cache cache;
    const std::string small(40, 's');
    const ValueRef first = arena.allocBlob(small.data(), small.size(), cache);
    EXPECT_EQ(addressOf(first) % kChunkBytes, 0u);

    const std::string big(Arena::kMaxBlobBytes, 'b');
    const ValueRef next = arena.allocBlob(big.data(), big.size(), cache);
    // Header (16 B) and payload both inside the first blob's chunk.
    EXPECT_GT(addressOf(next), addressOf(first));
    EXPECT_LE(addressOf(next) + 16 + Arena::kMaxBlobBytes,
              addressOf(first) + kChunkBytes);
    std::string out;
    arena.readBlob(next, &out);
    EXPECT_EQ(out, big);
    arena.freeBlob(first, cache);
    arena.freeBlob(next, cache);
    arena.flushCache(cache);
}

TEST(ValueArenaTest, RoundTripsAtEveryClassEdge)
{
    Arena arena;
    Arena::Cache cache;
    std::uint64_t seed = 1;
    for (std::size_t cls = 0; cls < Arena::kNumClasses; ++cls) {
        const std::size_t cap = Arena::classCapacity(cls);
        for (const std::size_t len : {cap, cap + 1}) {
            if (len > Arena::kMaxBlobBytes)
                continue;
            const std::string value = pattern(len, seed++);
            const std::size_t live = arena.bytesLive();
            const ValueRef ref = arena.allocBlob(value.data(), len, cache);
            ASSERT_TRUE(valueRefIsBlob(ref));
            // The blob landed in the class the map names.
            EXPECT_EQ(arena.bytesLive() - live,
                      Arena::classCapacity(Arena::classOf(len)))
                << "len " << len;

            std::string out;
            arena.readBlob(ref, &out);
            EXPECT_EQ(out, value) << "len " << len;
            std::uint64_t expect_word = 0;
            std::memcpy(&expect_word, value.data(), len < 8 ? len : 8);
            EXPECT_EQ(arena.readBlobWord(ref), expect_word) << "len " << len;
            arena.freeBlob(ref, cache);
        }
    }
    arena.flushCache(cache);
    EXPECT_EQ(arena.bytesLive(), 0u);
}

TEST(ValueArenaTest, FreedBlobIsReusedWithinItsClassOnly)
{
    Arena arena;
    Arena::Cache cache;
    const std::string a(100, 'a'); // class capacity 112
    const ValueRef first = arena.allocBlob(a.data(), a.size(), cache);
    arena.freeBlob(first, cache);

    // Next class up (113..128): must not receive the freed 112-B blob.
    const std::string b(120, 'b');
    const ValueRef other = arena.allocBlob(b.data(), b.size(), cache);
    EXPECT_NE(addressOf(other), addressOf(first));

    // Same class, different length: reuses it, from the magazine.
    const std::uint64_t hits = arena.stats().magazineHits;
    const std::string c(97, 'c');
    const ValueRef reused = arena.allocBlob(c.data(), c.size(), cache);
    EXPECT_EQ(addressOf(reused), addressOf(first));
    EXPECT_EQ(arena.stats().magazineHits, hits + 1);
    std::string out;
    arena.readBlob(reused, &out);
    EXPECT_EQ(out, c);

    // Through the global list: a flushed magazine's blob serves the
    // next cache's alloc of the same class.
    arena.freeBlob(reused, cache);
    arena.flushCache(cache);
    Arena::Cache next;
    const std::string d(112, 'd');
    const ValueRef from_global = arena.allocBlob(d.data(), d.size(), next);
    EXPECT_EQ(addressOf(from_global), addressOf(first));
    EXPECT_EQ(arena.stats().globalHits, 1u);

    arena.freeBlob(other, next);
    arena.freeBlob(from_global, next);
    arena.flushCache(next);
    EXPECT_EQ(arena.bytesLive(), 0u);
}

TEST(ValueArenaTest, RecycledBlobStartsANewGeneration)
{
    Arena arena;
    Arena::Cache cache;
    EpochDomain readers(1);
    const std::string v1 = pattern(200, 1);
    const ValueRef stale = arena.allocBlob(v1.data(), v1.size(), cache);
    arena.retire(stale, cache, readers);
    EXPECT_EQ(cache.limboSize(), 1u);
    // A flush spills the limbo to the shared one, which reclaim sweeps.
    arena.flushCache(cache);
    EXPECT_EQ(cache.limboSize(), 0u);
    EXPECT_EQ(arena.limboCount(), 1u);
    arena.reclaim(readers); // nobody pinned: recycles at once
    EXPECT_EQ(arena.limboCount(), 0u);
    EXPECT_EQ(arena.stats().recycled, 1u);

    // The recycled blob serves the next alloc of its class under a new
    // generation. The handles must differ: NOrec validates a writing
    // transaction's reads by value at commit, after its reader section
    // closed, so a slot that got the same blob back must not show the
    // handle word that transaction decoded.
    const std::string v2 = pattern(193, 2);
    const ValueRef fresh = arena.allocBlob(v2.data(), v2.size(), cache);
    ASSERT_EQ(addressOf(fresh), addressOf(stale));
    EXPECT_NE(fresh, stale);
    std::string out;
    arena.readBlob(fresh, &out);
    EXPECT_EQ(out, v2);
    arena.freeBlob(fresh, cache);
    arena.flushCache(cache);
}

TEST(ValueArenaTest, OwnerLimboWaitsForEarlierReaderSection)
{
    Arena arena;
    EpochDomain readers(2);
    EpochSlot &reader = *readers.claimSlot(0);
    Arena::Cache cache;

    const std::string value = pattern(150, 3);
    const ValueRef ref = arena.allocBlob(value.data(), value.size(), cache);
    std::string out;
    {
        EpochPin pin(readers, reader);
        EXPECT_TRUE(pin.opened());
        arena.retire(ref, cache, readers);
        EXPECT_EQ(cache.limboSize(), 1u);
        {
            // Joins the outer section; leaving it must not end that.
            EpochPin nested(readers, reader);
            EXPECT_FALSE(nested.opened());
        }
        arena.drain(cache, readers);
        // The section opened before the retire: the blob must stay.
        EXPECT_EQ(cache.limboSize(), 1u);
        EXPECT_EQ(arena.stats().recycled, 0u);
        arena.readBlob(ref, &out);
        EXPECT_EQ(out, value);
    }
    arena.drain(cache, readers);
    EXPECT_EQ(cache.limboSize(), 0u);
    EXPECT_EQ(arena.stats().recycled, 1u);

    // Recycled into the owner's magazine: the next same-class alloc
    // takes it from there.
    const std::uint64_t hits = arena.stats().magazineHits;
    const ValueRef again = arena.allocBlob(value.data(), value.size(), cache);
    EXPECT_EQ(addressOf(again), addressOf(ref));
    EXPECT_EQ(arena.stats().magazineHits, hits + 1);
    arena.freeBlob(again, cache);
    arena.flushCache(cache);
}

TEST(ValueArenaTest, BytesLiveReturnsToZero)
{
    Arena arena;
    EpochDomain readers(1);
    Arena::Cache cache;
    Arena::Cache spilled;
    Rng rng(7);
    std::vector<ValueRef> refs;
    std::size_t expect_live = 0;
    for (int i = 0; i < 300; ++i) {
        const std::size_t len =
            i % 50 == 0 ? 8192 + rng.nextBounded(60000) : rng.nextBounded(700);
        const std::string value = pattern(len, static_cast<std::uint64_t>(i));
        refs.push_back(arena.allocBlob(value.data(), len, cache));
        expect_live += Arena::classCapacity(Arena::classOf(len));
    }
    EXPECT_EQ(arena.bytesLive(), expect_live);

    // A third each through freeBlob, a limbo its owner drains and a
    // limbo spilled to the shared one.
    for (std::size_t i = 0; i < refs.size(); ++i) {
        switch (i % 3) {
          case 0:
            arena.freeBlob(refs[i], cache);
            break;
          case 1:
            arena.retire(refs[i], spilled, readers);
            break;
          default:
            arena.retire(refs[i], cache, readers);
            break;
        }
    }
    EXPECT_EQ(arena.bytesLive(), 0u);
    arena.drain(cache, readers);
    EXPECT_EQ(cache.limboSize(), 0u);
    arena.flushCache(spilled);
    arena.reclaim(readers);
    arena.flushCache(cache);
    EXPECT_EQ(arena.limboCount(), 0u);
    const Arena::Stats stats = arena.stats();
    EXPECT_EQ(stats.retired, 200u);
    EXPECT_EQ(stats.recycled, stats.retired);
    EXPECT_EQ(arena.bytesLive(), 0u);
}

/** Payload of a published blob: its seed in the first 8 bytes, then
 *  pattern bytes; the length follows from the seed. */
std::size_t
publishedLen(std::uint64_t seed)
{
    return seed % 16 == 0 ? 4096 + seed % 12289 : 16 + seed % 400;
}

std::string
publishedValue(std::uint64_t seed)
{
    std::string value = pattern(publishedLen(seed), seed);
    std::memcpy(value.data(), &seed, sizeof(seed));
    return value;
}

bool
holdsPublishedValue(const std::string &bytes)
{
    if (bytes.size() < sizeof(std::uint64_t))
        return false;
    std::uint64_t seed = 0;
    std::memcpy(&seed, bytes.data(), sizeof(seed));
    return bytes == publishedValue(seed);
}

TEST(ValueArenaTest, ConcurrentAllocFreeRetireStress)
{
    constexpr int kThreads = 4;
    constexpr int kIters = 20000;
    constexpr std::size_t kShared = 16;

    Arena arena;
    Arena::Cache main_cache;
    EpochDomain readers(kThreads);
    // Published handles, read by every thread. Only retire paths ever
    // dispose of them; private blobs are never published, so freeBlob
    // stays legal for those.
    std::vector<std::atomic<ValueRef>> shared(kShared);
    for (std::size_t i = 0; i < kShared; ++i) {
        const std::string value = publishedValue(i + 1);
        shared[i].store(
            arena.allocBlob(value.data(), value.size(), main_cache));
    }

    std::atomic<int> bad_reads{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            EpochSlot &slot = *readers.claimSlot(static_cast<std::size_t>(t));
            Arena::Cache cache;
            Rng rng(static_cast<std::uint64_t>(100 + t));
            std::string out;
            for (int i = 0; i < kIters; ++i) {
                const std::uint64_t seed =
                    (static_cast<std::uint64_t>(t + 1) << 32) |
                    static_cast<std::uint64_t>(i);
                const std::size_t pick = rng.nextBounded(kShared);
                switch (rng.nextBounded(3)) {
                  case 0: {
                    // Private blob of a mixed length: alloc, read, free.
                    const std::size_t len = rng.nextBounded(8) == 0
                                                ? rng.nextBounded(20000)
                                                : rng.nextBounded(300);
                    const std::string value = pattern(len, seed);
                    const ValueRef ref =
                        arena.allocBlob(value.data(), len, cache);
                    arena.readBlob(ref, &out);
                    if (out != value)
                        bad_reads.fetch_add(1);
                    arena.freeBlob(ref, cache);
                    break;
                  }
                  case 1: {
                    // Displace a published blob and retire the old
                    // one; now and then spill the limbo to the shared
                    // one and sweep that.
                    const std::string value = publishedValue(seed);
                    const ValueRef ref =
                        arena.allocBlob(value.data(), value.size(), cache);
                    const ValueRef old = shared[pick].exchange(ref);
                    arena.retire(old, cache, readers);
                    if (rng.nextBounded(8) == 0) {
                        arena.flushCache(cache);
                        arena.reclaim(readers);
                    }
                    break;
                  }
                  default: {
                    // Pinned reader: the handle is loaded inside the
                    // section, so the copy must be exact.
                    EpochPin pin(readers, slot);
                    arena.readBlob(shared[pick].load(), &out);
                    if (!holdsPublishedValue(out))
                        bad_reads.fetch_add(1);
                    break;
                  }
                }
            }
            arena.drain(cache, readers);
            arena.flushCache(cache);
        });
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(bad_reads.load(), 0);
    for (std::atomic<ValueRef> &ref : shared)
        arena.retire(ref.load(), main_cache, readers);
    arena.flushCache(main_cache);
    arena.reclaim(readers);
    EXPECT_EQ(arena.limboCount(), 0u);
    EXPECT_EQ(arena.bytesLive(), 0u);
    const Arena::Stats stats = arena.stats();
    EXPECT_EQ(stats.recycled, stats.retired);
}

/** Bytes a blob of a `len`-byte payload takes in its chunk. */
std::uint64_t
footprint(std::size_t len)
{
    return 16 + Arena::classCapacity(Arena::classOf(len));
}

TEST(ValueArenaTest, EachCacheBumpsItsBlobsFromItsOwnSlab)
{
    Arena arena;
    Arena::Cache first;
    Arena::Cache second;
    const std::string value = pattern(100, 5);
    constexpr int kEach = 8;
    std::vector<ValueRef> from_first;
    std::vector<ValueRef> from_second;
    for (int i = 0; i < kEach; ++i) {
        from_first.push_back(
            arena.allocBlob(value.data(), value.size(), first));
        from_second.push_back(
            arena.allocBlob(value.data(), value.size(), second));
    }
    // Interleaved allocations, yet each cache's blobs are contiguous
    // and the two runs are disjoint.
    for (int i = 1; i < kEach; ++i) {
        EXPECT_EQ(addressOf(from_first[i]),
                  addressOf(from_first[i - 1]) + footprint(value.size()));
        EXPECT_EQ(addressOf(from_second[i]),
                  addressOf(from_second[i - 1]) + footprint(value.size()));
    }
    const std::uint64_t first_end =
        addressOf(from_first.back()) + footprint(value.size());
    const std::uint64_t second_end =
        addressOf(from_second.back()) + footprint(value.size());
    EXPECT_TRUE(first_end <= addressOf(from_second[0]) ||
                second_end <= addressOf(from_first[0]));
    EXPECT_EQ(arena.stats().carves, 2u * kEach);

    std::string out;
    for (const ValueRef ref : from_first) {
        arena.readBlob(ref, &out);
        EXPECT_EQ(out, value);
        arena.freeBlob(ref, first);
    }
    for (const ValueRef ref : from_second)
        arena.freeBlob(ref, second);
    arena.flushCache(first);
    arena.flushCache(second);
    EXPECT_EQ(arena.bytesLive(), 0u);
}

TEST(ValueArenaTest, FlushedSlabTailIsTheNextThingCarved)
{
    Arena arena;
    Arena::Cache cache;
    const std::string value = pattern(100, 6);
    const ValueRef cached = arena.allocBlob(value.data(), value.size(),
                                            cache);
    arena.flushCache(cache);
    // Past the slab cap: carved straight from the chunk, where the
    // slab's unused tail went back.
    const std::string wide = pattern(Arena::Cache::kSlabMaxBlobBytes, 7);
    const ValueRef next = arena.allocBlob(wide.data(), wide.size(), cache);
    EXPECT_EQ(addressOf(next), addressOf(cached) + footprint(value.size()));
    // The cache starts a fresh slab after the direct carve.
    const ValueRef again = arena.allocBlob(value.data(), value.size(),
                                           cache);
    EXPECT_EQ(addressOf(again), addressOf(next) + footprint(wide.size()));
    arena.freeBlob(cached, cache);
    arena.freeBlob(next, cache);
    arena.freeBlob(again, cache);
    arena.flushCache(cache);
    EXPECT_EQ(arena.bytesLive(), 0u);
}

TEST(ValueArenaTest, ConcurrentCachesCarveDisjointBlobsAndCountExactly)
{
    constexpr int kThreads = 4;
    constexpr int kIters = 6000;

    struct Kept
    {
        ValueRef ref;
        std::uint64_t seed;
    };
    Arena arena;
    EpochDomain readers(kThreads);
    std::vector<std::vector<Kept>> kept(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Arena::Cache cache;
            Rng rng(static_cast<std::uint64_t>(300 + t));
            for (int i = 0; i < kIters; ++i) {
                const std::uint64_t seed =
                    (static_cast<std::uint64_t>(t + 1) << 32) |
                    static_cast<std::uint64_t>(i);
                // Mostly slab-sized blobs, some past the slab cap.
                const std::size_t len = rng.nextBounded(16) == 0
                                            ? 4096 + rng.nextBounded(8192)
                                            : 8 + rng.nextBounded(300);
                const std::string value = pattern(len, seed);
                const ValueRef ref =
                    arena.allocBlob(value.data(), len, cache);
                switch (rng.nextBounded(4)) {
                  case 0:
                    arena.freeBlob(ref, cache);
                    break;
                  case 1:
                    arena.retire(ref, cache, readers);
                    break;
                  case 2:
                    // Retire, then give the whole cache back: its
                    // limbo spills to the shared one, its slab tail
                    // to the chunk.
                    arena.retire(ref, cache, readers);
                    arena.flushCache(cache);
                    arena.reclaim(readers);
                    break;
                  default:
                    kept[t].push_back({ref, seed});
                    break;
                }
            }
            arena.drain(cache, readers);
            arena.flushCache(cache);
        });
    }
    for (std::thread &th : threads)
        th.join();
    arena.reclaim(readers);

    // Every kept blob holds its own payload, and no two overlap.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
    std::size_t expect_live = 0;
    std::string out;
    for (const std::vector<Kept> &list : kept) {
        for (const Kept &blob : list) {
            arena.readBlob(blob.ref, &out);
            EXPECT_EQ(out, pattern(out.size(), blob.seed));
            spans.emplace_back(addressOf(blob.ref),
                               addressOf(blob.ref) + footprint(out.size()));
            expect_live += Arena::classCapacity(Arena::classOf(out.size()));
        }
    }
    std::sort(spans.begin(), spans.end());
    std::size_t overlaps = 0;
    for (std::size_t i = 1; i < spans.size(); ++i)
        overlaps += spans[i].first < spans[i - 1].second;
    EXPECT_EQ(overlaps, 0u);

    const Arena::Stats stats = arena.stats();
    EXPECT_EQ(stats.allocs, static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(stats.magazineHits + stats.globalHits + stats.carves,
              stats.allocs);
    EXPECT_EQ(stats.recycled, stats.retired);
    EXPECT_EQ(arena.limboCount(), 0u);
    EXPECT_EQ(arena.bytesLive(), expect_live);

    Arena::Cache cache;
    for (const std::vector<Kept> &list : kept)
        for (const Kept &blob : list)
            arena.freeBlob(blob.ref, cache);
    arena.flushCache(cache);
    EXPECT_EQ(arena.bytesLive(), 0u);
}

} // namespace
} // namespace proteus::kvstore
