/**
 * Shard unit tests: open-addressing semantics (overwrite, tombstone
 * reuse, full-table behaviour), scans, transactional composition
 * through the *Tx primitives, the grow trigger's consumed count,
 * which each writer batches in its own record, and blob reclamation
 * through the writers' own caches and limbos.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "common/timing.hpp"
#include "kvstore/shard.hpp"

namespace proteus::kvstore {
namespace {

ShardOptions
tinyShard(unsigned log2_slots)
{
    ShardOptions options;
    options.log2Slots = log2_slots;
    options.initial = {tm::BackendKind::kTl2, 1, {}};
    return options;
}

TEST(ShardTest, PutGetDelRoundTrip)
{
    Shard shard(tinyShard(8));
    auto token = shard.registerWorker();

    std::uint64_t value = 0;
    EXPECT_FALSE(shard.get(token, 42, &value));
    EXPECT_TRUE(shard.put(token, 42, 1000));
    EXPECT_TRUE(shard.get(token, 42, &value));
    EXPECT_EQ(value, 1000u);

    // Overwrite keeps a single entry.
    EXPECT_TRUE(shard.put(token, 42, 2000));
    EXPECT_TRUE(shard.get(token, 42, &value));
    EXPECT_EQ(value, 2000u);
    EXPECT_EQ(shard.sizeQuiesced(), 1u);

    EXPECT_TRUE(shard.del(token, 42));
    EXPECT_FALSE(shard.get(token, 42, &value));
    EXPECT_FALSE(shard.del(token, 42));
    EXPECT_EQ(shard.sizeQuiesced(), 0u);

    shard.deregisterWorker(token);
}

TEST(ShardTest, TombstonesAreReusedAndProbesCrossThem)
{
    Shard shard(tinyShard(4)); // 16 slots: collisions guaranteed
    auto token = shard.registerWorker();

    for (std::uint64_t key = 0; key < 12; ++key)
        ASSERT_TRUE(shard.put(token, key, key));
    // Delete every other key, then re-insert different keys: the
    // tombstones must be reusable and remaining keys reachable.
    for (std::uint64_t key = 0; key < 12; key += 2)
        ASSERT_TRUE(shard.del(token, key));
    for (std::uint64_t key = 100; key < 106; ++key)
        ASSERT_TRUE(shard.put(token, key, key * 7));

    std::uint64_t value = 0;
    for (std::uint64_t key = 1; key < 12; key += 2) {
        EXPECT_TRUE(shard.get(token, key, &value)) << key;
        EXPECT_EQ(value, key);
    }
    for (std::uint64_t key = 100; key < 106; ++key) {
        EXPECT_TRUE(shard.get(token, key, &value)) << key;
        EXPECT_EQ(value, key * 7);
    }
    EXPECT_EQ(shard.sizeQuiesced(), 12u);

    shard.deregisterWorker(token);
}

TEST(ShardTest, SameHomeChainStaysReachableAcrossTombstones)
{
    Shard shard(tinyShard(8));
    auto token = shard.registerWorker();

    // 24 resident keys and one absent key, all with the same home slot
    // in the 256-slot table: one 25-slot probe chain.
    const std::size_t mask = shard.capacity() - 1;
    const auto home = [&](std::uint64_t key) {
        return static_cast<std::size_t>(Shard::keyHash(key)) & mask;
    };
    std::vector<std::uint64_t> keys{3};
    std::uint64_t absent = 0;
    for (std::uint64_t k = 4; keys.size() < 24 || absent == 0; ++k) {
        if (home(k) != home(keys[0]))
            continue;
        if (keys.size() < 24)
            keys.push_back(k);
        else
            absent = k;
    }

    std::uint64_t value = 0;
    for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_TRUE(shard.put(token, keys[i], i));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_TRUE(shard.get(token, keys[i], &value)) << keys[i];
        EXPECT_EQ(value, i);
    }
    EXPECT_FALSE(shard.get(token, absent, &value));

    // Tombstone the front of the chain: the walk must cross them to
    // the survivors.
    for (std::size_t i = 0; i < 12; ++i)
        ASSERT_TRUE(shard.del(token, keys[i]));
    for (std::size_t i = 12; i < keys.size(); ++i) {
        ASSERT_TRUE(shard.get(token, keys[i], &value)) << keys[i];
        EXPECT_EQ(value, i);
    }
    for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_FALSE(shard.get(token, keys[i], &value)) << keys[i];
        EXPECT_EQ(shard.findSlotQuiesced(keys[i]), shard.capacity());
    }

    // Reinsert into the tombstoned prefix; everything stays reachable.
    for (std::size_t i = 0; i < 12; ++i)
        ASSERT_TRUE(shard.put(token, keys[i], 900 + i));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_TRUE(shard.get(token, keys[i], &value)) << keys[i];
        EXPECT_EQ(value, i < 12 ? 900 + i : i);
    }
    EXPECT_EQ(shard.sizeQuiesced(), keys.size());
    EXPECT_EQ(shard.growCount(), 0u);

    shard.deregisterWorker(token);
}

TEST(ShardTest, PinnedTableRejectsNewKeysButAcceptsOverwrites)
{
    // maxLog2Slots == log2Slots restores the seed's fixed-capacity
    // semantics: put() reports failure instead of growing.
    ShardOptions options = tinyShard(4);
    options.maxLog2Slots = 4;
    Shard shard(options);
    auto token = shard.registerWorker();

    for (std::uint64_t key = 0; key < 16; ++key)
        ASSERT_TRUE(shard.put(token, key, key));
    EXPECT_FALSE(shard.put(token, 999, 1)) << "table is full";
    EXPECT_TRUE(shard.put(token, 3, 333)) << "overwrite must still work";

    // Freeing one slot admits one new key again.
    EXPECT_TRUE(shard.del(token, 7));
    EXPECT_TRUE(shard.put(token, 999, 1));
    EXPECT_FALSE(shard.put(token, 1000, 1));

    shard.deregisterWorker(token);
}

TEST(ShardTest, GrowsOnlineWhenFullAndKeepsEveryKey)
{
    // 16 initial slots, growth unbounded: 4x the initial capacity in
    // inserts never fails, the table doubles (possibly repeatedly),
    // and every key/value survives the migrations.
    Shard shard(tinyShard(4));
    auto token = shard.registerWorker();
    const std::size_t initial_cap = shard.capacity();

    for (std::uint64_t key = 0; key < 4 * 16; ++key)
        ASSERT_TRUE(shard.put(token, key, key * 7 + 1)) << key;

    EXPECT_GT(shard.capacity(), initial_cap);
    EXPECT_GE(shard.growCount(), 1u);

    std::uint64_t value = 0;
    for (std::uint64_t key = 0; key < 4 * 16; ++key) {
        ASSERT_TRUE(shard.get(token, key, &value)) << key;
        EXPECT_EQ(value, key * 7 + 1);
    }

    // Drain the incremental migration and re-verify: relocation must
    // neither lose nor duplicate entries.
    shard.drainMigration(token);
    EXPECT_FALSE(shard.migrationActive());
    EXPECT_EQ(shard.sizeQuiesced(), 4 * 16u);
    for (std::uint64_t key = 0; key < 4 * 16; ++key)
        ASSERT_TRUE(shard.get(token, key, &value)) << key;

    // Scans cover entries still in the old table mid-migration.
    EXPECT_EQ(shard.scan(token, 0, 1000), 4 * 16u);

    shard.deregisterWorker(token);
}

TEST(ShardTest, BytesRoundTripInlineAndBlob)
{
    Shard shard(tinyShard(8));
    auto token = shard.registerWorker();

    const std::string small = "abc";           // inline
    const std::string exact8 = "12345678";     // smallest blob
    const std::string wide(513, 'q');          // multi-word blob
    ASSERT_TRUE(
        shard.putBytes(token, 1, small.data(), small.size()));
    ASSERT_TRUE(
        shard.putBytes(token, 2, exact8.data(), exact8.size()));
    ASSERT_TRUE(shard.putBytes(token, 3, wide.data(), wide.size()));

    std::string out;
    ASSERT_TRUE(shard.getBytes(token, 1, &out));
    EXPECT_EQ(out, small);
    ASSERT_TRUE(shard.getBytes(token, 2, &out));
    EXPECT_EQ(out, exact8);
    ASSERT_TRUE(shard.getBytes(token, 3, &out));
    EXPECT_EQ(out, wide);

    // Numeric view of a byte value decodes the leading 8 bytes; byte
    // view of a numeric value returns its raw 8 bytes.
    std::uint64_t value = 0;
    ASSERT_TRUE(shard.get(token, 1, &value));
    std::uint64_t expect = 0;
    std::memcpy(&expect, small.data(), small.size());
    EXPECT_EQ(value, expect);
    ASSERT_TRUE(shard.put(token, 4, 0x1122334455667788ull));
    ASSERT_TRUE(shard.getBytes(token, 4, &out));
    ASSERT_EQ(out.size(), 8u);
    std::memcpy(&value, out.data(), 8);
    EXPECT_EQ(value, 0x1122334455667788ull);

    // Overwriting a blob reclaims it into the arena; repeated
    // overwrites must not grow live bytes without bound.
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(shard.putBytes(token, 3, wide.data(), wide.size()));
    EXPECT_LE(shard.arena().bytesLive(), 4096u);

    shard.deregisterWorker(token);
}

TEST(ShardTest, TtlLazyExpiryAndSweep)
{
    Shard shard(tinyShard(6));
    auto token = shard.registerWorker();

    constexpr std::uint64_t kTtl = 30ull * 1000 * 1000; // 30 ms
    const std::uint64_t deadline = nowNanos() + kTtl;
    for (std::uint64_t key = 0; key < 8; ++key)
        ASSERT_TRUE(shard.put(token, key, key, deadline));
    ASSERT_TRUE(shard.put(token, 100, 1));

    std::uint64_t value = 0;
    EXPECT_TRUE(shard.get(token, 0, &value));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    for (std::uint64_t key = 0; key < 8; ++key)
        EXPECT_FALSE(shard.get(token, key)) << key;
    EXPECT_TRUE(shard.get(token, 100, &value));
    EXPECT_EQ(shard.sizeQuiesced(), 1u) << "expired keys read absent";

    // The clock-hand sweep reclaims the expired slots (tombstones).
    for (int i = 0; i < 200; ++i)
        shard.maintainTick(token);
    EXPECT_EQ(shard.scan(token, 0, 100), 1u);

    shard.deregisterWorker(token);
}

TEST(ShardTest, ScanCollectsLiveEntries)
{
    Shard shard(tinyShard(8));
    auto token = shard.registerWorker();

    for (std::uint64_t key = 0; key < 40; ++key)
        ASSERT_TRUE(shard.put(token, key, key + 1));

    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    const std::size_t n = shard.scan(token, 5, 10, &out);
    EXPECT_EQ(n, 10u);
    EXPECT_EQ(out.size(), 10u);
    for (const auto &[key, value] : out) {
        EXPECT_LT(key, 40u);
        EXPECT_EQ(value, key + 1);
    }

    // Limit larger than population: returns everything once.
    EXPECT_EQ(shard.scan(token, 0, 1000, &out), 40u);

    shard.deregisterWorker(token);
}

TEST(ShardTest, AddTxComposesReadModifyWrite)
{
    Shard shard(tinyShard(8));
    auto token = shard.registerWorker();

    shard.poly().run(token, [&](polytm::Tx &tx) {
        EXPECT_TRUE(shard.addTx(tx, 7, 10));
        EXPECT_TRUE(shard.addTx(tx, 7, -4));
    });
    std::uint64_t value = 0;
    EXPECT_TRUE(shard.get(token, 7, &value));
    EXPECT_EQ(value, 6u);

    shard.deregisterWorker(token);
}

TEST(ShardTest, SurvivesLiveReconfiguration)
{
    Shard shard(tinyShard(10));
    auto token = shard.registerWorker();
    for (std::uint64_t key = 0; key < 100; ++key)
        ASSERT_TRUE(shard.put(token, key, key));

    for (const auto backend :
         {tm::BackendKind::kNorec, tm::BackendKind::kSwissTm,
          tm::BackendKind::kSimHtm, tm::BackendKind::kTl2}) {
        shard.poly().reconfigure({backend, 1, {}});
        std::uint64_t value = 0;
        for (std::uint64_t key = 0; key < 100; key += 17) {
            EXPECT_TRUE(shard.get(token, key, &value));
            EXPECT_EQ(value, key);
        }
    }

    shard.deregisterWorker(token);
}

/** Inserts that put a `slots`-slot table at growLoadPercent (70). */
std::uint64_t
growMark(std::uint64_t slots)
{
    return (slots * 70 + 99) / 100;
}

TEST(ShardTest, SmallTableGrowsOnTheInsertThatCrossesTheMark)
{
    // 2^8 slots: a consumed step of 1, so every insert counts at once
    // and the grow fires on the same insert as with no batching.
    Shard shard(tinyShard(8));
    ASSERT_EQ(Shard::consumedStep(256), 1u);
    auto token = shard.registerWorker();
    std::uint64_t grew_at = 0;
    for (std::uint64_t key = 1; grew_at == 0 && key <= 256; ++key) {
        ASSERT_TRUE(shard.put(token, key, key));
        if (shard.growCount() > 0)
            grew_at = key;
    }
    EXPECT_EQ(grew_at, growMark(256));
    shard.deregisterWorker(token);
}

TEST(ShardTest, TwoWritersGrowALargeTableWithinTwoSteps)
{
    // 2^16 slots: each writer holds back up to 8 inserts. Two writers
    // on two threads take strict turns, so the insert the grow fires
    // on is the same every run; with both holding inserts back it
    // lands at most two steps past the mark, never before it.
    constexpr std::uint64_t kSlots = std::uint64_t{1} << 16;
    ShardOptions options = tinyShard(16);
    options.initial.threads = 2;
    Shard shard(options);
    const std::uint64_t step = Shard::consumedStep(kSlots);
    ASSERT_EQ(step, 8u);

    std::atomic<std::uint64_t> turn{0}; // inserts done so far
    std::atomic<std::uint64_t> grew_at{0};
    std::atomic<int> failed_puts{0};
    const auto writer = [&](std::uint64_t me) {
        auto token = shard.registerWorker();
        for (;;) {
            std::uint64_t done = turn.load();
            while (done % 2 != me && grew_at.load() == 0) {
                std::this_thread::yield();
                done = turn.load();
            }
            if (grew_at.load() != 0)
                break;
            if (!shard.put(token, done + 1, done))
                failed_puts.fetch_add(1);
            if (shard.growCount() > 0)
                grew_at.store(done + 1);
            turn.store(done + 1);
        }
        shard.deregisterWorker(token);
    };
    std::thread first(writer, 0);
    std::thread second(writer, 1);
    first.join();
    second.join();

    EXPECT_EQ(failed_puts.load(), 0);
    EXPECT_GE(grew_at.load(), growMark(kSlots));
    EXPECT_LE(grew_at.load(), growMark(kSlots) + 2 * step);
}

TEST(ShardTest, DeregisteringWriterLeavesItsHeldBackInsertsCounted)
{
    // One writer stops a few inserts past the mark with fewer than a
    // step held back, so its flushed count is still under the mark.
    // Deregistering adds the rest: the next write's maintenance tick,
    // an overwrite that inserts nothing, finds the table over the mark
    // and grows it.
    constexpr std::uint64_t kSlots = std::uint64_t{1} << 16;
    Shard shard(tinyShard(16));
    const std::uint64_t step = Shard::consumedStep(kSlots);
    const std::uint64_t flushed = growMark(kSlots) / step * step;
    ASSERT_LT(flushed, growMark(kSlots));
    const std::uint64_t inserts = flushed + step - 1;
    ASSERT_GE(inserts, growMark(kSlots));

    auto writer = shard.registerWorker();
    for (std::uint64_t key = 1; key <= inserts; ++key)
        ASSERT_TRUE(shard.put(writer, key, key));
    EXPECT_EQ(shard.growCount(), 0u);
    shard.deregisterWorker(writer);

    auto next = shard.registerWorker();
    ASSERT_TRUE(shard.put(next, 1, 2)); // overwrite: no new slot
    EXPECT_EQ(shard.growCount(), 1u);
    shard.deregisterWorker(next);
}

/** A blob payload that names its key: the key's 8 bytes, then one
 *  fill byte repeated, of a length that varies with the round. */
std::string
churnPayload(std::uint64_t key, int round)
{
    std::string out(8 + 16 + (key * 7 + static_cast<std::uint64_t>(round)) %
                                 200,
                    static_cast<char>('a' + round % 26));
    std::memcpy(out.data(), &key, sizeof(key));
    return out;
}

bool
holdsChurnPayload(const std::string &bytes, std::uint64_t key)
{
    std::uint64_t named = 0;
    if (bytes.size() < 24)
        return false;
    std::memcpy(&named, bytes.data(), sizeof(named));
    return named == key &&
           bytes.find_first_not_of(bytes[8], 8) == std::string::npos;
}

TEST(ShardTest, WritersChurnBlobsWhileAReaderChecksEveryPayload)
{
    // Two standalone writers overwrite and delete blob values through
    // their own records (cache, slab, limbo) while a reader copies
    // every value it finds: a copy of a blob recycled under it would
    // name another key or mix two fills. Once every token is given
    // back, the writers' limbos sit in the shared limbo, and
    // maintenance recycles all of it.
    constexpr std::uint64_t kKeys = 64;
    constexpr int kRounds = 20000;
    ShardOptions options = tinyShard(8);
    options.initial.threads = 3;
    Shard shard(options);

    std::atomic<int> writers_done{0};
    std::atomic<int> failed_puts{0};
    std::atomic<bool> torn{false};
    const auto writer = [&](std::uint64_t me) {
        auto token = shard.registerWorker();
        for (int round = 0; round < kRounds; ++round) {
            const std::uint64_t key =
                (static_cast<std::uint64_t>(round) * 13 + me * 7) % kKeys;
            if (round % 5 == 4) {
                shard.del(token, key);
                continue;
            }
            const std::string value = churnPayload(key, round);
            if (!shard.putBytes(token, key, value.data(), value.size()))
                failed_puts.fetch_add(1);
        }
        shard.deregisterWorker(token);
        writers_done.fetch_add(1);
    };
    std::thread reader([&] {
        auto token = shard.registerWorker();
        std::string out;
        for (std::uint64_t key = 0; writers_done.load() < 2;
             key = (key + 1) % kKeys) {
            if (shard.getBytes(token, key, &out) &&
                !holdsChurnPayload(out, key))
                torn.store(true);
        }
        shard.deregisterWorker(token);
    });
    std::thread first(writer, 0);
    std::thread second(writer, 1);
    first.join();
    second.join();
    reader.join();
    EXPECT_EQ(failed_puts.load(), 0);
    EXPECT_FALSE(torn.load()) << "a read copied a recycled blob";

    auto token = shard.registerWorker();
    for (int tick = 0; tick < 64 && shard.arena().limboCount() != 0; ++tick)
        shard.maintainTick(token);
    EXPECT_EQ(shard.arena().limboCount(), 0u);
    shard.deregisterWorker(token);
    const ValueArena::Stats stats = shard.arena().stats();
    EXPECT_GT(stats.retired, 0u);
    EXPECT_EQ(stats.recycled, stats.retired);
}

} // namespace
} // namespace proteus::kvstore
