/**
 * Shard unit tests: open-addressing semantics (overwrite, tombstone
 * reuse, full-table behaviour), scans, transactional composition
 * through the write bodies, hand-built 2PC intents and their folds,
 * the grow trigger's consumed count, which each writer batches in its
 * own record, and blob reclamation through the writers' own caches
 * and limbos.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

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

    // The add body landing in the slot words (no prepare context).
    shard.poly().run(token, [&](polytm::Tx &tx) {
        EXPECT_TRUE(shard.addTx(tx, 7, 10, nullptr));
        EXPECT_TRUE(shard.addTx(tx, 7, -4, nullptr));
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

/**
 * A hand-built 2PC over a standalone shard: its context (commit
 * record and intent arena, whose entries are the intents its
 * prepares published) passed to the shard's write bodies.
 */
class HandBuilt2pc
{
  public:
    bool
    put(Shard &shard, polytm::Tx &tx, std::uint64_t key, std::uint64_t value)
    {
        return shard.putTx(tx, key, kFull, value, 0, &ctx_, nullptr,
                           &reclaim_);
    }
    bool
    del(Shard &shard, polytm::Tx &tx, std::uint64_t key)
    {
        return shard.delTx(tx, key, &ctx_, nullptr, &reclaim_);
    }
    bool
    add(Shard &shard, polytm::Tx &tx, std::uint64_t key, std::int64_t delta)
    {
        return shard.addTx(tx, key, delta, &ctx_, nullptr, &reclaim_);
    }
    bool
    get(Shard &shard, polytm::Tx &tx, std::uint64_t key, std::uint64_t *value)
    {
        return shard.prepareGetTx(tx, &ctx_, key, value);
    }
    std::size_t intentCount() const { return ctx_.arena.mark(); }
    WriteIntent *intent(std::size_t i) { return &ctx_.arena[i]; }
    /** The commit point, as a plain store of the verdict. */
    void
    flip(bool committed)
    {
        ctx_.record.status.store(committed ? CommitRecord::kCommitted
                                           : CommitRecord::kAborted);
    }
    void
    settle(Shard &shard, polytm::Tx &tx, WriteIntent *intent, bool committed,
           Shard::WriteTally &tally)
    {
        shard.settleIntentTx(tx, intent, committed, tally);
    }

  private:
    CommitContext ctx_;
    std::vector<std::uint64_t> reclaim_;
};

/** A direct (slot-landing) put, as a slice or single-key write runs. */
bool
directPut(Shard &shard, polytm::Tx &tx, std::uint64_t key, std::uint64_t value)
{
    return shard.putTx(tx, key, kFull, value, 0);
}

constexpr std::uint64_t kIntentKey = 7;

/** Standalone shard for the hand-built 2PCs below. */
ShardOptions
intentShard()
{
    ShardOptions options = tinyShard(8);
    options.log2Orecs = 10;
    return options;
}

/** Who folds the intent first after the flip: its owner, or a direct
 *  read or write on the slot (the owner's fold then finds nothing). */
enum class Folder
{
    kOwner,
    kDirectRead,
    kDirectWrite,
};

/** One prepare scenario on kIntentKey and the slot words each verdict
 *  folds to (value and expiry only checked for value states). */
struct IntentCase
{
    const char *name;
    void (*seed)(Shard &, polytm::ThreadToken &);
    void (*prepare)(HandBuilt2pc &, Shard &, polytm::Tx &);
    std::uint64_t pendingState;
    bool claimedTombstone;
    SlotImage committed;
    Shard::WriteTally committedTally;
    SlotImage aborted;
    Shard::WriteTally abortedTally;
};

void
seedNothing(Shard &, polytm::ThreadToken &)
{
}

void
seedOne(Shard &shard, polytm::ThreadToken &token)
{
    ASSERT_TRUE(shard.put(token, kIntentKey, 1));
}

void
seedTen(Shard &shard, polytm::ThreadToken &token)
{
    ASSERT_TRUE(shard.put(token, kIntentKey, 10));
}

void
seedTombstone(Shard &shard, polytm::ThreadToken &token)
{
    ASSERT_TRUE(shard.put(token, kIntentKey, 1));
    ASSERT_TRUE(shard.del(token, kIntentKey));
}

const IntentCase kIntentCases[] = {
    {"insert into an empty slot", seedNothing,
     [](HandBuilt2pc &c, Shard &s, polytm::Tx &tx) {
         EXPECT_TRUE(c.put(s, tx, kIntentKey, 70));
     },
     kPendingInsert, false, {kFull, 70, 0}, {1, 0}, {kTombstone, 0, 0},
     {1, 1}},
    {"insert into a tombstone slot", seedTombstone,
     [](HandBuilt2pc &c, Shard &s, polytm::Tx &tx) {
         EXPECT_TRUE(c.put(s, tx, kIntentKey, 70));
     },
     kPendingInsert, true, {kFull, 70, 0}, {0, -1}, {kTombstone, 0, 0},
     {0, 0}},
    {"overwrite", seedOne,
     [](HandBuilt2pc &c, Shard &s, polytm::Tx &tx) {
         EXPECT_TRUE(c.put(s, tx, kIntentKey, 70));
     },
     kFull, false, {kFull, 70, 0}, {0, 0}, {kFull, 1, 0}, {0, 0}},
    {"delete", seedOne,
     [](HandBuilt2pc &c, Shard &s, polytm::Tx &tx) {
         EXPECT_TRUE(c.del(s, tx, kIntentKey));
     },
     kFull, false, {kTombstone, 0, 0}, {0, 1}, {kFull, 1, 0}, {0, 0}},
    {"add", seedTen,
     [](HandBuilt2pc &c, Shard &s, polytm::Tx &tx) {
         EXPECT_TRUE(c.add(s, tx, kIntentKey, 5));
     },
     kFull, false, {kFull, 15, 0}, {0, 0}, {kFull, 10, 0}, {0, 0}},
    {"own re-write of an overwrite", seedOne,
     [](HandBuilt2pc &c, Shard &s, polytm::Tx &tx) {
         EXPECT_TRUE(c.put(s, tx, kIntentKey, 70));
         std::uint64_t value = 0;
         EXPECT_TRUE(c.get(s, tx, kIntentKey, &value));
         EXPECT_EQ(value, 70u) << "read-your-writes";
         EXPECT_TRUE(c.add(s, tx, kIntentKey, 5));
     },
     kFull, false, {kFull, 75, 0}, {0, 0}, {kFull, 1, 0}, {0, 0}},
    {"own re-write of an insert", seedNothing,
     [](HandBuilt2pc &c, Shard &s, polytm::Tx &tx) {
         EXPECT_TRUE(c.put(s, tx, kIntentKey, 70));
         EXPECT_TRUE(c.put(s, tx, kIntentKey, 80));
     },
     kPendingInsert, false, {kFull, 80, 0}, {1, 0}, {kTombstone, 0, 0},
     {1, 1}},
};

void
expectSlot(const SlotRecord &rec, const SlotImage &want, const char *when)
{
    EXPECT_EQ(rec.state, want.state) << when;
    EXPECT_EQ(rec.intent, 0u) << when;
    if (slotStateIsValue(want.state)) {
        EXPECT_EQ(rec.key, kIntentKey) << when;
        EXPECT_EQ(rec.value, want.value) << when;
        EXPECT_EQ(rec.expiry, want.expiry) << when;
    }
}

void
runIntentCase(const IntentCase &c, bool committed, Folder folder)
{
    SCOPED_TRACE(std::string(c.name) +
                 (committed ? ", committed" : ", aborted") +
                 (folder == Folder::kOwner        ? ", owner folds"
                  : folder == Folder::kDirectRead ? ", a read folds"
                                                  : ", a write folds"));
    Shard shard(intentShard());
    auto token = shard.registerWorker();
    c.seed(shard, token);

    HandBuilt2pc composite;
    shard.poly().run(token, [&](polytm::Tx &tx) {
        c.prepare(composite, shard, tx);
    });
    ASSERT_EQ(composite.intentCount(), 1u) << "one intent per slot";
    WriteIntent *intent = composite.intent(0);
    const SlotRecord &rec = intent->table->records[intent->slot];
    EXPECT_EQ(rec.state, c.pendingState);
    EXPECT_EQ(rec.key, kIntentKey);
    EXPECT_EQ(intentOf(rec.intent), intent);
    EXPECT_EQ(intent->claimedTombstone, c.claimedTombstone);
    if (c.pendingState == kFull)
        EXPECT_NE(rec.value, c.committed.value) << "pre-image stays";

    composite.flip(committed);
    const SlotImage &want = committed ? c.committed : c.aborted;
    if (folder == Folder::kDirectRead) {
        std::uint64_t value = 0;
        bool found = false;
        shard.poly().run(token, [&](polytm::Tx &tx) {
            found = shard.prepareGetTx(tx, nullptr, kIntentKey, &value);
        });
        EXPECT_EQ(found, slotStateIsValue(want.state));
        if (found)
            EXPECT_EQ(value, want.value);
        expectSlot(rec, want, "after the read's fold");
    } else if (folder == Folder::kDirectWrite) {
        bool ok = false;
        shard.poly().run(token, [&](polytm::Tx &tx) {
            ok = directPut(shard, tx, kIntentKey, 99);
        });
        EXPECT_TRUE(ok);
        expectSlot(rec, {kFull, 99, 0}, "after the write's fold");
    }
    const SlotRecord before = rec;
    Shard::WriteTally tally;
    shard.poly().run(token, [&](polytm::Tx &tx) {
        tally = {};
        composite.settle(shard, tx, intent, committed, tally);
    });
    if (folder == Folder::kOwner) {
        expectSlot(rec, want, "after the owner's fold");
        const Shard::WriteTally &want_tally =
            committed ? c.committedTally : c.abortedTally;
        EXPECT_EQ(tally.newSlots, want_tally.newSlots);
        EXPECT_EQ(tally.tombstones, want_tally.tombstones);
    } else {
        EXPECT_EQ(rec.state, before.state) << "the owner's fold is a no-op";
        EXPECT_EQ(rec.value, before.value);
        EXPECT_EQ(rec.intent, 0u);
        EXPECT_EQ(tally.newSlots, 0u);
        EXPECT_EQ(tally.tombstones, 0);
    }
    shard.deregisterWorker(token);
}

TEST(ShardIntentTest, OwnerFoldsEachVerdict)
{
    for (const IntentCase &c : kIntentCases) {
        runIntentCase(c, true, Folder::kOwner);
        runIntentCase(c, false, Folder::kOwner);
    }
}

TEST(ShardIntentTest, DirectReadFoldsFirstAndOwnerFoldIsANoOp)
{
    for (const IntentCase &c : kIntentCases) {
        runIntentCase(c, true, Folder::kDirectRead);
        runIntentCase(c, false, Folder::kDirectRead);
    }
}

TEST(ShardIntentTest, DirectWriteFoldsFirstAndOwnerFoldIsANoOp)
{
    for (const IntentCase &c : kIntentCases) {
        runIntentCase(c, true, Folder::kDirectWrite);
        runIntentCase(c, false, Folder::kDirectWrite);
    }
}

TEST(ShardIntentTest, WriteBodiesBufferOnlyTheWordsThatChange)
{
    // TL2 buffers one write-set entry per stored word, so the set's
    // size before commit counts the words a body lands. A word whose
    // new value equals what the transaction read is skipped: it stays
    // in the read set and is validated at commit.
    Shard shard(intentShard());
    ASSERT_EQ(shard.poly().currentConfig().backend, tm::BackendKind::kTl2);
    auto token = shard.registerWorker();
    const auto buffered = [&](const auto &body) {
        std::size_t words = 0;
        shard.poly().run(token, [&](polytm::Tx &tx) {
            EXPECT_TRUE(body(tx));
            words = tx.desc().writeSet.size();
        });
        return words;
    };
    ASSERT_TRUE(shard.put(token, 1, 10));
    ASSERT_TRUE(shard.put(token, 2, 20));
    ASSERT_TRUE(shard.put(token, 3, 30));

    const std::size_t overwrite = buffered([&](polytm::Tx &tx) {
        return shard.putTx(tx, 1, kFull, 11, 0);
    });
    EXPECT_EQ(overwrite, 1u) << "overwrite, same state and TTL: the value";
    const std::size_t add = buffered([&](polytm::Tx &tx) {
        return shard.addTx(tx, 1, 5, nullptr);
    });
    EXPECT_EQ(add, 1u) << "add: the value";
    const std::uint64_t deadline = nowNanos() + 3'600'000'000'000ull;
    const std::size_t retimed = buffered([&](polytm::Tx &tx) {
        return shard.putTx(tx, 1, kFull, 12, deadline);
    });
    EXPECT_EQ(retimed, 2u) << "value and TTL change";
    const ValueRef bytes = shard.stageValue(token, "abc", 3);
    const std::size_t to_bytes = buffered([&](polytm::Tx &tx) {
        return shard.putTx(tx, 2, kFullRef, bytes, 0);
    });
    EXPECT_EQ(to_bytes, 2u) << "numeric -> bytes overwrite: state, value";
    const std::size_t del = buffered([&](polytm::Tx &tx) {
        return shard.delTx(tx, 2, nullptr);
    });
    EXPECT_EQ(del, 1u) << "del: the state";
    const std::size_t insert = buffered([&](polytm::Tx &tx) {
        return shard.putTx(tx, 4, kFull, 40, 0);
    });
    EXPECT_EQ(insert, 4u) << "fresh insert: state, key, value and TTL";

    // A transfer's leg: the prepare lands the intent word alone, and
    // the committed fold lands the value and clears the intent.
    HandBuilt2pc transfer;
    const std::size_t prepare = buffered([&](polytm::Tx &tx) {
        return transfer.add(shard, tx, 3, -7);
    });
    EXPECT_EQ(prepare, 1u) << "prepare: the intent";
    ASSERT_EQ(transfer.intentCount(), 1u);
    transfer.flip(true);
    Shard::WriteTally tally;
    const std::size_t fold = buffered([&](polytm::Tx &tx) {
        tally = {};
        transfer.settle(shard, tx, transfer.intent(0), true, tally);
        return true;
    });
    EXPECT_EQ(fold, 2u) << "committed transfer fold: value and intent";

    std::uint64_t value = 0;
    EXPECT_TRUE(shard.get(token, 1, &value));
    EXPECT_EQ(value, 12u);
    std::string text;
    EXPECT_FALSE(shard.getBytes(token, 2, &text));
    EXPECT_TRUE(shard.get(token, 3, &value));
    EXPECT_EQ(value, 23u);
    EXPECT_TRUE(shard.get(token, 4, &value));
    EXPECT_EQ(value, 40u);
    shard.deregisterWorker(token);
}

} // namespace
} // namespace proteus::kvstore
