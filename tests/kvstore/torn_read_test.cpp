/**
 * Torn-read hunter: concurrent single-key readers and snapshot
 * readers race writing multiOps and assert that no observer ever
 * sees a half-committed composite.
 *
 * Each writer owns one key pair (A, B) routed to *different* shards
 * and repeatedly writes both keys to the same monotonically
 * increasing version, tagged with the writer id:
 *  - pair readers (read-only multiOp) must always see equal versions
 *    on A and B — any inequality is a torn composite;
 *  - single-key readers must always decode a well-formed value (an
 *    intent pointer or other garbage leaking out of the 2PC machinery
 *    would fail the tag check) and must never observe a version going
 *    backwards on the same key — a resolver preferring a stale
 *    pre-image after the post-image was visible would.
 *
 * The program-order case pins the shard-sequence bump of single-shard
 * writing multiOps: a snapshot must never see one session's later
 * single-shard multiOp without its earlier one on another shard.
 *
 * The read-ahead hunter races the multiOp read-ahead (hint-only
 * prefetches and relaxed peeks of slot records, issued outside any
 * transaction and before gate admission) against every way a record
 * or its blob can change underneath it, on an STM and on the global
 * lock: byte churn that displaces and recycles blobs, deletes,
 * TTL expiry, pending 2PC intents and online grows that swap the live
 * table. Every byte read must still decode to its own key, and
 * transfers must conserve their total in every snapshot and at the
 * end.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "kvstore/kvstore.hpp"

namespace proteus::kvstore {
namespace {

constexpr int kPairs = 4;
constexpr int kItersPerWriter = 1500;
constexpr std::uint64_t kTag = 0x5eedull << 48;

std::uint64_t
encode(int pair, std::uint64_t version)
{
    return kTag | (static_cast<std::uint64_t>(pair) << 32) | version;
}

bool
wellFormed(std::uint64_t value, int pair)
{
    return (value >> 48) == (kTag >> 48) &&
           ((value >> 32) & 0xffff) == static_cast<std::uint64_t>(pair);
}

std::uint64_t
versionOf(std::uint64_t value)
{
    return value & 0xffffffffull;
}

TEST(TornReadTest, NoObserverSeesHalfCommittedComposite)
{
    KvStoreOptions options;
    options.numShards = 4;
    options.log2SlotsPerShard = 10;
    options.initial = {tm::BackendKind::kTl2, 16, {}};
    KvStore store(options);

    // Pick pairs whose halves live on different shards, so every
    // composite write is genuinely cross-shard.
    std::uint64_t a_keys[kPairs];
    std::uint64_t b_keys[kPairs];
    std::uint64_t next = 1;
    for (int p = 0; p < kPairs; ++p) {
        a_keys[p] = next++;
        while (store.shardOf(next) == store.shardOf(a_keys[p]))
            ++next;
        b_keys[p] = next++;
    }
    {
        auto session = store.openSession();
        for (int p = 0; p < kPairs; ++p) {
            ASSERT_TRUE(store.put(session, a_keys[p], encode(p, 0)));
            ASSERT_TRUE(store.put(session, b_keys[p], encode(p, 0)));
        }
        store.closeSession(session);
    }

    std::atomic<int> writers_done{0};
    std::atomic<bool> torn{false};
    std::atomic<bool> malformed{false};
    std::atomic<bool> regressed{false};
    std::vector<std::thread> threads;

    for (int p = 0; p < kPairs; ++p) {
        threads.emplace_back([&, p] {
            auto session = store.openSession();
            std::vector<KvOp> ops;
            for (std::uint64_t v = 1; v <= kItersPerWriter; ++v) {
                ops.clear();
                ops.push_back({KvOp::Kind::kPut, a_keys[p],
                               encode(p, v), false});
                ops.push_back({KvOp::Kind::kPut, b_keys[p],
                               encode(p, v), false});
                store.multiOp(session, ops);
            }
            store.closeSession(session);
            writers_done.fetch_add(1);
        });
    }

    // Pair readers: read-only multiOp snapshots.
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&, r] {
            auto session = store.openSession();
            Rng rng(40 + static_cast<unsigned>(r));
            std::vector<KvOp> snap;
            while (writers_done.load() < kPairs && !torn.load()) {
                const int p =
                    static_cast<int>(rng.nextBounded(kPairs));
                snap.clear();
                snap.push_back(
                    {KvOp::Kind::kGet, a_keys[p], 0, false});
                snap.push_back(
                    {KvOp::Kind::kGet, b_keys[p], 0, false});
                store.multiOp(session, snap);
                if (!snap[0].ok || !snap[1].ok ||
                    !wellFormed(snap[0].value, p) ||
                    !wellFormed(snap[1].value, p)) {
                    malformed.store(true);
                } else if (versionOf(snap[0].value) !=
                           versionOf(snap[1].value)) {
                    torn.store(true);
                }
            }
            store.closeSession(session);
        });
    }

    // Single-key readers: value integrity + per-key monotonicity.
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&, r] {
            auto session = store.openSession();
            Rng rng(80 + static_cast<unsigned>(r));
            std::uint64_t last_a[kPairs] = {};
            std::uint64_t last_b[kPairs] = {};
            while (writers_done.load() < kPairs &&
                   !regressed.load()) {
                const int p =
                    static_cast<int>(rng.nextBounded(kPairs));
                const bool pick_a = rng.bernoulli(0.5);
                const std::uint64_t key =
                    pick_a ? a_keys[p] : b_keys[p];
                std::uint64_t value = 0;
                if (!store.get(session, key, &value)) {
                    malformed.store(true); // keys are never deleted
                    continue;
                }
                if (!wellFormed(value, p)) {
                    malformed.store(true);
                    continue;
                }
                std::uint64_t &last =
                    pick_a ? last_a[p] : last_b[p];
                if (versionOf(value) < last)
                    regressed.store(true);
                last = versionOf(value);
            }
            store.closeSession(session);
        });
    }

    for (auto &thread : threads)
        thread.join();

    EXPECT_FALSE(malformed.load())
        << "a reader decoded a malformed/missing value";
    EXPECT_FALSE(torn.load())
        << "a snapshot reader saw a half-committed pair";
    EXPECT_FALSE(regressed.load())
        << "a single-key reader saw a version go backwards";

    // Quiesced end state: every pair at its final version.
    auto session = store.openSession();
    std::uint64_t value = 0;
    for (int p = 0; p < kPairs; ++p) {
        ASSERT_TRUE(store.get(session, a_keys[p], &value));
        EXPECT_EQ(value, encode(p, kItersPerWriter));
        ASSERT_TRUE(store.get(session, b_keys[p], &value));
        EXPECT_EQ(value, encode(p, kItersPerWriter));
    }
    store.closeSession(session);
}

TEST(TornReadTest, SnapshotSeesSingleShardMultiOpsInProgramOrder)
{
    // A writer writes each version v as two single-op writing
    // multiOps, key A on shard 0 and then key B on shard 1, so B never
    // runs ahead of A. A read-only multiOp reads A, then kFillers keys
    // on shard 0, then B: the fillers hold its shard-0 transaction
    // open while the writer's next pair commits (one pair per read, so
    // every read can settle). A round that read A before the pair and
    // B after it must fail its trailing sequence check — which it
    // does only because a single-shard writing multiOp bumps its
    // shard's sequence before its transaction.
    constexpr int kFillers = 200;
    constexpr int kReads = 2000;
    KvStoreOptions options;
    options.numShards = 2;
    options.log2SlotsPerShard = 10;
    options.initial = {tm::BackendKind::kTl2, 16, {}};
    KvStore store(options);

    std::vector<std::uint64_t> on_shard[2];
    for (std::uint64_t key = 1; on_shard[0].size() < kFillers + 1 ||
                                on_shard[1].empty();
         ++key)
        on_shard[store.shardOf(key)].push_back(key);
    const std::uint64_t a = on_shard[0][0];
    const std::uint64_t b = on_shard[1][0];
    auto session = store.openSession();
    for (const std::uint64_t key : on_shard[0])
        ASSERT_TRUE(store.put(session, key, 0));
    ASSERT_TRUE(store.put(session, b, 0));

    std::atomic<int> reads_done{0};
    std::thread writer([&] {
        using Clock = std::chrono::steady_clock;
        auto writer_session = store.openSession();
        std::vector<KvOp> ops(1);
        Rng rng(7);
        int seen = 0;
        Clock::time_point last = Clock::now();
        for (std::uint64_t v = 1;; ++v) {
            while (reads_done.load() == seen)
                std::this_thread::yield();
            // Aim the pair at a random point of the next read, which
            // should last about as long as the one that just ended.
            const Clock::time_point now = Clock::now();
            const Clock::time_point at =
                now + std::chrono::duration_cast<Clock::duration>(
                          (now - last) * rng.nextDouble());
            last = now;
            seen = reads_done.load();
            if (seen >= kReads)
                break;
            while (Clock::now() < at)
                std::this_thread::yield();
            ops[0] = {KvOp::Kind::kPut, a, v, false};
            store.multiOp(writer_session, ops);
            ops[0] = {KvOp::Kind::kPut, b, v, false};
            store.multiOp(writer_session, ops);
        }
        store.closeSession(writer_session);
    });

    int missing = 0;
    int out_of_order = 0;
    std::vector<KvOp> snap;
    for (int r = 0; r < kReads; ++r) {
        snap.clear();
        snap.push_back({KvOp::Kind::kGet, a, 0, false});
        for (int i = 1; i <= kFillers; ++i)
            snap.push_back({KvOp::Kind::kGet, on_shard[0][i], 0, false});
        snap.push_back({KvOp::Kind::kGet, b, 0, false});
        store.multiOp(session, snap);
        if (!snap.front().ok || !snap.back().ok)
            ++missing;
        else if (snap.back().value > snap.front().value)
            ++out_of_order;
        reads_done.fetch_add(1);
    }
    writer.join();
    store.closeSession(session);

    EXPECT_EQ(missing, 0);
    EXPECT_EQ(out_of_order, 0)
        << "a snapshot saw B's write without A's earlier one";
}

constexpr std::uint64_t kAccounts = 16;
constexpr std::uint64_t kBalance = 1000;
constexpr std::uint64_t kStableBase = 1 << 20;   // always present
constexpr std::uint64_t kVolatileBase = 2 << 20; // deleted / expiring
constexpr std::uint64_t kGrowBase = 3 << 20;     // inserted mid-run
constexpr std::uint64_t kWideKeys = 64;
constexpr std::uint64_t kGrowKeys = 1500;
constexpr int kWriterIters = 1500;
constexpr int kTransfers = 400;

/** key (8 bytes), nonce (8 bytes), then filler derived from both. */
std::string
wideBytes(std::uint64_t key, std::uint64_t nonce)
{
    std::string out(16 + (key * 7 + nonce * 13) % 240, '\0');
    std::memcpy(out.data(), &key, 8);
    std::memcpy(out.data() + 8, &nonce, 8);
    for (std::size_t i = 16; i < out.size(); ++i)
        out[i] = static_cast<char>((key * 131 + nonce + i) & 0xff);
    return out;
}

bool
decodesTo(const std::string &bytes, std::uint64_t key)
{
    if (bytes.size() < 16)
        return false;
    std::uint64_t k = 0;
    std::uint64_t nonce = 0;
    std::memcpy(&k, bytes.data(), 8);
    std::memcpy(&nonce, bytes.data() + 8, 8);
    return k == key && bytes == wideBytes(key, nonce);
}

class ReadAheadRaceTest : public ::testing::TestWithParam<tm::BackendKind>
{
};

TEST_P(ReadAheadRaceTest, HintsNeverChangeAnAnswer)
{
    KvStoreOptions options;
    options.numShards = 4;
    options.log2SlotsPerShard = 8; // the grower forces several grows
    options.initial = {GetParam(), 16, {}};
    KvStore store(options);

    {
        auto session = store.openSession();
        for (std::uint64_t a = 0; a < kAccounts; ++a)
            ASSERT_TRUE(store.put(session, a, kBalance));
        for (std::uint64_t k = 0; k < kWideKeys; ++k) {
            for (std::uint64_t base : {kStableBase, kVolatileBase}) {
                const std::string v = wideBytes(base + k, 0);
                ASSERT_TRUE(store.putBytes(session, base + k, v.data(),
                                           v.size()));
            }
        }
        store.closeSession(session);
    }
    const std::size_t initial_capacity = store.shard(0).capacity();

    std::atomic<int> writers_left{5};
    std::atomic<bool> misread{false};
    std::atomic<bool> lost{false};
    std::atomic<bool> unbalanced{false};
    std::vector<std::thread> threads;
    const auto writer = [&](auto body) {
        threads.emplace_back([&, body] {
            auto session = store.openSession();
            body(session);
            store.closeSession(session);
            writers_left.fetch_sub(1);
        });
    };

    // Byte churn: single puts and cross-shard 2PC pairs rewrite the
    // stable keys, displacing (and so recycling) their blobs and
    // leaving pending intents on the records readers peek at.
    writer([&](KvStore::Session &session) {
        Rng rng(7);
        std::vector<KvOp> pair(2);
        for (int i = 1; i <= kWriterIters; ++i) {
            const std::uint64_t a = kStableBase + rng.nextBounded(kWideKeys);
            std::uint64_t b = kStableBase + rng.nextBounded(kWideKeys);
            while (store.shardOf(b) == store.shardOf(a))
                b = kStableBase + rng.nextBounded(kWideKeys);
            if (i % 2 == 0) {
                const std::string v = wideBytes(a, i);
                store.putBytes(session, a, v.data(), v.size());
                continue;
            }
            pair[0] = {KvOp::Kind::kPutBytes, a, 0, false, wideBytes(a, i)};
            pair[1] = {KvOp::Kind::kPutBytes, b, 0, false, wideBytes(b, i)};
            store.multiOp(session, pair);
        }
    });
    // Deletes and TTL expiry: volatile keys vanish, come back with or
    // without a 50 us deadline, and leave tombstones behind.
    writer([&](KvStore::Session &session) {
        Rng rng(11);
        for (int i = 1; i <= kWriterIters; ++i) {
            const std::uint64_t k =
                kVolatileBase + rng.nextBounded(kWideKeys);
            if (i % 3 == 0) {
                store.del(session, k);
                continue;
            }
            const std::string v = wideBytes(k, i);
            store.putBytes(session, k, v.data(), v.size(),
                           i % 3 == 1 ? 50'000 : 0);
        }
    });
    // Online grows: fresh inserts push every shard past its load
    // threshold several times, swapping the live table under readers.
    writer([&](KvStore::Session &session) {
        for (std::uint64_t k = 0; k < kGrowKeys; ++k) {
            const std::string v = wideBytes(kGrowBase + k, 1);
            if (store.putBytes(session, kGrowBase + k, v.data(), v.size())
                    .status != KvStatus::kOk)
                lost.store(true);
        }
    });
    // Cross-shard 2PC transfers between numeric accounts.
    for (int t = 0; t < 2; ++t) {
        writer([&, t](KvStore::Session &session) {
            Rng rng(20 + static_cast<unsigned>(t));
            std::vector<KvOp> transfer(2);
            for (int i = 0; i < kTransfers; ++i) {
                const std::uint64_t from = rng.nextBounded(kAccounts);
                std::uint64_t to = rng.nextBounded(kAccounts);
                while (store.shardOf(to) == store.shardOf(from))
                    to = rng.nextBounded(kAccounts);
                const auto amount = 1 + rng.nextBounded(50);
                transfer[0] = {KvOp::Kind::kAdd, from, -amount, false};
                transfer[1] = {KvOp::Kind::kAdd, to, amount, false};
                store.multiOp(session, transfer);
            }
        });
    }

    // Readers: 4-key byte multiOps over every key class, and now and
    // then a snapshot of every account.
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&, r] {
            auto session = store.openSession();
            Rng rng(40 + static_cast<unsigned>(r));
            std::vector<KvOp> reads(4);
            std::vector<KvOp> accounts(kAccounts);
            for (int i = 0; writers_left.load() > 0; ++i) {
                for (KvOp &op : reads) {
                    const std::uint64_t bases[] = {kStableBase,
                                                   kVolatileBase, kGrowBase};
                    const std::uint64_t base = bases[rng.nextBounded(3)];
                    op.kind = KvOp::Kind::kGetBytes;
                    op.key = base + rng.nextBounded(
                                        base == kGrowBase ? kGrowKeys
                                                          : kWideKeys);
                    op.ok = false;
                }
                store.multiOp(session, reads);
                for (const KvOp &op : reads) {
                    if (op.ok && !decodesTo(op.bytes, op.key))
                        misread.store(true);
                    if (!op.ok && op.key < kVolatileBase)
                        lost.store(true); // stable keys never vanish
                }
                if (i % 8 != 0)
                    continue;
                for (std::uint64_t a = 0; a < kAccounts; ++a)
                    accounts[a] = {KvOp::Kind::kGet, a, 0, false};
                store.multiOp(session, accounts);
                std::uint64_t sum = 0;
                for (const KvOp &op : accounts)
                    sum += op.value;
                if (sum != kAccounts * kBalance)
                    unbalanced.store(true);
            }
            store.closeSession(session);
        });
    }

    for (auto &thread : threads)
        thread.join();

    EXPECT_FALSE(misread.load()) << "a byte read decoded to another key";
    EXPECT_FALSE(lost.load()) << "a stable key read absent or a put failed";
    EXPECT_FALSE(unbalanced.load()) << "a snapshot broke conservation";
    EXPECT_GT(store.shard(0).capacity(), initial_capacity)
        << "no grow ran under the readers";

    auto session = store.openSession();
    std::uint64_t sum = 0;
    for (std::uint64_t a = 0; a < kAccounts; ++a) {
        std::uint64_t balance = 0;
        ASSERT_TRUE(store.get(session, a, &balance));
        sum += balance;
    }
    EXPECT_EQ(sum, kAccounts * kBalance);
    std::string bytes;
    for (std::uint64_t k = 0; k < kWideKeys; ++k) {
        ASSERT_TRUE(store.getBytes(session, kStableBase + k, &bytes));
        EXPECT_TRUE(decodesTo(bytes, kStableBase + k));
    }
    store.closeSession(session);
}

INSTANTIATE_TEST_SUITE_P(
    StmAndGlobalLock, ReadAheadRaceTest,
    ::testing::Values(tm::BackendKind::kTl2, tm::BackendKind::kGlobalLock),
    [](const ::testing::TestParamInfo<tm::BackendKind> &info) {
        return std::string(tm::backendName(info.param));
    });

} // namespace
} // namespace proteus::kvstore
