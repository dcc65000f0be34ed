/**
 * Resize torture hunter (run under TSan in CI): 8 writer threads fill
 * two 256-slot shards to 4x+ their initial capacity — driving several
 * online grows and incremental migrations each — while cross-shard
 * 2PC transfers and snapshot scans run through the same slots. The
 * invariants under fire:
 *
 *  - put() never reports table-full on a growable shard;
 *  - no inserted key is lost and no value (word or wide) is torn by a
 *    relocation;
 *  - transferred totals are conserved across resizes (every snapshot
 *    taken mid-run and the final quiesced sum agree);
 *  - draining the migration afterwards accounts for every entry.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "kvstore/kvstore.hpp"

namespace proteus::kvstore {
namespace {

constexpr unsigned kLog2Slots = 8; // 256 slots per shard initially
constexpr std::uint64_t kAccounts = 64;
constexpr std::uint64_t kInitialBalance = 1000;
constexpr int kInserters = 4;
constexpr int kTransferThreads = 2;
constexpr int kSnapshotThreads = 2;
constexpr std::uint64_t kKeysPerInserter = 600;
constexpr int kTransfersPerThread = 400;
constexpr std::uint64_t kInsertBase = 1 << 20;

std::string
widePayload(std::uint64_t key)
{
    std::string bytes(64 + (key & 127), '\0');
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<char>((key * 131 + i * 7) & 0xff);
    return bytes;
}

TEST(ResizeTortureTest, GrowthUnderTransfersAndScansLosesNothing)
{
    KvStoreOptions options;
    options.numShards = 2;
    options.log2SlotsPerShard = kLog2Slots;
    options.initial = {tm::BackendKind::kTl2, 16, {}};
    KvStore store(options);

    const std::size_t initial_cap = store.shard(0).capacity();
    {
        auto session = store.openSession();
        for (std::uint64_t key = 0; key < kAccounts; ++key)
            ASSERT_TRUE(store.put(session, key, kInitialBalance));
        store.closeSession(session);
    }

    std::atomic<bool> put_failed{false};
    std::atomic<bool> torn_snapshot{false};
    std::atomic<int> writers_done{0};
    constexpr int kWriters = kInserters + kTransferThreads; // 8 incl.
    std::vector<std::thread> threads;

    // Inserters: disjoint key ranges, word values tagged by key, every
    // 8th key a wide (blob) value. These drive the shards past 4x
    // their initial capacity while everything else runs.
    for (int w = 0; w < kInserters; ++w) {
        threads.emplace_back([&, w] {
            auto session = store.openSession();
            const std::uint64_t base =
                kInsertBase + static_cast<std::uint64_t>(w) *
                                  kKeysPerInserter;
            for (std::uint64_t i = 0; i < kKeysPerInserter; ++i) {
                const std::uint64_t key = base + i;
                bool ok;
                if ((key & 7) == 0) {
                    const std::string bytes = widePayload(key);
                    ok = store.putBytes(session, key, bytes.data(),
                                        bytes.size())
                             .status == KvStatus::kOk;
                } else {
                    ok = store.put(session, key,
                                   key * 2654435761ull + 1)
                             .status == KvStatus::kOk;
                }
                if (!ok)
                    put_failed.store(true);
            }
            store.closeSession(session);
            writers_done.fetch_add(1);
        });
    }

    // Transfer threads: cross-shard 2-op kAdd composites over the
    // account keys — their intents land in slots that migrations are
    // concurrently relocating.
    for (int w = 0; w < kTransferThreads; ++w) {
        threads.emplace_back([&, w] {
            auto session = store.openSession();
            Rng rng(0x5eed + static_cast<unsigned>(w));
            std::vector<KvOp> ops;
            for (int i = 0; i < kTransfersPerThread; ++i) {
                const std::uint64_t from = rng.nextBounded(kAccounts);
                std::uint64_t to = rng.nextBounded(kAccounts);
                if (to == from)
                    to = (to + 1) % kAccounts;
                const std::int64_t amount =
                    static_cast<std::int64_t>(rng.nextBounded(7)) + 1;
                ops.clear();
                ops.push_back({KvOp::Kind::kAdd, from,
                               static_cast<std::uint64_t>(-amount),
                               false});
                ops.push_back({KvOp::Kind::kAdd, to,
                               static_cast<std::uint64_t>(amount),
                               false});
                if (!store.multiOp(session, ops))
                    put_failed.store(true);
            }
            store.closeSession(session);
            writers_done.fetch_add(1);
        });
    }

    // Snapshot threads: read-only multiOps over every account (must
    // always see the conserved total) plus shard scans through the
    // live+old tables.
    for (int r = 0; r < kSnapshotThreads; ++r) {
        threads.emplace_back([&, r] {
            auto session = store.openSession();
            Rng rng(0xabcd + static_cast<unsigned>(r));
            std::vector<KvOp> snapshot;
            std::vector<std::pair<std::uint64_t, std::uint64_t>> hits;
            while (writers_done.load() < kWriters &&
                   !torn_snapshot.load()) {
                snapshot.clear();
                for (std::uint64_t key = 0; key < kAccounts; ++key)
                    snapshot.push_back(
                        {KvOp::Kind::kGet, key, 0, false});
                store.multiOp(session, snapshot);
                std::uint64_t total = 0;
                for (const KvOp &op : snapshot)
                    total += op.ok ? op.value : 0;
                if (total != kAccounts * kInitialBalance)
                    torn_snapshot.store(true);
                store.scan(session, rng.nextBounded(kAccounts), 32,
                           &hits);
            }
            store.closeSession(session);
        });
    }

    for (auto &thread : threads)
        thread.join();

    EXPECT_FALSE(put_failed.load())
        << "put()/multiOp() must never fail on a growable shard";
    EXPECT_FALSE(torn_snapshot.load())
        << "a snapshot observed a non-conserved transfer total";

    // The shards must have grown well past their initial capacity
    // (the acceptance bar: 4x fill without a table-full).
    EXPECT_GE(store.shard(0).capacity() + store.shard(1).capacity(),
              2 * 4 * initial_cap)
        << "shard0 " << store.shard(0).capacity() << " shard1 "
        << store.shard(1).capacity();

    auto session = store.openSession();

    // Conservation of transferred totals after all resizes.
    std::uint64_t total = 0;
    std::uint64_t value = 0;
    for (std::uint64_t key = 0; key < kAccounts; ++key) {
        ASSERT_TRUE(store.get(session, key, &value)) << key;
        total += value;
    }
    EXPECT_EQ(total, kAccounts * kInitialBalance);

    // No lost keys, no torn values — word and wide alike.
    std::string bytes;
    for (int w = 0; w < kInserters; ++w) {
        const std::uint64_t base =
            kInsertBase +
            static_cast<std::uint64_t>(w) * kKeysPerInserter;
        for (std::uint64_t i = 0; i < kKeysPerInserter; ++i) {
            const std::uint64_t key = base + i;
            if ((key & 7) == 0) {
                ASSERT_TRUE(store.getBytes(session, key, &bytes))
                    << key;
                ASSERT_EQ(bytes, widePayload(key)) << key;
            } else {
                ASSERT_TRUE(store.get(session, key, &value)) << key;
                ASSERT_EQ(value, key * 2654435761ull + 1) << key;
            }
        }
    }

    // Drain the tail of any in-flight migration and account for every
    // entry exactly once.
    for (int s = 0; s < store.numShards(); ++s)
        store.shard(static_cast<std::size_t>(s))
            .drainMigration(session.token(static_cast<std::size_t>(s)));
    std::size_t live = 0;
    for (int s = 0; s < store.numShards(); ++s) {
        EXPECT_FALSE(
            store.shard(static_cast<std::size_t>(s)).migrationActive());
        live += store.shard(static_cast<std::size_t>(s)).sizeQuiesced();
    }
    EXPECT_EQ(live, kAccounts + kInserters * kKeysPerInserter);

    store.closeSession(session);
}

} // namespace
} // namespace proteus::kvstore
