/**
 * Growth of large tables under load (run under TSan and ASan in CI):
 * two shards start at 2^15 slots and grow online twice, to 2^17 slots
 * (5 MiB of slot records each), while the store is live. The resize
 * torture test tops out near 4K slots; here the two migrations walk
 * 512 and 1024 chunks of records:
 *
 *  - inserters put, overwrite and delete keys (word and wide values)
 *    and keep a reference map of what each key must hold;
 *  - cross-shard 2PC transfers move amounts between accounts;
 *  - snapshot readers check every account snapshot conserves the
 *    total, and re-read preloaded keys through the moving tables.
 *
 * At the end, every shard sits at 2^17 slots and the store's contents
 * equal the reference map exactly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "kvstore/kvstore.hpp"

namespace proteus::kvstore {
namespace {

constexpr unsigned kLog2Slots = 15;
constexpr unsigned kLog2Final = 17;

constexpr std::uint64_t kAccounts = 64;
constexpr std::uint64_t kInitialBalance = 1000;
constexpr std::uint64_t kPreloaded = 2048;
constexpr std::uint64_t kPreloadBase = 1 << 16;
constexpr int kInserters = 2;
// ~50K keys per shard: past 70% of 2^16 (one more grow to 2^17), short
// of 70% of 2^17.
constexpr std::uint64_t kKeysPerInserter = 50'000;
constexpr std::uint64_t kInsertBase = 1 << 20;
constexpr std::uint64_t kInserterStride = 1 << 20;
constexpr int kTransferThreads = 2;
constexpr int kReaders = 2;

/** What a key must hold, as getBytes() returns it (word values read
 *  back as their 8 raw bytes). */
std::string
wordBytes(std::uint64_t value)
{
    std::string bytes(8, '\0');
    std::memcpy(bytes.data(), &value, 8);
    return bytes;
}

std::uint64_t
wordValue(std::uint64_t key, std::uint64_t version)
{
    return key * 0x9e3779b97f4a7c15ull + version;
}

std::string
widePayload(std::uint64_t key, std::uint64_t version)
{
    std::string bytes(24 + ((key + version) & 63), '\0');
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<char>((key * 131 + version * 17 + i) & 0xff);
    return bytes;
}

TEST(LargeResizeTest, GrowthTo2To17SlotsKeepsContents)
{
    KvStoreOptions options;
    options.numShards = 2;
    options.log2SlotsPerShard = kLog2Slots;
    options.initial = {tm::BackendKind::kTl2, 16, {}};
    KvStore store(options);
    for (int s = 0; s < store.numShards(); ++s)
        ASSERT_EQ(store.shard(static_cast<std::size_t>(s)).capacity(),
                  std::size_t{1} << kLog2Slots);

    {
        auto session = store.openSession();
        for (std::uint64_t key = 0; key < kAccounts; ++key)
            ASSERT_TRUE(store.put(session, key, kInitialBalance));
        for (std::uint64_t i = 0; i < kPreloaded; ++i) {
            const std::uint64_t key = kPreloadBase + i;
            if ((i & 3) == 0) {
                const std::string bytes = widePayload(key, 0);
                ASSERT_TRUE(
                    store.putBytes(session, key, bytes.data(), bytes.size()));
            } else {
                ASSERT_TRUE(store.put(session, key, wordValue(key, 0)));
            }
        }
        store.closeSession(session);
    }

    std::atomic<bool> write_failed{false};
    std::atomic<bool> torn_snapshot{false};
    std::atomic<bool> bad_read{false};
    std::atomic<int> inserters_done{0};
    std::atomic<int> writers_done{0};
    constexpr int kWriters = kInserters + kTransferThreads;
    std::vector<std::map<std::uint64_t, std::string>> expected(kInserters);
    std::vector<std::thread> threads;

    // Inserters: disjoint key ranges. Every 8th key is wide; every 16th
    // step overwrites an earlier key, every 64th deletes one.
    for (int w = 0; w < kInserters; ++w) {
        threads.emplace_back([&, w] {
            auto session = store.openSession();
            auto &ref = expected[static_cast<std::size_t>(w)];
            const std::uint64_t base =
                kInsertBase + static_cast<std::uint64_t>(w) * kInserterStride;
            const auto write = [&](std::uint64_t key,
                                   std::uint64_t version) {
                bool ok;
                if ((key & 7) == 0) {
                    std::string bytes = widePayload(key, version);
                    ok = store.putBytes(session, key, bytes.data(),
                                        bytes.size())
                             .status == KvStatus::kOk;
                    ref[key] = std::move(bytes);
                } else {
                    ok = store.put(session, key, wordValue(key, version))
                             .status == KvStatus::kOk;
                    ref[key] = wordBytes(wordValue(key, version));
                }
                if (!ok)
                    write_failed.store(true);
            };
            for (std::uint64_t i = 0; i < kKeysPerInserter; ++i) {
                write(base + i, 0);
                if (i % 16 == 15)
                    write(base + i / 2, i);
                if (i % 64 == 63) {
                    const std::uint64_t victim = base + i / 3;
                    const bool present = ref.erase(victim) == 1;
                    if (static_cast<bool>(store.del(session, victim)) !=
                        present)
                        write_failed.store(true);
                }
            }
            store.closeSession(session);
            inserters_done.fetch_add(1);
            writers_done.fetch_add(1);
        });
    }

    // Transfers: 2-op kAdd composites between accounts, cross-shard
    // whenever the two keys hash apart, until the inserters finish.
    for (int w = 0; w < kTransferThreads; ++w) {
        threads.emplace_back([&, w] {
            auto session = store.openSession();
            Rng rng(0x7e57 + static_cast<unsigned>(w));
            std::vector<KvOp> ops;
            while (inserters_done.load() < kInserters) {
                const std::uint64_t from = rng.nextBounded(kAccounts);
                const std::uint64_t to =
                    (from + 1 + rng.nextBounded(kAccounts - 1)) % kAccounts;
                const std::int64_t amount =
                    static_cast<std::int64_t>(rng.nextBounded(9)) + 1;
                ops.clear();
                ops.push_back({KvOp::Kind::kAdd, from,
                               static_cast<std::uint64_t>(-amount), false});
                ops.push_back({KvOp::Kind::kAdd, to,
                               static_cast<std::uint64_t>(amount), false});
                if (!store.multiOp(session, ops))
                    write_failed.store(true);
            }
            store.closeSession(session);
            writers_done.fetch_add(1);
        });
    }

    // Readers: conserved account snapshots, and preloaded keys (never
    // rewritten) read back intact while their slots migrate.
    for (int r = 0; r < kReaders; ++r) {
        threads.emplace_back([&, r] {
            auto session = store.openSession();
            Rng rng(0xbeef + static_cast<unsigned>(r));
            std::vector<KvOp> snapshot;
            std::string bytes;
            std::uint64_t value = 0;
            while (writers_done.load() < kWriters) {
                snapshot.clear();
                for (std::uint64_t key = 0; key < kAccounts; ++key)
                    snapshot.push_back({KvOp::Kind::kGet, key, 0, false});
                store.multiOp(session, snapshot);
                std::uint64_t total = 0;
                for (const KvOp &op : snapshot)
                    total += op.ok ? op.value : 0;
                if (total != kAccounts * kInitialBalance)
                    torn_snapshot.store(true);
                for (int k = 0; k < 16; ++k) {
                    const std::uint64_t i = rng.nextBounded(kPreloaded);
                    const std::uint64_t key = kPreloadBase + i;
                    if ((i & 3) == 0) {
                        if (!store.getBytes(session, key, &bytes) ||
                            bytes != widePayload(key, 0))
                            bad_read.store(true);
                    } else if (!store.get(session, key, &value) ||
                               value != wordValue(key, 0)) {
                        bad_read.store(true);
                    }
                }
            }
            store.closeSession(session);
        });
    }

    for (auto &thread : threads)
        thread.join();

    EXPECT_FALSE(write_failed.load())
        << "a put/del/multiOp reported failure on a growable store";
    EXPECT_FALSE(torn_snapshot.load())
        << "a snapshot observed a non-conserved transfer total";
    EXPECT_FALSE(bad_read.load())
        << "a preloaded key read back missing or torn mid-migration";

    auto session = store.openSession();
    for (int s = 0; s < store.numShards(); ++s) {
        Shard &shard = store.shard(static_cast<std::size_t>(s));
        shard.drainMigration(session.token(static_cast<std::size_t>(s)));
        EXPECT_EQ(shard.capacity(), std::size_t{1} << kLog2Final)
            << "shard " << s;
        EXPECT_GE(shard.growCount(), 2u) << "shard " << s;
    }

    std::uint64_t total = 0;
    std::uint64_t value = 0;
    for (std::uint64_t key = 0; key < kAccounts; ++key) {
        ASSERT_TRUE(store.get(session, key, &value)) << key;
        total += value;
    }
    EXPECT_EQ(total, kAccounts * kInitialBalance);

    // Contents equal the reference map: every expected key holds its
    // last written value, every deleted key is gone, nothing extra.
    std::string bytes;
    std::size_t expected_live = kAccounts + kPreloaded;
    for (int w = 0; w < kInserters; ++w) {
        const auto &ref = expected[static_cast<std::size_t>(w)];
        expected_live += ref.size();
        const std::uint64_t base =
            kInsertBase + static_cast<std::uint64_t>(w) * kInserterStride;
        for (std::uint64_t key = base; key < base + kKeysPerInserter; ++key) {
            const auto it = ref.find(key);
            if (it == ref.end()) {
                ASSERT_FALSE(store.getBytes(session, key, &bytes)) << key;
                continue;
            }
            ASSERT_TRUE(store.getBytes(session, key, &bytes)) << key;
            ASSERT_EQ(bytes, it->second) << key;
        }
    }
    for (std::uint64_t i = 0; i < kPreloaded; ++i) {
        const std::uint64_t key = kPreloadBase + i;
        ASSERT_TRUE(store.getBytes(session, key, &bytes)) << key;
        ASSERT_EQ(bytes, (i & 3) == 0 ? widePayload(key, 0)
                                      : wordBytes(wordValue(key, 0)))
            << key;
    }
    std::size_t live = 0;
    for (int s = 0; s < store.numShards(); ++s)
        live += store.shard(static_cast<std::size_t>(s)).sizeQuiesced();
    EXPECT_EQ(live, expected_live);
    store.closeSession(session);
}

} // namespace
} // namespace proteus::kvstore
