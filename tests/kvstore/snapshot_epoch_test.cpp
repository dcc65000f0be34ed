/**
 * Snapshot-epoch read-path suite:
 *
 *  1. Linearizability hunter — concurrent cross-shard pair transfers
 *     race validation-free snapshot reads and scans; total money must
 *     be conserved in every snapshot and the store-wide commit
 *     sequence must be monotonic per observer.
 *  2. Validation-free guarantee — on a write-free workload every
 *     snapshot round settles first try: zero retries, zero pending
 *     waits, zero escalations (the acceptance counter).
 *  3. Blob pinning — every blob read races putBytes displacement and
 *     the deferred-recycle machinery, on TL2 and on NOrec (whose
 *     value-based commit validation the blob generation exists for):
 *     getBytes/scanEntries, numeric get/scan of byte values, and
 *     kGet/kGetBytes inside single-shard and cross-shard writing
 *     multiOps. Every returned payload, and every numeric decode of
 *     one, must be internally consistent (a torn or
 *     recycled-under-the-reader copy would mix fill bytes). The
 *     `shard.blob_pin_window` fault point holds the window between a
 *     handle read and its pin open, so a blob decoded without the pin
 *     and re-read is caught in every run.
 *  4. Delete-churn compaction — tombstone-heavy churn must trigger
 *     same-size compacting migrations, never doubling grows, keeping
 *     the table size flat (the ROADMAP follow-up regression test).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "kvstore/kvstore.hpp"

namespace proteus::kvstore {
namespace {

KvStoreOptions
smallStore(int shards, unsigned log2_slots)
{
    KvStoreOptions options;
    options.numShards = shards;
    options.log2SlotsPerShard = log2_slots;
    options.initial = {tm::BackendKind::kTl2, 16, {}};
    return options;
}

TEST(SnapshotEpochTest, TransfersConserveUnderSnapshotReadsAndScans)
{
    constexpr std::uint64_t kKeys = 48;
    constexpr std::uint64_t kInitial = 100;
    constexpr int kWriters = 3;
    constexpr int kTransfers = 400;

    KvStore store(smallStore(4, 10));
    {
        auto session = store.openSession();
        for (std::uint64_t key = 0; key < kKeys; ++key)
            ASSERT_TRUE(store.put(session, key, kInitial));
        store.closeSession(session);
    }

    std::atomic<int> writers_done{0};
    std::atomic<bool> violation{false};
    std::atomic<bool> epoch_regressed{false};
    std::vector<std::thread> threads;

    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            auto session = store.openSession();
            Rng rng(4400 + static_cast<unsigned>(w));
            std::vector<KvOp> ops;
            for (int i = 0; i < kTransfers; ++i) {
                const std::uint64_t from = rng.nextBounded(kKeys);
                std::uint64_t to = rng.nextBounded(kKeys);
                if (to == from)
                    to = (to + 1) % kKeys;
                ops.clear();
                ops.push_back({KvOp::Kind::kAdd, from,
                               static_cast<std::uint64_t>(-1), false});
                ops.push_back({KvOp::Kind::kAdd, to, 1, false});
                store.multiOp(session, ops);
            }
            store.closeSession(session);
            writers_done.fetch_add(1);
        });
    }

    // Snapshot readers: full-conservation read-only multiOps, plus a
    // monotonic-epoch check — the commit sequence an observer samples
    // may never go backwards.
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&] {
            auto session = store.openSession();
            std::vector<KvOp> snapshot;
            std::uint64_t last_epoch = 0;
            while (writers_done.load() < kWriters &&
                   !violation.load()) {
                const std::uint64_t before = store.commitSequence();
                snapshot.clear();
                for (std::uint64_t key = 0; key < kKeys; ++key)
                    snapshot.push_back(
                        {KvOp::Kind::kGet, key, 0, false});
                store.multiOp(session, snapshot);
                const std::uint64_t after = store.commitSequence();
                if (before < last_epoch || after < before)
                    epoch_regressed.store(true);
                last_epoch = after;
                std::uint64_t total = 0;
                for (const KvOp &op : snapshot)
                    total += op.ok ? op.value : 0;
                if (total != kKeys * kInitial)
                    violation.store(true);
            }
            store.closeSession(session);
        });
    }

    // Scan readers keep the walk + settle paths hot under the storm
    // (per-shard scans cannot assert the global sum; the TSan run and
    // the resolver's all-or-nothing verdicts are what they test).
    threads.emplace_back([&] {
        auto session = store.openSession();
        Rng rng(7100);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
        while (writers_done.load() < kWriters && !violation.load())
            store.scan(session, rng.nextBounded(kKeys), 16, &out);
        store.closeSession(session);
    });

    for (auto &thread : threads)
        thread.join();

    EXPECT_FALSE(violation.load())
        << "a snapshot read observed a torn transfer";
    EXPECT_FALSE(epoch_regressed.load())
        << "the commit sequence regressed for an observer";

    // Quiesced: the books must balance exactly.
    auto session = store.openSession();
    std::uint64_t total = 0;
    std::uint64_t value = 0;
    for (std::uint64_t key = 0; key < kKeys; ++key) {
        ASSERT_TRUE(store.get(session, key, &value));
        total += value;
    }
    EXPECT_EQ(total, kKeys * kInitial);
    store.closeSession(session);
}

TEST(SnapshotEpochTest, WriteFreeWorkloadReadsValidationFree)
{
    constexpr std::uint64_t kKeys = 1 << 10;
    KvStore store(smallStore(4, 12));
    {
        auto session = store.openSession();
        std::string payload(64, 'p');
        for (std::uint64_t key = 0; key < kKeys; ++key) {
            if ((key & 3) == 0) {
                ASSERT_TRUE(store.putBytes(session, key,
                                           payload.data(),
                                           payload.size()));
            } else {
                ASSERT_TRUE(store.put(session, key, key * 7 + 1));
            }
        }
        store.closeSession(session);
    }

    const obs::TelemetrySnapshot pre = store.telemetry();
    std::vector<std::thread> threads;
    for (int r = 0; r < 4; ++r) {
        threads.emplace_back([&, r] {
            auto session = store.openSession();
            Rng rng(900 + static_cast<unsigned>(r));
            std::vector<KvOp> snap;
            std::vector<Shard::ScanEntry> entries;
            for (int i = 0; i < 2000; ++i) {
                if ((i & 7) == 7) {
                    store.scanEntries(session, rng.nextBounded(kKeys),
                                      8, &entries);
                    continue;
                }
                snap.clear();
                for (int k = 0; k < 6; ++k) {
                    const std::uint64_t key = rng.nextBounded(kKeys);
                    snap.push_back(
                        {(key & 3) == 0 ? KvOp::Kind::kGetBytes
                                        : KvOp::Kind::kGet,
                         key, 0, false});
                }
                store.multiOp(session, snap);
                for (const KvOp &op : snap)
                    EXPECT_TRUE(op.ok);
            }
            store.closeSession(session);
        });
    }
    for (auto &thread : threads)
        thread.join();

    // The acceptance criterion: a write-free workload pays ZERO
    // validation retries, verdict waits, or escalations — every
    // snapshot round settles on its first try.
    const obs::TelemetrySnapshot post = store.telemetry();
    const auto delta = [&](const char *name) {
        return post.value(name) - pre.value(name);
    };
    EXPECT_GT(delta("snapshot_rounds"), 0u);
    EXPECT_EQ(delta("snapshot_retries"), 0u);
    EXPECT_EQ(delta("snapshot_pending_waits"), 0u);
    EXPECT_EQ(delta("snapshot_escalations"), 0u);
}

namespace {

/** Deterministic self-describing payload: every byte equals a tag
 *  derived from (key, version), and the length encodes the version —
 *  any mix of two generations (torn copy, recycled-under-reader blob)
 *  breaks the all-bytes-equal invariant. */
std::string
blobPayload(std::uint64_t key, std::uint32_t version)
{
    const std::size_t len = 32 + (version % 96);
    const char tag =
        static_cast<char>((key * 31 + version * 131) & 0xff);
    return std::string(len, tag);
}

bool
payloadWellFormed(const std::string &bytes)
{
    if (bytes.size() < 32 || bytes.size() >= 128)
        return false;
    for (const char c : bytes) {
        if (c != bytes[0])
            return false;
    }
    return true;
}

/** The numeric decode of a blobPayload: its first 8 bytes, all the
 *  same tag byte. */
bool
wordWellFormed(std::uint64_t word)
{
    return word == (word & 0xff) * 0x0101010101010101ull;
}

} // namespace

class BlobPinningTest : public ::testing::TestWithParam<tm::BackendKind>
{
};

TEST_P(BlobPinningTest, GetBytesRacesDisplacementAndRecycle)
{
    constexpr std::uint64_t kKeys = 64;
    constexpr std::uint64_t kSideKeys = 16; // numeric, after the blobs
    constexpr int kWriters = 2;
    constexpr int kVersions = 1500;
    // Writers go on past kVersions until the readers have run this
    // many reads between them, so every read kind races displacement.
    constexpr int kReaderRounds = 3000;

    KvStoreOptions options = smallStore(2, 10);
    options.initial = {GetParam(), 16, {}};
    KvStore store(options);
    // Blob keys and numeric side keys per shard, for the writing
    // multiOps that must stay on one shard or span both.
    std::vector<std::vector<std::uint64_t>> blob_keys(2);
    std::vector<std::vector<std::uint64_t>> side_keys(2);
    for (std::uint64_t key = 0; key < kKeys; ++key)
        blob_keys[store.shardOf(key)].push_back(key);
    for (std::uint64_t key = kKeys; key < kKeys + kSideKeys; ++key)
        side_keys[store.shardOf(key)].push_back(key);
    for (int s = 0; s < 2; ++s) {
        ASSERT_FALSE(blob_keys[s].empty());
        ASSERT_FALSE(side_keys[s].empty());
    }
    {
        auto session = store.openSession();
        for (std::uint64_t key = 0; key < kKeys; ++key) {
            const std::string payload = blobPayload(key, 0);
            ASSERT_TRUE(store.putBytes(session, key, payload.data(),
                                       payload.size()));
        }
        store.closeSession(session);
    }

    std::atomic<int> writers_done{0};
    std::atomic<int> reader_rounds{0};
    std::atomic<bool> malformed{false};
    std::vector<std::thread> threads;

    // Now and then a blob read sleeps between reading its handle and
    // pinning, long enough for writers to displace, retire, recycle
    // and republish that blob: a read that dereferenced the handle
    // without re-reading it inside the section would copy another
    // generation's bytes.
    fault::FaultSpec window;
    window.trigger = fault::FaultSpec::Trigger::kProbability;
    window.probability = 0.02;
    window.oneShot = false;
    window.arg = 100; // microseconds
    fault::arm("shard.blob_pin_window", window);

    // Writers displace every key's blob over and over: each put
    // retires the previous generation into the reader-epoch limbo,
    // and the magazines/free lists recycle it under the readers.
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            auto session = store.openSession();
            Rng rng(50 + static_cast<unsigned>(w));
            for (std::uint32_t v = 1;
                 (v <= kVersions || reader_rounds.load() < kReaderRounds) &&
                 !malformed.load();
                 ++v) {
                const std::uint64_t key = rng.nextBounded(kKeys);
                const std::string payload = blobPayload(key, v);
                store.putBytes(session, key, payload.data(),
                               payload.size());
            }
            store.closeSession(session);
            writers_done.fetch_add(1);
        });
    }

    // Readers: every blob read must always be internally consistent,
    // even while its blob is displaced, retired, reclaimed and
    // reallocated. getBytes, scanEntries and read-only snapshots pin
    // their whole body; numeric reads and the reads inside writing
    // multiOps pin at the blob and re-read the slot there.
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&, r] {
            auto session = store.openSession();
            Rng rng(70 + static_cast<unsigned>(r));
            std::string bytes;
            std::vector<Shard::ScanEntry> entries;
            std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
            std::vector<KvOp> ops;
            const auto pick = [&](const std::vector<std::uint64_t> &keys) {
                return keys[rng.nextBounded(keys.size())];
            };
            const auto check_ops = [&] {
                for (const KvOp &op : ops) {
                    if (op.kind == KvOp::Kind::kGet && op.ok &&
                        !wordWellFormed(op.value))
                        malformed.store(true);
                    if (op.kind == KvOp::Kind::kGetBytes && op.ok &&
                        !payloadWellFormed(op.bytes))
                        malformed.store(true);
                }
            };
            while (writers_done.load() < kWriters &&
                   !malformed.load()) {
                const std::uint64_t key = rng.nextBounded(kKeys);
                reader_rounds.fetch_add(1);
                switch (rng.nextBounded(6)) {
                  case 0:
                    store.scanEntries(session, key, 8, &entries);
                    for (const Shard::ScanEntry &entry : entries) {
                        if (entry.key < kKeys &&
                            !payloadWellFormed(entry.bytes))
                            malformed.store(true);
                    }
                    break;
                  case 1: {
                    std::uint64_t word = 0;
                    if (store.get(session, key, &word) &&
                        !wordWellFormed(word))
                        malformed.store(true);
                    break;
                  }
                  case 2:
                    store.scan(session, key, 8, &pairs);
                    for (const auto &[k, word] : pairs) {
                        if (k < kKeys && !wordWellFormed(word))
                            malformed.store(true);
                    }
                    break;
                  case 3: {
                    // Single-shard writing multiOp: getForUpdateTx and
                    // getBytesForUpdateTx on blobs.
                    const std::size_t s = store.shardOf(key);
                    ops.clear();
                    ops.push_back({KvOp::Kind::kGet, key, 0, false});
                    ops.push_back({KvOp::Kind::kGetBytes,
                                   pick(blob_keys[s]), 0, false});
                    ops.push_back({KvOp::Kind::kPut, pick(side_keys[s]),
                                   rng.nextU64(), false});
                    store.multiOp(session, ops);
                    check_ops();
                    break;
                  }
                  case 4: {
                    // Cross-shard writing multiOp: prepareGetTx and
                    // prepareGetBytesTx on blobs.
                    const std::size_t s = store.shardOf(key);
                    ops.clear();
                    ops.push_back({KvOp::Kind::kGetBytes, key, 0, false});
                    ops.push_back({KvOp::Kind::kGet, pick(blob_keys[s]),
                                   0, false});
                    ops.push_back({KvOp::Kind::kPut,
                                   pick(side_keys[1 - s]), rng.nextU64(),
                                   false});
                    store.multiOp(session, ops);
                    check_ops();
                    break;
                  }
                  default:
                    if (store.getBytes(session, key, &bytes) &&
                        !payloadWellFormed(bytes))
                        malformed.store(true);
                    break;
                }
            }
            store.closeSession(session);
        });
    }

    for (auto &thread : threads)
        thread.join();
    const std::uint64_t windows = fault::firesOf("shard.blob_pin_window");
    fault::disarmAll();
    EXPECT_GT(windows, 0u) << "no blob read reached the pin window";
    EXPECT_FALSE(malformed.load())
        << "a pinned blob read returned a torn or recycled payload";

    // Quiesce and drain: after the writers' limbo flushes, recycling
    // must catch up (nothing stays stranded past reader quiescence).
    auto session = store.openSession();
    for (std::uint64_t key = 0; key < kKeys; ++key)
        store.put(session, key + kKeys + kSideKeys, 1); // ticks reclaim
    std::uint64_t recycled_total = 0;
    for (int s = 0; s < store.numShards(); ++s) {
        const ValueArena::Stats stats =
            store.shard(static_cast<std::size_t>(s)).arena().stats();
        recycled_total += stats.recycled;
        EXPECT_EQ(stats.retired,
                  stats.recycled +
                      store.shard(static_cast<std::size_t>(s))
                          .arena()
                          .limboCount())
            << "limbo bookkeeping leaked a blob on shard " << s;
    }
    EXPECT_GT(recycled_total, 0u)
        << "the deferred-recycle pipeline never cycled a blob";
    store.closeSession(session);
}

INSTANTIATE_TEST_SUITE_P(
    Tl2AndNorec, BlobPinningTest,
    ::testing::Values(tm::BackendKind::kTl2, tm::BackendKind::kNorec),
    [](const ::testing::TestParamInfo<tm::BackendKind> &info) {
        return std::string(tm::backendName(info.param));
    });

TEST(DeleteChurnTest, TombstoneChurnCompactsInsteadOfGrowing)
{
    // The ROADMAP follow-up: delete churn consumes slots without
    // holding data. The heuristic must answer with SAME-size
    // compacting migrations — table capacity stays flat.
    constexpr unsigned kLog2Slots = 8; // 256 slots
    constexpr std::uint64_t kChurn = 20000;

    KvStore store(smallStore(1, kLog2Slots));
    auto session = store.openSession();
    const std::size_t initial_capacity = store.shard(0).capacity();

    for (std::uint64_t i = 0; i < kChurn; ++i) {
        ASSERT_TRUE(store.put(session, i, i * 3 + 1));
        ASSERT_TRUE(store.del(session, i));
    }

    EXPECT_EQ(store.shard(0).capacity(), initial_capacity)
        << "tombstone churn must not grow the table";
    EXPECT_EQ(store.shard(0).growCount(), 0u);
    EXPECT_GE(store.shard(0).compactCount(), 1u)
        << "churn never triggered a compacting migration";

    // The table still works: a fresh insert lands and reads back.
    ASSERT_TRUE(store.put(session, kChurn + 1, 42));
    std::uint64_t value = 0;
    ASSERT_TRUE(store.get(session, kChurn + 1, &value));
    EXPECT_EQ(value, 42u);
    store.closeSession(session);
}

TEST(DeleteChurnTest, CappedShardSurvivesChurnViaCompaction)
{
    // A capacity-pinned shard whose table fills with tombstones must
    // recover through same-size compaction instead of failing puts.
    constexpr unsigned kLog2Slots = 8;
    KvStoreOptions options =
        smallStore(1, kLog2Slots);
    options.maxLog2SlotsPerShard = kLog2Slots; // pinned capacity
    KvStore store(options);

    auto session = store.openSession();
    for (std::uint64_t i = 0; i < 5000; ++i) {
        ASSERT_TRUE(store.put(session, i, i))
            << "capped shard failed a put under pure churn at " << i;
        ASSERT_TRUE(store.del(session, i));
    }
    EXPECT_EQ(store.shard(0).capacity(),
              std::size_t{1} << kLog2Slots);
    EXPECT_EQ(store.shard(0).growCount(), 0u);
    store.closeSession(session);
}

} // namespace
} // namespace proteus::kvstore
