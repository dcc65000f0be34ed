/**
 * WAL + recovery tests: options validation, durable-reopen roundtrips
 * across every write path (single-key, batch, cross-shard 2PC),
 * checkpoint truncation, torn-tail / bit-flip corruption (recovery to
 * a consistent prefix), hand-crafted in-doubt 2PC resolution, and the
 * wal_* telemetry counters.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "kvstore/kvstore.hpp"
#include "kvstore/wal.hpp"

namespace proteus::kvstore {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch WAL directory per test. */
class WalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("proteus_wal_test_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    KvStoreOptions
    durableStore(int shards, Durability mode = Durability::kBuffered)
    {
        KvStoreOptions options;
        options.numShards = shards;
        options.log2SlotsPerShard = 10;
        options.initial = {tm::BackendKind::kTl2, 16, {}};
        options.durability = mode;
        options.walDir = dir_.string();
        return options;
    }

    fs::path dir_;
};

TEST_F(WalTest, OptionsValidationRejectsBrokenConfigs)
{
    const auto expect_invalid = [](KvStoreOptions options) {
        EXPECT_THROW(KvStore{options}, std::invalid_argument);
    };
    KvStoreOptions base = durableStore(2);

    KvStoreOptions o = base;
    o.numShards = 0;
    expect_invalid(o);

    o = base;
    o.log2SlotsPerShard = 0;
    expect_invalid(o);

    o = base;
    o.log2SlotsPerShard = 31;
    expect_invalid(o);

    o = base;
    o.maxLog2SlotsPerShard = 8; // below initial 10
    expect_invalid(o);

    o = base;
    o.growLoadPercent = 0;
    expect_invalid(o);
    o.growLoadPercent = 101;
    expect_invalid(o);

    o = base;
    o.walDir.clear();
    expect_invalid(o);

    o = base;
    o.walFlushBytes = 0;
    expect_invalid(o);

    o = base;
    o.checkpointChunkSlots = 0;
    expect_invalid(o);
}

TEST_F(WalTest, MetaRejectsShardCountMismatch)
{
    { KvStore store(durableStore(4)); }
    EXPECT_THROW(KvStore{durableStore(2)}, std::invalid_argument);
}

TEST_F(WalTest, SingleKeyWritesSurviveReopen)
{
    {
        KvStore store(durableStore(2));
        auto session = store.openSession();
        for (std::uint64_t k = 1; k <= 200; ++k)
            ASSERT_TRUE(store.put(session, k, k * 7));
        ASSERT_TRUE(store.del(session, 3));
        ASSERT_TRUE(
            store.putBytes(session, 777, "wide-value-payload", 18));
        store.closeSession(session);
        // No clean shutdown call: the dtor's final flush is the only
        // thing standing between the buffer and the reopen.
    }
    KvStore store(durableStore(2));
    EXPECT_GT(store.recoveryInfo().checkpointEntries +
                  store.recoveryInfo().replayedRecords,
              0u);
    auto session = store.openSession();
    std::uint64_t value = 0;
    for (std::uint64_t k = 1; k <= 200; ++k) {
        if (k == 3)
            continue;
        ASSERT_TRUE(store.get(session, k, &value)) << "key " << k;
        EXPECT_EQ(value, k * 7);
    }
    EXPECT_FALSE(store.get(session, 3, &value));
    std::string bytes;
    ASSERT_TRUE(store.getBytes(session, 777, &bytes));
    EXPECT_EQ(bytes, "wide-value-payload");
    store.closeSession(session);
}

TEST_F(WalTest, ReopenAfterGrowingPastTwiceTheInitialTable)
{
    // One 2^8-slot shard logs 2,000 writes, so replaying them grows
    // its table several times. Replay writes through the shard's own
    // write path, whose maintenance ticks drain each grow's migration
    // while the replay runs; the reopen's initial checkpoint then
    // finds no migration stuck behind a full table.
    constexpr std::uint64_t kKeys = 2000;
    constexpr std::uint64_t kTtl = 3600ull * 1000 * 1000 * 1000; // 1 h
    KvStoreOptions options = durableStore(1);
    options.log2SlotsPerShard = 8;
    const auto wide = [](std::uint64_t key) {
        return std::string(8 + key % 40, static_cast<char>('a' + key % 26));
    };
    {
        KvStore store(options);
        auto session = store.openSession();
        for (std::uint64_t key = 0; key < kKeys; ++key) {
            switch (key % 3) {
              case 0:
                ASSERT_TRUE(store.put(session, key, key * 7));
                break;
              case 1: {
                const std::string value = wide(key);
                ASSERT_TRUE(store.putBytes(session, key, value.data(),
                                           value.size()));
                break;
              }
              default:
                ASSERT_TRUE(store.put(session, key, key * 7, kTtl));
                break;
            }
        }
        for (std::uint64_t key = 0; key < kKeys; key += 10)
            ASSERT_TRUE(store.del(session, key));
        store.closeSession(session);
    }

    KvStore store(options);
    EXPECT_FALSE(store.shard(0).migrationActive());
    EXPECT_GT(store.shard(0).capacity(), std::size_t{1} << 9);
    auto session = store.openSession();
    for (std::uint64_t key = 0; key < kKeys; ++key) {
        if (key % 10 == 0) { // deleted
            EXPECT_FALSE(store.get(session, key)) << key;
            continue;
        }
        if (key % 3 == 1) {
            std::string out;
            ASSERT_TRUE(store.getBytes(session, key, &out)) << key;
            EXPECT_EQ(out, wide(key));
        } else {
            std::uint64_t value = 0;
            ASSERT_TRUE(store.get(session, key, &value)) << key;
            EXPECT_EQ(value, key * 7);
        }
    }
    store.closeSession(session);
}

TEST_F(WalTest, BatchAndTwoPhaseWritesSurviveReopen)
{
    {
        KvStore store(durableStore(4));
        auto session = store.openSession();
        KvStore::Batch batch;
        for (std::uint64_t k = 1000; k < 1100; ++k)
            batch.put(k, k + 5);
        batch.del(1001);
        ASSERT_TRUE(store.applyBatch(session, batch));

        // Cross-shard 2PC transfers; adds must replay as computed
        // post-images, not re-execute.
        for (int round = 0; round < 10; ++round) {
            std::vector<KvOp> ops;
            ops.push_back({KvOp::Kind::kAdd, 1000, 10, false});
            ops.push_back(
                {KvOp::Kind::kAdd, 1099,
                 static_cast<std::uint64_t>(-10), false});
            ASSERT_TRUE(store.multiOp(session, ops));
        }
        store.closeSession(session);
    }
    KvStore store(durableStore(4));
    auto session = store.openSession();
    std::uint64_t value = 0;
    ASSERT_TRUE(store.get(session, 1000, &value));
    EXPECT_EQ(value, 1005u + 100u);
    ASSERT_TRUE(store.get(session, 1099, &value));
    EXPECT_EQ(value, 1104u - 100u);
    EXPECT_FALSE(store.get(session, 1001, &value));
    for (std::uint64_t k = 1002; k < 1099; ++k) {
        ASSERT_TRUE(store.get(session, k, &value));
        EXPECT_EQ(value, k + 5);
    }
    store.closeSession(session);
}

TEST_F(WalTest, BatchCoalescesFsyncsPerShard)
{
    KvStore store(durableStore(4, Durability::kFsyncGroup));
    auto session = store.openSession();

    // Reference: N single-key durable puts pay one fsync each
    // (appendAndBarrier per op; nothing to group on one thread).
    constexpr std::uint64_t kOps = 64;
    const std::uint64_t fsyncs0 =
        store.telemetry().value("wal_fsyncs");
    for (std::uint64_t k = 0; k < kOps; ++k)
        ASSERT_TRUE(store.put(session, 10'000 + k, k));
    const std::uint64_t fsyncs1 =
        store.telemetry().value("wal_fsyncs");
    EXPECT_GE(fsyncs1 - fsyncs0, kOps);

    // The same op count as ONE batch: the barrier pass runs after
    // every slice appended — at most one fsync per touched shard,
    // never one per slice (let alone per op).
    KvStore::Batch batch;
    for (std::uint64_t k = 0; k < kOps; ++k)
        batch.put(20'000 + k, k);
    ASSERT_TRUE(store.applyBatch(session, batch));
    const std::uint64_t fsyncs2 =
        store.telemetry().value("wal_fsyncs");
    EXPECT_GE(fsyncs2 - fsyncs1, 1u);
    EXPECT_LE(fsyncs2 - fsyncs1, 4u);

    store.closeSession(session);
}

TEST_F(WalTest, GrowRetryBatchStillRidesOneBarrier)
{
    {
        KvStore store(durableStore(1, Durability::kFsyncGroup));
        auto session = store.openSession();
        // One oversized batch against the 2^10-slot table must
        // space-fail, grow and retry — several WAL appends on the
        // shard, still exactly ONE fsync for the whole batch.
        const std::uint64_t fsyncs0 =
            store.telemetry().value("wal_fsyncs");
        KvStore::Batch batch;
        for (std::uint64_t k = 0; k < 1500; ++k)
            batch.put(k + 1, k * 3);
        ASSERT_TRUE(store.applyBatch(session, batch));
        const std::uint64_t fsyncs1 =
            store.telemetry().value("wal_fsyncs");
        EXPECT_EQ(fsyncs1 - fsyncs0, 1u);
        store.closeSession(session);
    }
    // The coalesced barrier still made everything durable.
    KvStore store(durableStore(1, Durability::kFsyncGroup));
    auto session = store.openSession();
    std::uint64_t value = 0;
    for (std::uint64_t k = 0; k < 1500; k += 97) {
        ASSERT_TRUE(store.get(session, k + 1, &value)) << "key " << k;
        EXPECT_EQ(value, k * 3);
    }
    store.closeSession(session);
}

TEST_F(WalTest, CheckpointTruncatesLogAndPreservesData)
{
    {
        KvStore store(durableStore(2));
        auto session = store.openSession();
        for (std::uint64_t k = 1; k <= 500; ++k)
            ASSERT_TRUE(store.put(session, k, k));
        store.checkpoint(session);
        store.closeSession(session);
    }
    // After the checkpoint, replay needs no records — the image
    // carries everything (the post-checkpoint log is empty).
    KvStore store(durableStore(2));
    EXPECT_EQ(store.recoveryInfo().replayedRecords, 0u);
    EXPECT_GE(store.recoveryInfo().checkpointEntries, 500u);
    auto session = store.openSession();
    std::uint64_t value = 0;
    for (std::uint64_t k = 1; k <= 500; ++k) {
        ASSERT_TRUE(store.get(session, k, &value));
        EXPECT_EQ(value, k);
    }
    store.closeSession(session);
}

TEST_F(WalTest, CheckpointSurvivesConcurrentWriters)
{
    KvStore store(durableStore(2));
    auto writer_session = store.openSession();
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        std::uint64_t k = 10000;
        while (!stop.load(std::memory_order_relaxed)) {
            store.put(writer_session, k, k);
            ++k;
        }
    });
    auto session = store.openSession();
    for (std::uint64_t k = 1; k <= 100; ++k)
        ASSERT_TRUE(store.put(session, k, k * 3));
    for (int i = 0; i < 5; ++i)
        store.checkpoint(session);
    stop.store(true);
    writer.join();
    std::uint64_t value = 0;
    for (std::uint64_t k = 1; k <= 100; ++k) {
        ASSERT_TRUE(store.get(session, k, &value));
        EXPECT_EQ(value, k * 3);
    }
    store.closeSession(session);
    store.closeSession(writer_session);
}

/** The torn-tail fixtures write through a 1-shard store so every
 *  record lands in one segment file we can then mutilate. */
class WalTornTailTest : public WalTest
{
  protected:
    void
    seed()
    {
        KvStore store(durableStore(1));
        auto session = store.openSession();
        for (std::uint64_t k = 1; k <= 100; ++k)
            ASSERT_TRUE(store.put(session, k, k * 10));
        store.closeSession(session);
    }

    fs::path
    newestSegment()
    {
        fs::path best;
        std::uint64_t best_gen = 0;
        for (const auto &entry : fs::directory_iterator(dir_)) {
            const std::string name = entry.path().filename().string();
            std::uint64_t gen = 0;
            if (std::sscanf(name.c_str(), "wal-0-%lu.log", &gen) == 1 &&
                gen >= best_gen && fs::file_size(entry.path()) > 0) {
                best_gen = gen;
                best = entry.path();
            }
        }
        EXPECT_FALSE(best.empty());
        return best;
    }

    /** Keys still readable after reopen, in [1, 100]. */
    std::vector<std::uint64_t>
    survivingKeys(KvStore &store)
    {
        std::vector<std::uint64_t> keys;
        auto session = store.openSession();
        std::uint64_t value = 0;
        for (std::uint64_t k = 1; k <= 100; ++k) {
            if (store.get(session, k, &value)) {
                EXPECT_EQ(value, k * 10) << "key " << k;
                keys.push_back(k);
            }
        }
        store.closeSession(session);
        return keys;
    }
};

TEST_F(WalTornTailTest, TrailingGarbageIsIgnored)
{
    seed();
    {
        std::ofstream out(newestSegment(),
                          std::ios::binary | std::ios::app);
        out << "garbage-that-is-not-a-frame";
    }
    KvStore store(durableStore(1));
    EXPECT_EQ(survivingKeys(store).size(), 100u);
    EXPECT_GT(store.recoveryInfo().tornBytes, 0u);
}

TEST_F(WalTornTailTest, TruncatedTailLosesOnlyTheTail)
{
    seed();
    const fs::path seg = newestSegment();
    fs::resize_file(seg, fs::file_size(seg) - 5);
    KvStore store(durableStore(1));
    const auto keys = survivingKeys(store);
    ASSERT_FALSE(keys.empty());
    EXPECT_LT(keys.size(), 100u);
    // Consistent prefix: exactly keys 1..N.
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(keys[i], i + 1);
}

TEST_F(WalTornTailTest, BitFlipTruncatesToConsistentPrefix)
{
    seed();
    const fs::path seg = newestSegment();
    const auto size = static_cast<std::size_t>(fs::file_size(seg));
    {
        std::fstream f(seg, std::ios::binary | std::ios::in |
                                std::ios::out);
        f.seekg(static_cast<std::streamoff>(size / 2));
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(static_cast<std::streamoff>(size / 2));
        f.write(&byte, 1);
    }
    KvStore store(durableStore(1));
    EXPECT_GT(store.recoveryInfo().tornBytes, 0u);
    const auto keys = survivingKeys(store);
    EXPECT_LT(keys.size(), 100u);
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(keys[i], i + 1);
}

TEST_F(WalTornTailTest, InDoubtPrepareIsAbortedWithoutOutcome)
{
    seed();
    // A prepare whose outcome was never logged anywhere: recovery
    // must drop it (it was never acknowledged).
    wal::Record prep;
    prep.type = wal::RecordType::kTxnPrepare;
    prep.txid = 424242;
    prep.lsn = std::uint64_t{1} << 40; // past every real ticket
    prep.ops.push_back(
        {wal::WalOp::Kind::kPut, 55555, 1, 0, {}});
    std::string frame;
    wal::encodeRecord(prep, &frame);
    {
        std::ofstream out(newestSegment(),
                          std::ios::binary | std::ios::app);
        out.write(frame.data(),
                  static_cast<std::streamsize>(frame.size()));
    }
    KvStore store(durableStore(1));
    EXPECT_GE(store.recoveryInfo().inDoubtAborted, 1u);
    auto session = store.openSession();
    std::uint64_t value = 0;
    EXPECT_FALSE(store.get(session, 55555, &value));
    store.closeSession(session);
}

TEST_F(WalTornTailTest, PrepareWithLoggedOutcomeCommits)
{
    seed();
    wal::Record prep;
    prep.type = wal::RecordType::kTxnPrepare;
    prep.txid = 434343;
    prep.lsn = std::uint64_t{1} << 40;
    prep.ops.push_back(
        {wal::WalOp::Kind::kPut, 66666, 99, 0, {}});
    wal::Record outcome;
    outcome.type = wal::RecordType::kTxnOutcome;
    outcome.txid = 434343;
    outcome.commitSeq = 1u << 20;
    outcome.committed = true;
    std::string frames;
    wal::encodeRecord(prep, &frames);
    wal::encodeRecord(outcome, &frames);
    {
        std::ofstream out(newestSegment(),
                          std::ios::binary | std::ios::app);
        out.write(frames.data(),
                  static_cast<std::streamsize>(frames.size()));
    }
    KvStore store(durableStore(1));
    auto session = store.openSession();
    std::uint64_t value = 0;
    ASSERT_TRUE(store.get(session, 66666, &value));
    EXPECT_EQ(value, 99u);
    store.closeSession(session);
}

/** Fault-armed failure-ladder tests. Fault points are process-global,
 *  so every test disarms on the way out. */
class WalFaultTest : public WalTest
{
  protected:
    void
    TearDown() override
    {
        fault::disarmAll();
        WalTest::TearDown();
    }

    static fault::FaultSpec
    once(int err)
    {
        fault::FaultSpec spec;
        spec.trigger = fault::FaultSpec::Trigger::kOnce;
        spec.err = err;
        return spec;
    }
};

TEST_F(WalFaultTest, FollowerNeverAcksAfterLeaderFsyncLoss)
{
    fs::create_directories(dir_);
    wal::ShardWal wal((dir_ / "wal-0-1.log").string(),
                      Durability::kFsyncGroup, 1 << 20,
                      wal::WalObs{});
    wal::Record rec;
    rec.lsn = 1;
    rec.ops.push_back({wal::WalOp::Kind::kPut, 1, 10, 0, {}});
    const wal::AppendResult first = wal.append(rec);
    ASSERT_EQ(first.err, wal::WalError::kOk);

    fault::arm("wal.fsync", once(EIO));
    // Leader: the injected fdatasync failure poisons the range of
    // bytes whose durability is now indeterminate.
    EXPECT_EQ(wal.barrier(first.end), wal::WalError::kSyncLoss);
    // A follower arriving over the same range must observe the loss
    // and never ack — the covered-check runs after the poison check.
    EXPECT_EQ(wal.barrier(first.end), wal::WalError::kSyncLoss);
    EXPECT_EQ(wal.status(), wal::WalError::kSyncLoss);
    EXPECT_TRUE(wal.canRescue());
    EXPECT_GT(wal.lostBytes(), 0u);

    // Sticky: appends fail fast while unrescued.
    rec.lsn = 2;
    EXPECT_EQ(wal.append(rec).err, wal::WalError::kSyncLoss);

    // One-shot rescue: a fresh segment acks normally again...
    ASSERT_EQ(wal.rotateFresh((dir_ / "wal-0-2.log").string()),
              wal::WalError::kOk);
    EXPECT_EQ(wal.status(), wal::WalError::kOk);
    EXPECT_FALSE(wal.canRescue());
    rec.lsn = 3;
    const wal::AppendResult fresh = wal.append(rec);
    ASSERT_EQ(fresh.err, wal::WalError::kOk);
    EXPECT_EQ(wal.barrier(fresh.end), wal::WalError::kOk);
    // ...but the poisoned range stays un-ackable forever (fsyncgate:
    // the failed sync is never re-asserted, even after later syncs).
    EXPECT_EQ(wal.barrier(first.end), wal::WalError::kSyncLoss);
}

TEST_F(WalFaultTest, EnospcAtSpillDegradesStoreToReadOnly)
{
    KvStoreOptions options = durableStore(1);
    options.walFlushBytes = 64; // batch records spill inside append()
    KvStore store(options);
    auto session = store.openSession();
    for (std::uint64_t k = 1; k <= 20; ++k)
        ASSERT_TRUE(store.put(session, k, k * 3));
    store.flushWal();

    fault::arm("wal.spill.write", once(ENOSPC));
    KvStore::Batch batch;
    for (std::uint64_t k = 100; k < 150; ++k)
        batch.put(k, k);
    const KvResult failed = store.applyBatch(session, batch);
    ASSERT_FALSE(failed);
    EXPECT_EQ(failed.status, KvStatus::kReadOnly);
    EXPECT_EQ(store.health(), Health::kDegradedReadOnly);

    // Fail-fast gate: later writes bounce before touching the WAL.
    const KvResult gated = store.put(session, 999, 1);
    EXPECT_EQ(gated.status, KvStatus::kReadOnly);
    const auto snapshot = store.telemetry();
    EXPECT_GE(snapshot.value("writes_rejected"), 1u);
    EXPECT_GE(snapshot.value("wal_errors"), 1u);
    EXPECT_EQ(snapshot.value("health_state"), 1u);
    EXPECT_GE(snapshot.value("health_transitions"), 1u);

    // Reads keep serving the acked prefix.
    std::uint64_t value = 0;
    for (std::uint64_t k = 1; k <= 20; ++k) {
        ASSERT_TRUE(store.get(session, k, &value));
        EXPECT_EQ(value, k * 3);
    }
    store.closeSession(session);
}

TEST_F(WalFaultTest, FsyncLossRescuesOntoFreshGeneration)
{
    {
        KvStore store(durableStore(1, Durability::kFsyncGroup));
        auto session = store.openSession();
        for (std::uint64_t k = 1; k <= 50; ++k)
            ASSERT_TRUE(store.put(session, k, k + 7));

        fault::arm("wal.fsync", once(EIO));
        const KvResult lost = store.put(session, 500, 1);
        ASSERT_FALSE(lost);
        EXPECT_EQ(lost.status, KvStatus::kWalError);
        // One-shot rescue: the shard rotated onto a fresh generation
        // and stays healthy; the poisoned write was never acked.
        EXPECT_EQ(store.health(), Health::kHealthy);
        EXPECT_EQ(store.telemetry().value("wal_rescues"), 1u);
        EXPECT_GT(store.telemetry().value("wal_lost_bytes"), 0u);

        // Post-rescue writes ack normally...
        ASSERT_TRUE(store.put(session, 501, 2));

        // ...but the rescue is one-shot: a second sync loss degrades.
        fault::arm("wal.fsync", once(EIO));
        const KvResult second = store.put(session, 502, 3);
        ASSERT_FALSE(second);
        EXPECT_EQ(store.health(), Health::kDegradedReadOnly);
        std::uint64_t value = 0;
        ASSERT_TRUE(store.get(session, 10, &value));
        EXPECT_EQ(value, 17u);
        store.closeSession(session);
    }
    // Every acked write survives reopen; the un-acked keys (500, 502)
    // are of indeterminate durability and asserted neither way.
    KvStore store(durableStore(1, Durability::kFsyncGroup));
    auto session = store.openSession();
    std::uint64_t value = 0;
    for (std::uint64_t k = 1; k <= 50; ++k) {
        ASSERT_TRUE(store.get(session, k, &value)) << "key " << k;
        EXPECT_EQ(value, k + 7);
    }
    ASSERT_TRUE(store.get(session, 501, &value));
    EXPECT_EQ(value, 2u);
    store.closeSession(session);
}

TEST_F(WalFaultTest, ShortWriteTearsTailAndRecoveryTruncates)
{
    {
        KvStore store(durableStore(1));
        auto session = store.openSession();
        for (std::uint64_t k = 1; k <= 50; ++k)
            ASSERT_TRUE(store.put(session, k, k * 10));

        fault::FaultSpec spec = once(EIO);
        spec.arg = 3; // three real bytes reach the fd, then the error
        fault::arm("wal.append.short_write", spec);
        const KvResult torn = store.put(session, 51, 510);
        ASSERT_FALSE(torn);
        EXPECT_EQ(torn.status, KvStatus::kWalError);
        // EIO on write is unrescuable: the store declares itself
        // failed but still serves reads over the in-memory state.
        EXPECT_EQ(store.health(), Health::kFailed);
        EXPECT_GE(store.telemetry().value("wal_lost_bytes"), 1u);
        std::uint64_t value = 0;
        ASSERT_TRUE(store.get(session, 7, &value));
        EXPECT_EQ(value, 70u);
        EXPECT_EQ(store.put(session, 52, 1).status,
                  KvStatus::kReadOnly);
        store.closeSession(session);
    }
    // Recovery truncates the genuinely-torn frame and keeps exactly
    // the acked prefix.
    KvStore store(durableStore(1));
    EXPECT_GT(store.recoveryInfo().tornBytes, 0u);
    auto session = store.openSession();
    std::uint64_t value = 0;
    for (std::uint64_t k = 1; k <= 50; ++k) {
        ASSERT_TRUE(store.get(session, k, &value)) << "key " << k;
        EXPECT_EQ(value, k * 10);
    }
    EXPECT_FALSE(store.get(session, 51, &value));
    store.closeSession(session);
}

TEST_F(WalFaultTest, RecoveryFallsBackToPreviousCheckpointGeneration)
{
    {
        KvStore store(durableStore(1));
        auto session = store.openSession();
        for (std::uint64_t k = 1; k <= 50; ++k)
            ASSERT_TRUE(store.put(session, k, k + 1));
        ASSERT_TRUE(store.checkpoint(session));
        for (std::uint64_t k = 51; k <= 80; ++k)
            ASSERT_TRUE(store.put(session, k, k + 1));
        ASSERT_TRUE(store.checkpoint(session));
        store.closeSession(session);
    }
    // Retention keeps the previous checkpoint generation (and the
    // segments since it) as recovery fallback; find and corrupt the
    // newest image.
    fs::path newest;
    std::uint64_t best_gen = 0;
    int ckpt_files = 0;
    for (const auto &entry : fs::directory_iterator(dir_)) {
        const std::string name = entry.path().filename().string();
        std::uint64_t gen = 0;
        if (std::sscanf(name.c_str(), "ckpt-0-%lu.dat", &gen) != 1)
            continue;
        ++ckpt_files;
        if (gen > best_gen) {
            best_gen = gen;
            newest = entry.path();
        }
    }
    ASSERT_GE(ckpt_files, 2) << "retention must keep a fallback image";
    ASSERT_FALSE(newest.empty());
    const auto size =
        static_cast<std::size_t>(fs::file_size(newest));
    {
        std::fstream f(newest, std::ios::binary | std::ios::in |
                                   std::ios::out);
        f.seekg(static_cast<std::streamoff>(size / 2));
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x10);
        f.seekp(static_cast<std::streamoff>(size / 2));
        f.write(&byte, 1);
    }
    KvStore store(durableStore(1));
    // Fallback proof: the state came from the OLD image (50 entries)
    // plus replay of the segments written after it.
    EXPECT_EQ(store.recoveryInfo().checkpointEntries, 50u);
    EXPECT_GE(store.recoveryInfo().replayedRecords, 30u);
    auto session = store.openSession();
    std::uint64_t value = 0;
    for (std::uint64_t k = 1; k <= 80; ++k) {
        ASSERT_TRUE(store.get(session, k, &value)) << "key " << k;
        EXPECT_EQ(value, k + 1);
    }
    store.closeSession(session);
}

TEST_F(WalFaultTest, CheckpointWriteFailureKeepsStoreServing)
{
    {
        KvStore store(durableStore(2));
        auto session = store.openSession();
        for (std::uint64_t k = 1; k <= 60; ++k)
            ASSERT_TRUE(store.put(session, k, k * 2));
        fault::arm("ckpt.write", once(EIO));
        EXPECT_FALSE(store.checkpoint(session));
        EXPECT_GE(store.telemetry().value("checkpoint_failures"), 1u);
        // A failed checkpoint is not a log failure: the WAL keeps
        // acking and health stays green (only ENOSPC degrades here).
        EXPECT_EQ(store.health(), Health::kHealthy);
        ASSERT_TRUE(store.put(session, 61, 122));
        store.closeSession(session);
    }
    KvStore store(durableStore(2));
    auto session = store.openSession();
    std::uint64_t value = 0;
    for (std::uint64_t k = 1; k <= 61; ++k) {
        ASSERT_TRUE(store.get(session, k, &value)) << "key " << k;
        EXPECT_EQ(value, k * 2);
    }
    store.closeSession(session);
}

TEST_F(WalTest, WalTelemetryCountersFlow)
{
    KvStoreOptions options = durableStore(2, Durability::kFsyncGroup);
    options.telemetry = true;
    KvStore store(options);
    auto session = store.openSession();
    for (std::uint64_t k = 1; k <= 50; ++k)
        ASSERT_TRUE(store.put(session, k, k));
    store.closeSession(session);
    const auto snapshot = store.telemetry();
    EXPECT_GE(snapshot.value("wal_appends"), 50u);
    EXPECT_GT(snapshot.value("wal_bytes"), 0u);
    EXPECT_GE(snapshot.value("wal_fsyncs"), 1u);
    const auto *fsync_hist = snapshot.find("wal_fsync_nanos");
    ASSERT_NE(fsync_hist, nullptr);
    EXPECT_GE(fsync_hist->hist.count(), 1u);
}

} // namespace
} // namespace proteus::kvstore
