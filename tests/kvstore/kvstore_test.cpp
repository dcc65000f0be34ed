/**
 * KvStore tests: deterministic shard routing, batch semantics, and —
 * the critical ones — atomicity of cross-shard multi-key transactions
 * observed by 8+ concurrent threads, and all-or-nothing table-full
 * aborts through the 2PC-over-TM intent protocol.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "kvstore/kvstore.hpp"
#include "kvstore/traffic.hpp"

namespace proteus::polytm {

// gtest prints each parameter into the test's listed name.
void
PrintTo(const TmConfig &config, std::ostream *os)
{
    *os << config.label();
}

} // namespace proteus::polytm

namespace proteus::kvstore {
namespace {

KvStoreOptions
smallStore(int shards, unsigned log2_slots = 10)
{
    KvStoreOptions options;
    options.numShards = shards;
    options.log2SlotsPerShard = log2_slots;
    // Parallelism degree high enough that every test session stays
    // enabled; degree-shrinking behaviour is covered by polytm tests.
    options.initial = {tm::BackendKind::kTl2, 16, {}};
    return options;
}

/** Like smallStore but with online growth disabled (the fixed-capacity
 *  stance the table-full semantics are specified against). */
KvStoreOptions
pinnedStore(int shards, unsigned log2_slots)
{
    KvStoreOptions options = smallStore(shards, log2_slots);
    options.maxLog2SlotsPerShard = log2_slots;
    return options;
}

/** HTM-fallback configuration: the emulated HTM with a zero retry
 *  budget begins every transaction on its fallback lock, whose writes
 *  go in place and roll back from its undo log. */
polytm::TmConfig
htmFallbackConfig()
{
    return {tm::BackendKind::kSimHtm, 16,
            {/*htmBudget=*/0, tm::CapacityPolicy::kDecrease}};
}

TEST(KvStoreTest, ShardRoutingIsDeterministicAndBalanced)
{
    KvStore a(smallStore(8));
    KvStore b(smallStore(8));

    std::vector<std::size_t> load(8, 0);
    for (std::uint64_t key = 0; key < 4096; ++key) {
        const std::size_t s = a.shardOf(key);
        ASSERT_LT(s, 8u);
        // Same key, same options => same shard, on any instance.
        EXPECT_EQ(s, b.shardOf(key));
        EXPECT_EQ(s, a.shardOf(key)) << "routing must be stable";
        ++load[s];
    }
    // 4096 uniform keys over 8 shards: each shard within 2x of fair.
    for (const std::size_t n : load) {
        EXPECT_GT(n, 4096u / 16) << "shard starved";
        EXPECT_LT(n, 4096u / 4) << "shard overloaded";
    }
}

TEST(KvStoreTest, OpsLandOnTheirHomeShardOnly)
{
    KvStore store(smallStore(4));
    auto session = store.openSession();

    for (std::uint64_t key = 0; key < 128; ++key)
        ASSERT_TRUE(store.put(session, key, key + 7));

    std::size_t total = 0;
    for (int s = 0; s < store.numShards(); ++s)
        total += store.shard(static_cast<std::size_t>(s)).sizeQuiesced();
    EXPECT_EQ(total, 128u);

    std::uint64_t value = 0;
    for (std::uint64_t key = 0; key < 128; ++key) {
        ASSERT_TRUE(store.get(session, key, &value));
        EXPECT_EQ(value, key + 7);
    }
    store.closeSession(session);
}

TEST(KvStoreTest, BatchAppliesAndReportsPerOpResults)
{
    KvStore store(smallStore(4));
    auto session = store.openSession();

    KvStore::Batch batch;
    for (std::uint64_t key = 0; key < 64; ++key)
        batch.put(key, key * 3);
    EXPECT_TRUE(store.applyBatch(session, batch));
    batch.clear();

    batch.get(10);
    batch.get(9999); // absent
    batch.del(11);
    EXPECT_TRUE(store.applyBatch(session, batch));
    EXPECT_TRUE(batch.ops()[0].ok);
    EXPECT_EQ(batch.ops()[0].value, 30u);
    EXPECT_FALSE(batch.ops()[1].ok);
    EXPECT_TRUE(batch.ops()[2].ok);
    EXPECT_FALSE(store.get(session, 11));

    store.closeSession(session);
}

/** Every backend at its default contention knobs, plus the emulated
 *  HTM forced onto its fallback lock. */
std::vector<polytm::TmConfig>
everyBackendAndHtmFallback()
{
    std::vector<polytm::TmConfig> configs;
    for (int k = 0; k < static_cast<int>(tm::BackendKind::kNumBackends);
         ++k)
        configs.push_back({static_cast<tm::BackendKind>(k), 16, {}});
    configs.push_back(htmFallbackConfig());
    return configs;
}

/** Where a shard's slice comes from: a batch, or a writing multiOp
 *  whose ops all land on one shard. Both run KvStore's one slice
 *  function. */
enum class SliceEntry
{
    kBatch,
    kMultiOp,
};

struct SliceCase
{
    polytm::TmConfig config;
    SliceEntry entry;
};

// gtest prints each parameter into the test's listed name.
void
PrintTo(const SliceCase &slice_case, std::ostream *os)
{
    *os << slice_case.config.label();
    if (slice_case.entry == SliceEntry::kMultiOp)
        *os << " multiOp";
}

/** Every backend and the HTM fallback, through both entry points. */
std::vector<SliceCase>
everySliceCase()
{
    std::vector<SliceCase> cases;
    for (const SliceEntry entry : {SliceEntry::kBatch, SliceEntry::kMultiOp}) {
        for (const polytm::TmConfig &config : everyBackendAndHtmFallback())
            cases.push_back({config, entry});
    }
    return cases;
}

/**
 * The slice contract on every backend, for batches and single-shard
 * writing multiOps alike: each shard's slice runs as one transaction
 * in program order and is all-or-nothing, across a grow and when
 * growth is capped; other shards' slices are independent.
 */
class BatchContractTest : public ::testing::TestWithParam<SliceCase>
{
  protected:
    KvStoreOptions
    withBackend(KvStoreOptions options) const
    {
        options.initial = GetParam().config;
        return options;
    }

    bool
    throughBatch() const
    {
        return GetParam().entry == SliceEntry::kBatch;
    }

    /**
     * Apply `batch`'s ops through the entry point under test: the
     * batch itself, or one single-shard writing multiOp per touched
     * shard, in shard order. Returns the first failure (else kOk);
     * `results` receives the ops with their outcomes, in batch order.
     */
    KvStatus
    apply(KvStore &store, KvStore::Session &session, KvStore::Batch &batch,
          std::vector<KvOp> *results) const
    {
        if (throughBatch()) {
            const KvStatus status = store.applyBatch(session, batch).status;
            *results = batch.ops();
            return status;
        }
        *results = batch.ops();
        KvStatus first_failure = KvStatus::kOk;
        for (int s = 0; s < store.numShards(); ++s) {
            const auto on_shard = [&](const KvOp &op) {
                return store.shardOf(op.key) == static_cast<std::size_t>(s);
            };
            std::vector<KvOp> slice;
            for (const KvOp &op : *results) {
                if (on_shard(op))
                    slice.push_back(op);
            }
            if (slice.empty())
                continue;
            const KvStatus status = store.multiOp(session, slice).status;
            if (first_failure == KvStatus::kOk)
                first_failure = status;
            auto next = slice.begin();
            for (KvOp &op : *results) {
                if (on_shard(op))
                    op = *next++;
            }
        }
        return first_failure;
    }
};

TEST_P(BatchContractTest, GrowKeepsProgramOrder)
{
    // 24 puts overflow the 16-slot shard mid-slice; the get and del
    // of the last key must still run after its put.
    KvStore store(withBackend(smallStore(1, 4)));
    auto session = store.openSession();

    KvStore::Batch batch;
    for (std::uint64_t key = 1; key <= 24; ++key)
        batch.put(key, key * 10);
    batch.get(24);
    batch.del(24);
    std::vector<KvOp> results;
    EXPECT_EQ(apply(store, session, batch, &results), KvStatus::kOk);
    EXPECT_TRUE(results[24].ok) << "get(24) must see put(24)";
    EXPECT_EQ(results[24].value, 240u);
    EXPECT_TRUE(results[25].ok) << "del(24) must find put(24)";

    EXPECT_FALSE(store.get(session, 24));
    std::uint64_t value = 0;
    for (std::uint64_t key = 1; key <= 23; ++key) {
        ASSERT_TRUE(store.get(session, key, &value)) << "key " << key;
        EXPECT_EQ(value, key * 10);
    }
    store.closeSession(session);
}

TEST_P(BatchContractTest, CappedSliceHasNoEffect)
{
    KvStore store(withBackend(pinnedStore(1, 4)));
    auto session = store.openSession();
    for (std::uint64_t key = 1; key <= 4; ++key)
        ASSERT_TRUE(store.put(session, key, key));
    const std::size_t live_before = store.shard(0).arena().bytesLive();

    // A delete and 20 wide puts: 12 free slots plus the tombstone the
    // delete would leave cannot hold them.
    KvStore::Batch batch;
    batch.del(1);
    for (std::uint64_t key = 101; key <= 120; ++key)
        batch.putBytes(key, std::string(100, static_cast<char>(key)));
    std::vector<KvOp> results;
    EXPECT_EQ(apply(store, session, batch, &results), KvStatus::kNoSpace);

    // A failed multiOp leaves its ops' fields unspecified.
    if (throughBatch()) {
        for (const KvOp &op : results)
            EXPECT_FALSE(op.ok) << "op on key " << op.key;
    }
    EXPECT_TRUE(store.get(session, 1)) << "the delete must not apply";
    std::string out;
    for (std::uint64_t key = 101; key <= 120; ++key)
        EXPECT_FALSE(store.getBytes(session, key, &out)) << "key " << key;
    EXPECT_EQ(store.shard(0).arena().bytesLive(), live_before)
        << "every staged blob must be freed";
    store.closeSession(session);
}

TEST_P(BatchContractTest, CappedShardLeavesOtherSlicesApplied)
{
    KvStore store(withBackend(pinnedStore(2, 4)));
    auto session = store.openSession();

    std::uint64_t key = 1000;
    const auto next_on_shard = [&](std::size_t shard) {
        while (store.shardOf(key) != shard)
            ++key;
        return key++;
    };
    for (std::size_t i = 0; i < store.shard(1).capacity(); ++i)
        ASSERT_TRUE(store.put(session, next_on_shard(1), i));

    KvStore::Batch batch;
    std::vector<std::uint64_t> fitting;
    std::vector<std::uint64_t> overflowing;
    for (int i = 0; i < 4; ++i) {
        fitting.push_back(next_on_shard(0));
        batch.put(fitting.back(), 7);
        overflowing.push_back(next_on_shard(1));
        batch.put(overflowing.back(), 8);
    }
    std::vector<KvOp> results;
    EXPECT_EQ(apply(store, session, batch, &results), KvStatus::kNoSpace);

    // Atomic per shard, not across shards. The failed multiOp (shard
    // 1's) leaves its ops' fields unspecified.
    for (const KvOp &op : results) {
        const bool applied = store.shardOf(op.key) == 0;
        if (throughBatch() || applied) {
            EXPECT_EQ(op.ok, applied) << "key " << op.key;
        }
    }
    for (const std::uint64_t k : fitting)
        EXPECT_TRUE(store.get(session, k)) << "key " << k;
    for (const std::uint64_t k : overflowing)
        EXPECT_FALSE(store.get(session, k)) << "key " << k;
    store.closeSession(session);
}

INSTANTIATE_TEST_SUITE_P(
    EveryBackend, BatchContractTest, ::testing::ValuesIn(everySliceCase()),
    [](const ::testing::TestParamInfo<SliceCase> &info) {
        std::string name = info.param.config.label();
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        if (info.param.entry == SliceEntry::kMultiOp)
            name += "_multiOp";
        return name;
    });

TEST(KvStoreTest, BatchesGrowALargeTableWithinTwoSteps)
{
    // 2^16 slots: a batch slice holds its new slots back in the
    // writer's record like a single-key put does (up to a step of 8),
    // so batches of 3 puts grow the table at most two steps past the
    // 70% mark, never before it.
    constexpr std::uint64_t kSlots = std::uint64_t{1} << 16;
    KvStore store(smallStore(1, 16));
    const std::uint64_t step = Shard::consumedStep(kSlots);
    ASSERT_EQ(step, 8u);
    const std::uint64_t mark = (kSlots * 70 + 99) / 100;
    auto session = store.openSession();

    std::uint64_t inserted = 0;
    KvStore::Batch batch;
    while (store.shard(0).growCount() == 0 && inserted < kSlots) {
        batch.clear();
        for (int i = 0; i < 3; ++i) {
            ++inserted;
            batch.put(inserted, inserted);
        }
        ASSERT_EQ(store.applyBatch(session, batch).status, KvStatus::kOk);
    }
    EXPECT_GE(inserted, mark);
    EXPECT_LE(inserted, mark + 2 * step);
    store.closeSession(session);
}

TEST(KvStoreTest, OpenSessionFailureLeaksNoRegistrations)
{
    KvStore store(smallStore(2, 8));

    // Exhaust shard 1's thread slots only, so openSession registers
    // with shard 0 and then fails on shard 1.
    std::vector<polytm::ThreadToken> extra;
    while (store.shard(1).poly().registeredThreads() < tm::kMaxThreads)
        extra.push_back(store.shard(1).registerWorker());

    // Every failed openSession must give back its shard-0 slot; if it
    // leaked, 70 failures would exhaust shard 0 (64 slots) too.
    for (int i = 0; i < 70; ++i)
        EXPECT_THROW(store.openSession(), std::runtime_error);

    for (auto &token : extra)
        store.shard(1).deregisterWorker(token);
    auto session = store.openSession();
    EXPECT_TRUE(store.put(session, 1, 2));
    store.closeSession(session);
}

TEST(KvStoreTest, MultiOpReadsAndWritesAcrossShards)
{
    KvStore store(smallStore(4, 10));
    auto session = store.openSession();

    std::vector<KvOp> ops;
    for (std::uint64_t key = 0; key < 16; ++key)
        ops.push_back({KvOp::Kind::kPut, key, key + 100, false});
    EXPECT_TRUE(store.multiOp(session, ops));

    ops.clear();
    for (std::uint64_t key = 0; key < 16; ++key)
        ops.push_back({KvOp::Kind::kGet, key, 0, false});
    EXPECT_TRUE(store.multiOp(session, ops));
    for (std::uint64_t key = 0; key < 16; ++key) {
        EXPECT_TRUE(ops[key].ok);
        EXPECT_EQ(ops[key].value, key + 100);
    }
    store.closeSession(session);
}

TEST(KvStoreTest, MultiOpSeesItsOwnWrites)
{
    KvStore store(smallStore(4, 10));
    auto session = store.openSession();
    ASSERT_TRUE(store.put(session, 5, 50));

    // put(5, 77); get(5); del(7-absent); put(9, 90); get(9) — the
    // reads must observe the composite's own uncommitted writes.
    std::vector<KvOp> ops;
    ops.push_back({KvOp::Kind::kPut, 5, 77, false});
    ops.push_back({KvOp::Kind::kGet, 5, 0, false});
    ops.push_back({KvOp::Kind::kDel, 7, 0, false});
    ops.push_back({KvOp::Kind::kPut, 9, 90, false});
    ops.push_back({KvOp::Kind::kGet, 9, 0, false});
    EXPECT_TRUE(store.multiOp(session, ops));
    EXPECT_TRUE(ops[1].ok);
    EXPECT_EQ(ops[1].value, 77u);
    EXPECT_FALSE(ops[2].ok);
    EXPECT_TRUE(ops[4].ok);
    EXPECT_EQ(ops[4].value, 90u);

    std::uint64_t value = 0;
    ASSERT_TRUE(store.get(session, 5, &value));
    EXPECT_EQ(value, 77u);
    ASSERT_TRUE(store.get(session, 9, &value));
    EXPECT_EQ(value, 90u);
    store.closeSession(session);
}

/**
 * All-or-nothing table-full scenario, shared by the TL2 and
 * HTM-fallback variants, on stores with growth
 * pinned off. 2 shards of 16 slots each: fill shard 1 to capacity,
 * keep one known key on shard 0, then run multiOps whose inserts
 * cannot fit — every already-applied part must roll back, both across
 * shards and on the single-shard fast path.
 */
void
runTableFullScenario(KvStoreOptions options)
{
    KvStore store(options);
    auto session = store.openSession();

    std::uint64_t key = 1000;
    const auto next_on_shard = [&](std::size_t shard) {
        while (store.shardOf(key) != shard)
            ++key;
        return key++;
    };

    const std::uint64_t witness = next_on_shard(0);
    ASSERT_TRUE(store.put(session, witness, 111));
    std::vector<std::uint64_t> fillers;
    for (std::size_t i = 0; i < store.shard(1).capacity(); ++i) {
        fillers.push_back(next_on_shard(1));
        ASSERT_TRUE(store.put(session, fillers.back(), i))
            << "filler " << i << " should fit";
    }
    const std::uint64_t overflow = next_on_shard(1);

    // Cross-shard: shard 0's overwrite applies first, shard 1 fails.
    std::vector<KvOp> ops;
    ops.push_back({KvOp::Kind::kPut, witness, 999, false});
    ops.push_back({KvOp::Kind::kPut, overflow, 42, false});
    EXPECT_FALSE(store.multiOp(session, ops)) << "insert cannot fit";

    std::uint64_t value = 0;
    ASSERT_TRUE(store.get(session, witness, &value));
    EXPECT_EQ(value, 111u) << "shard-0 overwrite must be rolled back";
    EXPECT_FALSE(store.get(session, overflow));

    // Single-shard fast path: overwrite + impossible insert on the
    // full shard itself.
    const std::uint64_t overflow2 = next_on_shard(1);
    ops.clear();
    ops.push_back({KvOp::Kind::kPut, fillers[0], 888, false});
    ops.push_back({KvOp::Kind::kPut, overflow2, 43, false});
    EXPECT_FALSE(store.multiOp(session, ops)) << "insert cannot fit";
    EXPECT_FALSE(store.get(session, overflow2));

    for (std::size_t i = 0; i < fillers.size(); ++i) {
        ASSERT_TRUE(store.get(session, fillers[i], &value));
        EXPECT_EQ(value, i) << "filler " << i << " must be untouched";
    }

    // The store must not be wedged: shard 0 still accepts writes, and
    // overwrites of existing shard-1 keys still work.
    EXPECT_TRUE(store.put(session, witness, 123));
    EXPECT_TRUE(store.put(session, fillers[0], 321));
    store.closeSession(session);
}

TEST(KvStoreTest, TableFullMultiOpAbortsAllOrNothing)
{
    runTableFullScenario(pinnedStore(2, 4));
}

TEST(KvStoreTest, TableFullAbortIsCleanOnHtmFallback)
{
    // The fallback writes in place; the table-full aborts rely on its
    // undo log to restore memory.
    KvStoreOptions options = pinnedStore(2, 4);
    options.initial = htmFallbackConfig();
    runTableFullScenario(options);
}

TEST(KvStoreTest, TransfersStayAtomicOnHtmFallback)
{
    // Smoke the pending-intent wait/fold paths on the in-place
    // fallback, where waiting out an intent rolls writes back from
    // the undo log: concurrent transfers + snapshots must still
    // conserve the total.
    constexpr std::uint64_t kKeys = 32;
    constexpr std::uint64_t kInitial = 100;
    constexpr int kWriters = 3;
    constexpr int kTransfers = 200;

    KvStoreOptions options = smallStore(4, 10);
    options.initial = htmFallbackConfig();
    KvStore store(options);
    {
        auto session = store.openSession();
        for (std::uint64_t key = 0; key < kKeys; ++key)
            ASSERT_TRUE(store.put(session, key, kInitial));
        store.closeSession(session);
    }

    std::atomic<int> writers_done{0};
    std::atomic<bool> violation{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            auto session = store.openSession();
            Rng rng(5100 + static_cast<unsigned>(w));
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
    threads.emplace_back([&] {
        auto session = store.openSession();
        std::vector<KvOp> snapshot;
        while (writers_done.load() < kWriters && !violation.load()) {
            snapshot.clear();
            for (std::uint64_t key = 0; key < kKeys; ++key)
                snapshot.push_back({KvOp::Kind::kGet, key, 0, false});
            store.multiOp(session, snapshot);
            std::uint64_t total = 0;
            for (const KvOp &op : snapshot)
                total += op.ok ? op.value : 0;
            if (total != kKeys * kInitial)
                violation.store(true);
        }
        store.closeSession(session);
    });
    for (auto &thread : threads)
        thread.join();
    EXPECT_FALSE(violation.load())
        << "a reader observed a torn transfer on the global-lock "
           "backend";
}

TEST(KvStoreTest, MultiShardTransfersStayAtomicUnder8Threads)
{
    // Bank invariant: kKeys accounts start at kInitial each; writers
    // move random amounts between random accounts with cross-shard
    // kAdd multiOps; readers snapshot all accounts with a read-only
    // multiOp and must always observe the exact total.
    constexpr std::uint64_t kKeys = 64;
    constexpr std::uint64_t kInitial = 1000;
    constexpr int kWriters = 6;
    constexpr int kReaders = 2;
    constexpr int kTransfersPerWriter = 400;

    KvStore store(smallStore(4, 10));
    {
        auto session = store.openSession();
        for (std::uint64_t key = 0; key < kKeys; ++key)
            ASSERT_TRUE(store.put(session, key, kInitial));
        store.closeSession(session);
    }

    std::atomic<int> writers_done{0};
    std::atomic<bool> violation{false};
    std::vector<std::thread> threads;

    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            auto session = store.openSession();
            Rng rng(7000 + static_cast<unsigned>(w));
            std::vector<KvOp> ops;
            for (int i = 0; i < kTransfersPerWriter; ++i) {
                const std::uint64_t from = rng.nextBounded(kKeys);
                std::uint64_t to = rng.nextBounded(kKeys);
                if (to == from)
                    to = (to + 1) % kKeys;
                const std::int64_t amount =
                    static_cast<std::int64_t>(rng.nextBounded(5)) + 1;
                ops.clear();
                ops.push_back({KvOp::Kind::kAdd, from,
                               static_cast<std::uint64_t>(-amount),
                               false});
                ops.push_back({KvOp::Kind::kAdd, to,
                               static_cast<std::uint64_t>(amount),
                               false});
                store.multiOp(session, ops);
            }
            store.closeSession(session);
            writers_done.fetch_add(1);
        });
    }

    for (int r = 0; r < kReaders; ++r) {
        threads.emplace_back([&] {
            auto session = store.openSession();
            std::vector<KvOp> snapshot;
            while (writers_done.load() < kWriters &&
                   !violation.load()) {
                snapshot.clear();
                for (std::uint64_t key = 0; key < kKeys; ++key)
                    snapshot.push_back(
                        {KvOp::Kind::kGet, key, 0, false});
                store.multiOp(session, snapshot);
                std::uint64_t total = 0;
                for (const KvOp &op : snapshot)
                    total += op.ok ? op.value : 0;
                if (total != kKeys * kInitial)
                    violation.store(true);
            }
            store.closeSession(session);
        });
    }

    for (auto &thread : threads)
        thread.join();
    EXPECT_FALSE(violation.load())
        << "a reader observed a torn cross-shard transfer";

    // Final balance check, single-threaded.
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

TEST(KvStoreTest, SingleKeyOpsRaceMultiOpsWithoutCorruption)
{
    // Mixed traffic: single-key put/get racing cross-shard multiOps
    // on overlapping keys, under the selected commit protocol.
    KvStore store(smallStore(2, 10));
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;

    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            auto session = store.openSession();
            Rng rng(900 + static_cast<unsigned>(t));
            std::vector<KvOp> ops;
            while (!stop.load(std::memory_order_relaxed)) {
                const std::uint64_t key = rng.nextBounded(256);
                if (t % 2 == 0) {
                    store.put(session, key, key);
                    store.get(session, key);
                } else {
                    ops.clear();
                    ops.push_back(
                        {KvOp::Kind::kPut, key, key, false});
                    ops.push_back({KvOp::Kind::kPut, key + 128,
                                   key + 128, false});
                    store.multiOp(session, ops);
                }
            }
            store.closeSession(session);
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
    for (auto &thread : threads)
        thread.join();

    auto session = store.openSession();
    std::uint64_t value = 0;
    for (std::uint64_t key = 0; key < 384; ++key) {
        if (store.get(session, key, &value)) {
            EXPECT_EQ(value, key) << "value corrupted for key " << key;
        }
    }
    store.closeSession(session);
}

TEST(KvStoreTest, ElasticShardsGrowInsteadOfFailing)
{
    // 2 shards of 16 slots each, growth unbounded: 400 inserts (≈12x
    // the initial per-shard capacity) must all land, via single-key
    // puts and multiOps alike, with every key readable afterwards.
    KvStore store(smallStore(2, 4));
    auto session = store.openSession();

    const std::size_t initial_cap = store.shard(0).capacity();
    for (std::uint64_t key = 0; key < 200; ++key)
        ASSERT_TRUE(store.put(session, key, key * 3 + 1)) << key;

    std::vector<KvOp> ops;
    for (std::uint64_t key = 200; key < 400; key += 2) {
        ops.clear();
        ops.push_back({KvOp::Kind::kPut, key, key * 3 + 1, false});
        ops.push_back({KvOp::Kind::kPut, key + 1, key * 3 + 4, false});
        ASSERT_TRUE(store.multiOp(session, ops)) << key;
    }

    EXPECT_GT(store.shard(0).capacity() + store.shard(1).capacity(),
              2 * initial_cap)
        << "at least one shard must have grown";

    std::uint64_t value = 0;
    for (std::uint64_t key = 0; key < 400; ++key) {
        ASSERT_TRUE(store.get(session, key, &value)) << key;
        EXPECT_EQ(value, key * 3 + 1) << key;
    }
    // Quiesce any in-flight migration and re-check: relocation must
    // not lose or duplicate keys.
    for (int s = 0; s < store.numShards(); ++s)
        store.shard(static_cast<std::size_t>(s))
            .drainMigration(session.token(static_cast<std::size_t>(s)));
    std::size_t total = 0;
    for (int s = 0; s < store.numShards(); ++s)
        total += store.shard(static_cast<std::size_t>(s)).sizeQuiesced();
    EXPECT_EQ(total, 400u);
    store.closeSession(session);
}

TEST(KvStoreTest, WideValuesRoundTripThroughAllPaths)
{
    KvStore store(smallStore(2, 8));
    auto session = store.openSession();

    const auto pattern = [](std::uint64_t key, std::size_t len) {
        std::string bytes(len, '\0');
        for (std::size_t i = 0; i < len; ++i)
            bytes[i] = static_cast<char>((key * 131 + i * 7) & 0xff);
        return bytes;
    };

    // Sizes straddling the inline/blob boundary and ≥ 64 bytes.
    const std::size_t sizes[] = {0, 3, 7, 8, 64, 200, 1024};
    std::uint64_t key = 0;
    for (const std::size_t len : sizes) {
        const std::string bytes = pattern(key, len);
        ASSERT_TRUE(
            store.putBytes(session, key, bytes.data(), bytes.size()));
        std::string out;
        ASSERT_TRUE(store.getBytes(session, key, &out));
        EXPECT_EQ(out, bytes) << "len " << len;
        ++key;
    }

    // Overwrite a blob with a blob (the displaced one is reclaimed)
    // and a blob with a word value.
    const std::string big = pattern(99, 300);
    ASSERT_TRUE(store.putBytes(session, 4, big.data(), big.size()));
    std::string out;
    ASSERT_TRUE(store.getBytes(session, 4, &out));
    EXPECT_EQ(out, big);
    ASSERT_TRUE(store.put(session, 4, 0xdeadbeef));
    std::uint64_t value = 0;
    ASSERT_TRUE(store.get(session, 4, &value));
    EXPECT_EQ(value, 0xdeadbeefu);

    // Wide values through the multiOp write path (cross-shard) and
    // the byte read path, including read-your-writes.
    const std::string wide_a = pattern(1000, 96);
    const std::string wide_b = pattern(1001, 700);
    std::vector<KvOp> ops;
    ops.push_back({KvOp::Kind::kPutBytes, 1000, 0, false, wide_a});
    ops.push_back({KvOp::Kind::kPutBytes, 1001, 0, false, wide_b});
    ops.push_back({KvOp::Kind::kGetBytes, 1000, 0, false});
    ASSERT_TRUE(store.multiOp(session, ops));
    EXPECT_TRUE(ops[2].ok);
    EXPECT_EQ(ops[2].bytes, wide_a) << "read-your-writes on bytes";
    ASSERT_TRUE(store.getBytes(session, 1001, &out));
    EXPECT_EQ(out, wide_b);

    // Byte-decoding scan sees the wide values.
    std::vector<Shard::ScanEntry> entries;
    const std::size_t n = store.scanEntries(session, 1000, 4, &entries);
    EXPECT_GE(n, 1u);

    store.closeSession(session);
}

TEST(KvStoreTest, WideValuesSurviveAbortOnHtmFallback)
{
    // A multiOp that overwrites a 128-byte value and then fails on a
    // pinned-full shard must restore the wide value byte-for-byte —
    // on the HTM fallback through its undo log.
    KvStoreOptions options = pinnedStore(2, 4);
    options.initial = htmFallbackConfig();
    KvStore store(options);
    auto session = store.openSession();

    std::uint64_t key = 1000;
    const auto next_on_shard = [&](std::size_t shard) {
        while (store.shardOf(key) != shard)
            ++key;
        return key++;
    };

    const std::uint64_t witness = next_on_shard(0);
    std::string wide(128, '\0');
    for (std::size_t i = 0; i < wide.size(); ++i)
        wide[i] = static_cast<char>((i * 13 + 5) & 0xff);
    ASSERT_TRUE(
        store.putBytes(session, witness, wide.data(), wide.size()));

    for (std::size_t i = 0; i < store.shard(1).capacity(); ++i)
        ASSERT_TRUE(store.put(session, next_on_shard(1), i));
    const std::uint64_t overflow = next_on_shard(1);

    std::vector<KvOp> ops;
    std::string replacement(96, 'x');
    ops.push_back(
        {KvOp::Kind::kPutBytes, witness, 0, false, replacement});
    ops.push_back({KvOp::Kind::kPut, overflow, 42, false});
    const std::size_t live_before = store.shard(0).arena().bytesLive();
    EXPECT_FALSE(store.multiOp(session, ops)) << "insert cannot fit";
    EXPECT_EQ(store.shard(0).arena().bytesLive(), live_before)
        << "the aborted 2PC must unstage the replacement's blob";

    std::string out;
    ASSERT_TRUE(store.getBytes(session, witness, &out));
    EXPECT_EQ(out, wide) << "wide pre-image must survive the revert";

    // The store is not wedged: the witness still accepts overwrites.
    ASSERT_TRUE(store.putBytes(session, witness, replacement.data(),
                               replacement.size()));
    ASSERT_TRUE(store.getBytes(session, witness, &out));
    EXPECT_EQ(out, replacement);
    store.closeSession(session);
}

TEST(KvStoreTest, MultiOpOutOfArenaGivesBackWhatItStaged)
{
    // The third wide value's blob cannot be carved: the multiOp
    // reports kNoMemory with nothing written, and the two values it
    // had already staged go back to the arena.
    KvStore store(smallStore(1, 8));
    auto session = store.openSession();
    const std::size_t live_before = store.shard(0).arena().bytesLive();
    std::vector<KvOp> ops;
    for (std::uint64_t key = 1; key <= 3; ++key) {
        ops.push_back({KvOp::Kind::kPutBytes, key, 0, false,
                       std::string(100, static_cast<char>('a' + key))});
    }
    fault::FaultSpec third_carve;
    third_carve.trigger = fault::FaultSpec::Trigger::kNth;
    third_carve.nth = 3;
    fault::arm("arena.carve", third_carve);
    EXPECT_EQ(store.multiOp(session, ops).status, KvStatus::kNoMemory);
    fault::disarmAll();

    EXPECT_EQ(store.shard(0).arena().bytesLive(), live_before)
        << "the two staged blobs must be given back";
    std::string out;
    for (std::uint64_t key = 1; key <= 3; ++key)
        EXPECT_FALSE(store.getBytes(session, key, &out)) << "key " << key;
    store.closeSession(session);
}

TEST(KvStoreTest, OversizedValueThrowsAndGivesBackWhatItStaged)
{
    // A kPutBytes value above ValueArena::kMaxBlobBytes fails staging
    // with std::length_error. Through every entry point, the 100-byte
    // value staged before it must go back to its arena and nothing may
    // be written.
    KvStore store(smallStore(2, 8));
    auto session = store.openSession();
    std::uint64_t key = 1000;
    const auto next_on_shard = [&](std::size_t shard) {
        while (store.shardOf(key) != shard)
            ++key;
        return key++;
    };
    const std::uint64_t first = next_on_shard(0);
    const std::uint64_t oversized = next_on_shard(0);
    const std::uint64_t other = next_on_shard(1);
    const std::string small(100, 's');
    const std::string huge(ValueArena::kMaxBlobBytes + 1, 'h');
    const auto bytes_live = [&] {
        return store.shard(0).arena().bytesLive() +
               store.shard(1).arena().bytesLive();
    };
    const std::size_t live_before = bytes_live();

    std::vector<KvOp> ops;
    ops.push_back({KvOp::Kind::kPutBytes, first, 0, false, small});
    ops.push_back({KvOp::Kind::kPutBytes, oversized, 0, false, huge});
    EXPECT_THROW(store.multiOp(session, ops), std::length_error)
        << "single-shard multiOp";
    EXPECT_EQ(bytes_live(), live_before) << "single-shard multiOp";

    ops.push_back({KvOp::Kind::kPut, other, 1, false});
    EXPECT_THROW(store.multiOp(session, ops), std::length_error)
        << "cross-shard multiOp";
    EXPECT_EQ(bytes_live(), live_before) << "cross-shard multiOp";

    KvStore::Batch batch;
    batch.putBytes(first, small);
    batch.putBytes(oversized, huge);
    EXPECT_THROW(store.applyBatch(session, batch), std::length_error)
        << "batch";
    EXPECT_EQ(bytes_live(), live_before) << "batch";

    std::string out;
    EXPECT_FALSE(store.getBytes(session, first, &out));
    EXPECT_FALSE(store.get(session, other));
    store.closeSession(session);
}

TEST(KvStoreTest, TtlExpiresLazilyAndSweeps)
{
    KvStore store(smallStore(2, 8));
    auto session = store.openSession();

    constexpr std::uint64_t kTtl = 40ull * 1000 * 1000; // 40 ms
    ASSERT_TRUE(store.put(session, 1, 100, kTtl));
    std::string wide(80, 'w');
    ASSERT_TRUE(
        store.putBytes(session, 2, wide.data(), wide.size(), kTtl));
    ASSERT_TRUE(store.put(session, 3, 300)); // no TTL

    std::uint64_t value = 0;
    EXPECT_TRUE(store.get(session, 1, &value));
    EXPECT_EQ(value, 100u);
    std::string out;
    EXPECT_TRUE(store.getBytes(session, 2, &out));

    std::this_thread::sleep_for(std::chrono::milliseconds(60));

    EXPECT_FALSE(store.get(session, 1)) << "expired key must read absent";
    EXPECT_FALSE(store.getBytes(session, 2, &out));
    EXPECT_TRUE(store.get(session, 3, &value)) << "no-TTL key survives";
    EXPECT_EQ(value, 300u);

    // A put over an expired slot revives the key.
    ASSERT_TRUE(store.put(session, 1, 111));
    EXPECT_TRUE(store.get(session, 1, &value));
    EXPECT_EQ(value, 111u);
    store.closeSession(session);
}

TEST(KvStoreTest, MaximumTtlNeverExpires)
{
    // A TTL past the clock's range saturates to "never" instead of
    // wrapping into a deadline that has already passed.
    KvStore store(smallStore(2, 8));
    auto session = store.openSession();
    constexpr std::uint64_t kForever = ~std::uint64_t{0};
    ASSERT_TRUE(store.put(session, 1, 100, kForever));
    const std::string wide(80, 'w');
    ASSERT_TRUE(
        store.putBytes(session, 2, wide.data(), wide.size(), kForever));
    std::vector<KvOp> ops(1);
    ops[0].kind = KvOp::Kind::kPut;
    ops[0].key = 3;
    ops[0].value = 300;
    ops[0].ttlNanos = kForever;
    ASSERT_TRUE(store.multiOp(session, ops));

    std::uint64_t value = 0;
    EXPECT_TRUE(store.get(session, 1, &value)) << "put";
    EXPECT_EQ(value, 100u);
    std::string out;
    EXPECT_TRUE(store.getBytes(session, 2, &out)) << "putBytes";
    EXPECT_EQ(out, wide);
    EXPECT_TRUE(store.get(session, 3, &value)) << "multiOp kPut";
    EXPECT_EQ(value, 300u);
    store.closeSession(session);
}

TEST(KvStoreTest, DefaultTtlFromOptionsApplies)
{
    KvStoreOptions options = smallStore(2, 8);
    options.defaultTtlNanos = 40ull * 1000 * 1000;
    KvStore store(options);
    auto session = store.openSession();
    ASSERT_TRUE(store.put(session, 7, 70));
    std::uint64_t value = 0;
    EXPECT_TRUE(store.get(session, 7, &value));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_FALSE(store.get(session, 7))
        << "store-default TTL must apply to plain puts";
    store.closeSession(session);
}

TEST(TrafficCacheTest, TtlChurnDropsHitRate)
{
    // The cache preset's eviction must be visible in the driver's
    // hit-rate telemetry: with every key preloaded, a TTL-free run
    // never misses, while the TTL run loses its cold tail to expiry.
    const auto run_mix = [](std::uint64_t ttl_nanos) {
        KvStore store(smallStore(2, 10));
        TrafficMix mix = TrafficMix::preset(MixKind::kCache);
        mix.keySpace = 1 << 8;
        mix.ttlNanos = ttl_nanos;
        TrafficOptions traffic;
        traffic.threads = 2;
        traffic.phases = {mix};
        TrafficDriver driver(store, traffic);
        driver.preload(mix.keySpace);
        driver.start();
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        driver.stop();
        EXPECT_GT(driver.getAttempts(), 0u);
        return driver.hitRate();
    };

    const double no_ttl_rate = run_mix(0);
    const double ttl_rate = run_mix(15ull * 1000 * 1000); // 15 ms
    EXPECT_GT(no_ttl_rate, 0.999)
        << "fully preloaded, TTL-free gets must all hit";
    EXPECT_LT(ttl_rate, no_ttl_rate)
        << "TTL churn must evict (hit-rate drop invisible)";
}

TEST(KvStoreTest, SnapshotReadsUnderWriteStormStayConsistent)
{
    // Hammer the snapshot-epoch read path with a cross-shard write
    // storm: totals must still be conserved (every in-flight commit
    // resolves all-or-nothing against the sampled read timestamp) and
    // the test must terminate (rounds repeat only on actual commit
    // flips, which the finite writers eventually stop producing).
    constexpr std::uint64_t kKeys = 32;
    constexpr std::uint64_t kInitial = 50;
    constexpr int kWriters = 3;
    constexpr int kTransfers = 300;

    KvStoreOptions options = smallStore(4, 10);
    KvStore store(options);
    {
        auto session = store.openSession();
        for (std::uint64_t key = 0; key < kKeys; ++key)
            ASSERT_TRUE(store.put(session, key, kInitial));
        store.closeSession(session);
    }

    std::atomic<int> writers_done{0};
    std::atomic<bool> violation{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            auto session = store.openSession();
            Rng rng(3300 + static_cast<unsigned>(w));
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
    threads.emplace_back([&] {
        auto session = store.openSession();
        std::vector<KvOp> snapshot;
        while (writers_done.load() < kWriters && !violation.load()) {
            snapshot.clear();
            for (std::uint64_t key = 0; key < kKeys; ++key)
                snapshot.push_back({KvOp::Kind::kGet, key, 0, false});
            store.multiOp(session, snapshot);
            std::uint64_t total = 0;
            for (const KvOp &op : snapshot)
                total += op.ok ? op.value : 0;
            if (total != kKeys * kInitial)
                violation.store(true);
        }
        store.closeSession(session);
    });
    for (auto &thread : threads)
        thread.join();
    EXPECT_FALSE(violation.load())
        << "an escalated snapshot read observed a torn transfer";
}

/**
 * Landing parity: an op list on one shard runs once as a single-shard
 * multiOp, whose writes land in the slot words, and once beside a put
 * on another shard, a 2PC whose writes land as intents. Both runs
 * must report the same ok flags and reads, leave the same values and
 * the same arena bytes behind, and log post-images that replay to
 * those values — on every backend and the HTM fallback.
 */
class LandingParityTest : public ::testing::TestWithParam<polytm::TmConfig>
{
  protected:
    /** How a row's key starts out. */
    enum class Seed
    {
        kAbsent,
        kNumeric,
        kInline,
        kBlob,
        kExpired,
    };

    /** One op of a row, on the row's key. */
    enum class Op
    {
        kPut,
        kPutTtl, //!< 1 ns TTL: expired by the composite's next op
        kPutInline,
        kPutBlob,
        kPutBlobTtl,
        kDel,
        kAdd,
        kGet,
        kGetBytes,
    };

    struct Row
    {
        Seed seed;
        std::vector<Op> ops;
    };

    /** What a key reads as, numeric and bytes. */
    struct Value
    {
        bool found = false;
        std::uint64_t word = 0;
        bool foundBytes = false;
        std::string bytes;

        bool
        operator==(const Value &other) const
        {
            return found == other.found &&
                   (!found || word == other.word) &&
                   foundBytes == other.foundBytes &&
                   (!foundBytes || bytes == other.bytes);
        }
    };

    void
    SetUp() override
    {
        std::string name = ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name();
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        base_ = std::filesystem::temp_directory_path() /
                ("proteus_parity_" + name + "_" +
                 std::to_string(::getpid()));
        std::filesystem::remove_all(base_);
    }
    void TearDown() override { std::filesystem::remove_all(base_); }

    KvStoreOptions
    durableStore(const char *dir) const
    {
        KvStoreOptions options = smallStore(2, 10);
        options.initial = GetParam();
        options.durability = Durability::kBuffered;
        options.walDir = (base_ / dir).string();
        return options;
    }

    static KvOp
    makeOp(Op op, std::uint64_t key)
    {
        switch (op) {
          case Op::kPut:
            return {KvOp::Kind::kPut, key, 4242, false};
          case Op::kPutTtl:
            return {KvOp::Kind::kPut, key, 4343, false, {}, 1};
          case Op::kPutInline:
            return {KvOp::Kind::kPutBytes, key, 0, false, "abc"};
          case Op::kPutBlob:
            return {KvOp::Kind::kPutBytes, key, 0, false,
                    std::string(40, 'b')};
          case Op::kPutBlobTtl:
            return {KvOp::Kind::kPutBytes, key, 0, false,
                    std::string(48, 't'), 1};
          case Op::kDel:
            return {KvOp::Kind::kDel, key, 0, false};
          case Op::kAdd:
            return {KvOp::Kind::kAdd, key, 5, false};
          case Op::kGet:
            return {KvOp::Kind::kGet, key, 0, false};
          case Op::kGetBytes:
            break;
        }
        return {KvOp::Kind::kGetBytes, key, 0, false};
    }

    static void
    seed(KvStore &store, KvStore::Session &session, Seed seed,
         std::uint64_t key)
    {
        switch (seed) {
          case Seed::kAbsent:
            break;
          case Seed::kNumeric:
            ASSERT_TRUE(store.put(session, key, 1000 + key));
            break;
          case Seed::kInline:
            ASSERT_TRUE(store.putBytes(session, key, "inl", 3));
            break;
          case Seed::kBlob: {
            const std::string blob(40, static_cast<char>('A' + key % 26));
            ASSERT_TRUE(
                store.putBytes(session, key, blob.data(), blob.size()));
            break;
          }
          case Seed::kExpired:
            ASSERT_TRUE(store.put(session, key, 77, 1));
            break;
        }
    }

    static Value
    read(KvStore &store, KvStore::Session &session, std::uint64_t key)
    {
        Value value;
        value.found = store.get(session, key, &value.word);
        value.foundBytes = store.getBytes(session, key, &value.bytes);
        return value;
    }

    /** Every seed under every single op, then every write op as the
     *  earlier write of a two-op row, on an absent and a blob key. */
    static std::vector<Row>
    rows()
    {
        const Seed seeds[] = {Seed::kAbsent, Seed::kNumeric, Seed::kInline,
                              Seed::kBlob, Seed::kExpired};
        const Op singles[] = {Op::kPut, Op::kPutInline, Op::kPutBlob,
                              Op::kDel, Op::kAdd, Op::kGet, Op::kGetBytes};
        const Op earlier[] = {Op::kPut, Op::kPutTtl, Op::kPutInline,
                              Op::kPutBlob, Op::kPutBlobTtl, Op::kDel,
                              Op::kAdd};
        const Op later[] = {Op::kPut, Op::kPutBlob, Op::kDel,
                            Op::kAdd, Op::kGet, Op::kGetBytes};
        std::vector<Row> out;
        for (const Seed s : seeds) {
            for (const Op op : singles)
                out.push_back({s, {op}});
        }
        for (const Seed s : {Seed::kAbsent, Seed::kBlob}) {
            for (const Op first : earlier) {
                for (const Op second : later)
                    out.push_back({s, {first, second}});
            }
        }
        return out;
    }

    std::filesystem::path base_;
};

TEST_P(LandingParityTest, SlotAndIntentLandingsAgree)
{
    const std::vector<Row> table = rows();
    auto slots = std::make_unique<KvStore>(durableStore("slots"));
    auto intents = std::make_unique<KvStore>(durableStore("intents"));
    auto slot_session = slots->openSession();
    auto intent_session = intents->openSession();

    std::uint64_t next = 1;
    const auto next_on_shard = [&](std::size_t shard) {
        while (slots->shardOf(next) != shard)
            ++next;
        return next++;
    };
    std::vector<std::uint64_t> keys;
    for (const Row &row : table) {
        keys.push_back(next_on_shard(0));
        seed(*slots, slot_session, row.seed, keys.back());
        seed(*intents, intent_session, row.seed, keys.back());
    }
    const std::uint64_t companion = next_on_shard(1);
    // Every 1 ns deadline seeded above has passed.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::vector<Value> values;
    for (std::size_t r = 0; r < table.size(); ++r) {
        const Row &row = table[r];
        std::string trace = "row " + std::to_string(r) + ": seed " +
                            std::to_string(static_cast<int>(row.seed)) +
                            ", ops";
        std::vector<KvOp> slot_ops;
        for (const Op op : row.ops) {
            slot_ops.push_back(makeOp(op, keys[r]));
            trace += " " + std::to_string(static_cast<int>(op));
        }
        SCOPED_TRACE(trace);
        std::vector<KvOp> intent_ops = slot_ops;
        intent_ops.push_back({KvOp::Kind::kPut, companion, r, false});
        ASSERT_EQ(slots->multiOp(slot_session, slot_ops).status,
                  KvStatus::kOk);
        ASSERT_EQ(intents->multiOp(intent_session, intent_ops).status,
                  KvStatus::kOk);

        for (std::size_t i = 0; i < slot_ops.size(); ++i) {
            const KvOp &want = slot_ops[i];
            const KvOp &got = intent_ops[i];
            EXPECT_EQ(got.ok, want.ok) << "op " << i;
            if (want.ok && want.kind == KvOp::Kind::kGet)
                EXPECT_EQ(got.value, want.value) << "op " << i;
            if (want.ok && want.kind == KvOp::Kind::kGetBytes)
                EXPECT_EQ(got.bytes, want.bytes) << "op " << i;
        }
        values.push_back(read(*slots, slot_session, keys[r]));
        EXPECT_TRUE(read(*intents, intent_session, keys[r]) ==
                    values.back())
            << "value afterwards";
        EXPECT_EQ(intents->shard(0).arena().bytesLive(),
                  slots->shard(0).arena().bytesLive());
    }
    slots->closeSession(slot_session);
    intents->closeSession(intent_session);

    // Reopen both: replay rebuilds each key from the logged
    // post-images alone.
    slots.reset();
    intents.reset();
    slots = std::make_unique<KvStore>(durableStore("slots"));
    intents = std::make_unique<KvStore>(durableStore("intents"));
    slot_session = slots->openSession();
    intent_session = intents->openSession();
    for (std::size_t r = 0; r < table.size(); ++r) {
        EXPECT_TRUE(read(*slots, slot_session, keys[r]) == values[r])
            << "replayed slot landing, row " << r;
        EXPECT_TRUE(read(*intents, intent_session, keys[r]) == values[r])
            << "replayed intent landing, row " << r;
    }
    slots->closeSession(slot_session);
    intents->closeSession(intent_session);
}

INSTANTIATE_TEST_SUITE_P(
    EveryBackend, LandingParityTest,
    ::testing::ValuesIn(everyBackendAndHtmFallback()),
    [](const ::testing::TestParamInfo<polytm::TmConfig> &info) {
        std::string name = info.param.label();
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace proteus::kvstore
