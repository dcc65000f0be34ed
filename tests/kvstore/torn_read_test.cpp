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
 */

#include <gtest/gtest.h>

#include <atomic>
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

} // namespace
} // namespace proteus::kvstore
