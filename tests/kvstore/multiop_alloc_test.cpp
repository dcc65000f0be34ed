/**
 * Allocation audit of the multi-key hot path. This binary replaces the
 * global operator new with a per-thread counter and checks that, once
 * a session's scratch buffers have grown to size, neither read-only
 * nor writing multiOps allocate: grouping, the read-ahead, the
 * snapshot-read rounds and the 2PC prepare/finalize passes all reuse
 * session-owned memory. Blob overwrites (single-key putBytes and
 * putBytes inside single-shard and cross-shard multiOps, and the
 * standalone Shard::putBytes) allocate nothing either: the displaced
 * handles land in a reused buffer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "kvstore/kvstore.hpp"

namespace {

/** Allocations made by the calling thread since it started. */
thread_local std::uint64_t t_allocations = 0;

void *
countedAlloc(std::size_t bytes) noexcept
{
    ++t_allocations;
    return std::malloc(bytes != 0 ? bytes : 1);
}

void *
countedAlignedAlloc(std::size_t bytes, std::align_val_t align) noexcept
{
    ++t_allocations;
    const auto a = static_cast<std::size_t>(align);
    return std::aligned_alloc(a, (bytes + a - 1) / a * a);
}

} // namespace

void *
operator new(std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes)
{
    return operator new(bytes);
}

void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new(std::size_t bytes, std::align_val_t align)
{
    if (void *p = countedAlignedAlloc(bytes, align))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes, std::align_val_t align)
{
    return operator new(bytes, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace proteus::kvstore {
namespace {

constexpr std::uint64_t kKeys = 256;
constexpr std::uint64_t kWideBase = 1 << 20;
constexpr int kWarmup = 200;
constexpr int kMeasured = 1000;

constexpr std::size_t kWideBytes = 96;

char
wideFill(std::uint64_t key)
{
    return static_cast<char>('a' + key % 26);
}

/** Checks a byte read without allocating. */
bool
holdsWideValue(const std::string &bytes, std::uint64_t key)
{
    return bytes.size() == kWideBytes &&
           bytes.find_first_not_of(wideFill(key)) == std::string::npos;
}

class MultiOpAllocTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        KvStoreOptions options;
        options.numShards = 4;
        options.log2SlotsPerShard = 10;
        store_ = std::make_unique<KvStore>(options);
        session_ = store_->openSession();
        for (std::uint64_t k = 0; k < kKeys; ++k) {
            ASSERT_TRUE(store_->put(session_, k, k));
            const std::string v(kWideBytes, wideFill(kWideBase + k));
            ASSERT_TRUE(
                store_->putBytes(session_, kWideBase + k, v.data(), v.size()));
        }
    }

    void
    TearDown() override
    {
        store_->closeSession(session_);
        store_.reset();
    }

    /** Allocations made by `rounds` calls of fn(i) on this thread. */
    template <typename F>
    std::uint64_t
    allocationsOver(int rounds, F &&fn)
    {
        const std::uint64_t before = t_allocations;
        for (int i = 0; i < rounds; ++i)
            fn(i);
        return t_allocations - before;
    }

    std::unique_ptr<KvStore> store_;
    KvStore::Session session_;
};

TEST_F(MultiOpAllocTest, ReadOnlyMultiOpsAllocateNothing)
{
    // Two numeric and two byte reads per op; the keys rotate, so the
    // ops land on one to four shards (single-shard and snapshot-round
    // paths both run).
    std::vector<KvOp> ops(4);
    bool all_ok = true;
    const auto read = [&](int i) {
        for (std::size_t j = 0; j < ops.size(); ++j) {
            const auto k = static_cast<std::uint64_t>(i * 7 + j * 13) % kKeys;
            ops[j].kind = j < 2 ? KvOp::Kind::kGet : KvOp::Kind::kGetBytes;
            ops[j].key = j < 2 ? k : kWideBase + k;
        }
        all_ok &= store_->multiOp(session_, ops).status == KvStatus::kOk;
        for (std::size_t j = 2; j < ops.size(); ++j)
            all_ok &= ops[j].ok && holdsWideValue(ops[j].bytes, ops[j].key);
    };
    allocationsOver(kWarmup, read);
    EXPECT_EQ(allocationsOver(kMeasured, read), 0u);
    EXPECT_TRUE(all_ok);
}

TEST_F(MultiOpAllocTest, WritingMultiOpsAllocateNothing)
{
    // Puts and adds of numeric values on existing keys: no insert, no
    // displaced blob, so only the multiOp machinery itself could
    // allocate. Rotating keys exercise the single-shard and 2PC paths.
    std::vector<KvOp> ops(4);
    bool all_ok = true;
    const auto write = [&](int i) {
        for (std::size_t j = 0; j < ops.size(); ++j) {
            ops[j].kind = j % 2 == 0 ? KvOp::Kind::kPut : KvOp::Kind::kAdd;
            ops[j].key = static_cast<std::uint64_t>(i * 5 + j * 17) % kKeys;
            ops[j].value = static_cast<std::uint64_t>(i);
        }
        all_ok &= store_->multiOp(session_, ops).status == KvStatus::kOk;
    };
    allocationsOver(kWarmup, write);
    EXPECT_EQ(allocationsOver(kMeasured, write), 0u);
    EXPECT_TRUE(all_ok);
}

/**
 * Overwriting a blob value displaces the old blob, and the write path
 * captures its handle for deferred reclamation. The capture buffer is
 * writer-owned, so after warm-up a blob overwrite allocates nothing:
 * the new blob comes from the writer's magazine and the old one
 * recycles through the writer's limbo (both kept in the shard's record
 * for the writer's tid).
 */
class BlobOverwriteAllocTest : public MultiOpAllocTest
{
  protected:
    /** Wide keys whose home shard is `shard`. */
    std::vector<std::uint64_t>
    wideKeysOn(std::size_t shard) const
    {
        std::vector<std::uint64_t> keys;
        for (std::uint64_t k = 0; k < kKeys; ++k) {
            if (store_->shardOf(kWideBase + k) == shard)
                keys.push_back(kWideBase + k);
        }
        return keys;
    }

    /** A wide value written over existing blob values. */
    const std::string value_ = std::string(kWideBytes, 'z');
};

TEST_F(BlobOverwriteAllocTest, PutBytesOverBlobAllocatesNothing)
{
    bool all_ok = true;
    const auto write = [&](int i) {
        const std::uint64_t key =
            kWideBase + static_cast<std::uint64_t>(i) % kKeys;
        all_ok &= store_->putBytes(session_, key, value_.data(),
                                   value_.size())
                      .status == KvStatus::kOk;
    };
    allocationsOver(kWarmup, write);
    EXPECT_EQ(allocationsOver(kMeasured, write), 0u);
    EXPECT_TRUE(all_ok);
}

TEST_F(BlobOverwriteAllocTest, ShardPutBytesOverBlobAllocatesNothing)
{
    // The standalone shard API runs the same write loop on the same
    // per-writer state: the new blob comes from the writer's magazine,
    // the displaced one lands in its limbo. (The store runs one thread
    // per shard, so the shard call borrows the session's token.)
    Shard &shard = store_->shard(0);
    const std::vector<std::uint64_t> keys = wideKeysOn(0);
    ASSERT_FALSE(keys.empty());
    polytm::ThreadToken &token = session_.token(0);
    bool all_ok = true;
    const auto write = [&](int i) {
        all_ok &= shard.putBytes(token,
                                 keys[static_cast<std::size_t>(i) %
                                      keys.size()],
                                 value_.data(), value_.size());
    };
    allocationsOver(kWarmup, write);
    const std::uint64_t hits = shard.arena().stats().magazineHits;
    EXPECT_EQ(allocationsOver(kMeasured, write), 0u);
    EXPECT_GT(shard.arena().stats().magazineHits, hits);
    EXPECT_TRUE(all_ok);
}

TEST_F(BlobOverwriteAllocTest, SingleShardMultiOpPutBytesAllocatesNothing)
{
    const std::vector<std::uint64_t> keys = wideKeysOn(0);
    ASSERT_GE(keys.size(), 4u);
    std::vector<KvOp> ops(2);
    for (KvOp &op : ops) {
        op.kind = KvOp::Kind::kPutBytes;
        op.bytes = value_;
    }
    bool all_ok = true;
    const auto write = [&](int i) {
        for (std::size_t j = 0; j < ops.size(); ++j)
            ops[j].key = keys[(static_cast<std::size_t>(i) * 2 + j) %
                              keys.size()];
        all_ok &= store_->multiOp(session_, ops).status == KvStatus::kOk;
    };
    allocationsOver(kWarmup, write);
    EXPECT_EQ(allocationsOver(kMeasured, write), 0u);
    EXPECT_TRUE(all_ok);
}

TEST_F(BlobOverwriteAllocTest, CrossShardMultiOpPutBytesAllocatesNothing)
{
    const std::vector<std::uint64_t> first = wideKeysOn(0);
    const std::vector<std::uint64_t> second = wideKeysOn(1);
    ASSERT_FALSE(first.empty());
    ASSERT_FALSE(second.empty());
    std::vector<KvOp> ops(2);
    for (KvOp &op : ops) {
        op.kind = KvOp::Kind::kPutBytes;
        op.bytes = value_;
    }
    bool all_ok = true;
    const auto write = [&](int i) {
        const auto n = static_cast<std::size_t>(i);
        ops[0].key = first[n % first.size()];
        ops[1].key = second[n % second.size()];
        all_ok &= store_->multiOp(session_, ops).status == KvStatus::kOk;
    };
    allocationsOver(kWarmup, write);
    EXPECT_EQ(allocationsOver(kMeasured, write), 0u);
    EXPECT_TRUE(all_ok);
    // The 2PC writes landed.
    std::string out;
    EXPECT_TRUE(store_->getBytes(session_, first[0], &out));
    EXPECT_EQ(out, value_);
}

} // namespace
} // namespace proteus::kvstore
