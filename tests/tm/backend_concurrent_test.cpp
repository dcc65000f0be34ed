/**
 * Concurrency stress tests, parameterized over every backend. The
 * host may have a single core; these tests validate *correctness*
 * under oversubscription (atomicity, isolation, conservation
 * invariants), not speedup.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "tm/test_util.hpp"

namespace proteus::tm {
namespace {

using testing::makeBackend;
using testing::runTx;

class BackendConcurrentTest : public ::testing::TestWithParam<BackendKind>
{
  protected:
    std::unique_ptr<TmBackend>
    make()
    {
        return makeBackend(GetParam());
    }
};

/** `threads` threads each make 2000 transactional increments of one
 *  word; returns the final count. */
std::uint64_t
countIncrements(TmBackend &backend, int threads)
{
    constexpr int kIncrementsPerThread = 2000;
    std::uint64_t counter = 0;

    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            TxDesc desc(t, 1000 + t);
            backend.registerThread(desc);
            for (int i = 0; i < kIncrementsPerThread; ++i) {
                runTx(backend, desc, [&](TxDesc &d) {
                    backend.txWrite(d, &counter,
                                    backend.txRead(d, &counter) + 1);
                });
            }
            backend.deregisterThread(desc);
        });
    }
    for (auto &th : pool)
        th.join();
    return counter;
}

TEST_P(BackendConcurrentTest, CounterIncrementsAreAtomic)
{
    auto backend = make();
    EXPECT_EQ(countIncrements(*backend, 4), 4u * 2000);
}

TEST_P(BackendConcurrentTest, CounterIncrementsAreAtomicEightThreads)
{
    // On hosts with fewer cores than threads, preemption lands inside
    // commits, where the emulated HTM's fallback path once read words
    // a committer still owned (see SimHtm::awaitOwnerRelease).
    auto backend = make();
    EXPECT_EQ(countIncrements(*backend, 8), 8u * 2000);
}

TEST_P(BackendConcurrentTest, BankTransfersConserveTotal)
{
    auto backend = make();
    constexpr int kThreads = 4;
    constexpr int kAccounts = 64;
    constexpr int kTransfersPerThread = 2000;
    constexpr std::uint64_t kInitial = 1000;

    std::vector<std::uint64_t> accounts(kAccounts, kInitial);

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            TxDesc desc(t, 2000 + t);
            backend->registerThread(desc);
            Rng rng(777 + t);
            for (int i = 0; i < kTransfersPerThread; ++i) {
                const auto from = rng.nextBounded(kAccounts);
                const auto to = rng.nextBounded(kAccounts);
                runTx(*backend, desc, [&](TxDesc &d) {
                    const std::uint64_t a =
                        backend->txRead(d, &accounts[from]);
                    const std::uint64_t b =
                        backend->txRead(d, &accounts[to]);
                    if (a == 0)
                        return; // nothing to move
                    backend->txWrite(d, &accounts[from], a - 1);
                    if (from != to)
                        backend->txWrite(d, &accounts[to], b + 1);
                    else
                        backend->txWrite(d, &accounts[to], a);
                });
            }
            backend->deregisterThread(desc);
        });
    }
    for (auto &th : threads)
        th.join();

    std::uint64_t total = 0;
    for (const auto &acc : accounts)
        total += acc;
    EXPECT_EQ(total, kInitial * kAccounts);
}

TEST_P(BackendConcurrentTest, SnapshotsAreConsistent)
{
    // Writers keep x + y == 0 (mod 2^64); readers must never observe
    // a broken invariant — the classic isolation (opacity) smoke test.
    auto backend = make();
    std::uint64_t x = 0, y = 0;
    std::atomic<bool> stop{false};
    std::atomic<int> violations{0};

    std::thread writer([&] {
        TxDesc desc(0, 42);
        backend->registerThread(desc);
        for (int i = 0; i < 4000; ++i) {
            runTx(*backend, desc, [&](TxDesc &d) {
                const std::uint64_t v = backend->txRead(d, &x);
                backend->txWrite(d, &x, v + 1);
                backend->txWrite(d, &y, ~(v + 1) + 1); // y = -(x)
            });
        }
        stop.store(true);
        backend->deregisterThread(desc);
    });

    std::thread reader([&] {
        TxDesc desc(1, 43);
        backend->registerThread(desc);
        while (!stop.load()) {
            std::uint64_t sx = 0, sy = 0;
            runTx(*backend, desc, [&](TxDesc &d) {
                sx = backend->txRead(d, &x);
                sy = backend->txRead(d, &y);
            });
            if (sx + sy != 0)
                violations.fetch_add(1);
        }
        backend->deregisterThread(desc);
    });

    writer.join();
    reader.join();
    EXPECT_EQ(violations.load(), 0);
}

TEST_P(BackendConcurrentTest, DisjointWritersAllCommit)
{
    auto backend = make();
    constexpr int kThreads = 4;
    constexpr int kSlots = 1024;
    std::vector<std::uint64_t> slots(kSlots * kThreads, 0);

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            TxDesc desc(t, 3000 + t);
            backend->registerThread(desc);
            for (int i = 0; i < kSlots; ++i) {
                runTx(*backend, desc, [&](TxDesc &d) {
                    backend->txWrite(d, &slots[t * kSlots + i],
                                     static_cast<std::uint64_t>(t + 1));
                });
            }
            backend->deregisterThread(desc);
        });
    }
    for (auto &th : threads)
        th.join();

    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kSlots; ++i)
            ASSERT_EQ(slots[t * kSlots + i],
                      static_cast<std::uint64_t>(t + 1));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConcurrentTest,
    ::testing::ValuesIn(testing::allBackendKinds()),
    [](const ::testing::TestParamInfo<BackendKind> &info) {
        return std::string(backendName(info.param));
    });

} // namespace
} // namespace proteus::tm
