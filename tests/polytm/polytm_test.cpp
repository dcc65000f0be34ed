/**
 * End-to-end PolyTM tests: the typed API, stats, quiesced backend
 * switching under load, parallelism-degree changes, pinning,
 * contention-management hot updates, and rollback when a foreign
 * exception leaves the body.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "polytm/polytm.hpp"

namespace proteus::polytm {

// gtest prints each parameter into the test's listed name.
void
PrintTo(const TmConfig &config, std::ostream *os)
{
    *os << config.label();
}

namespace {

TEST(PolyTmTest, SingleThreadTypedFields)
{
    PolyTm poly;
    auto token = poly.registerThread();

    TxField<int> x(5);
    TxField<double> d(1.5);
    TxField<bool> flag(false);

    poly.run(token, [&](Tx &tx) {
        tx.write(x, tx.read(x) + 1);
        tx.write(d, tx.read(d) * 2.0);
        tx.write(flag, true);
    });

    EXPECT_EQ(x.rawGet(), 6);
    EXPECT_DOUBLE_EQ(d.rawGet(), 3.0);
    EXPECT_TRUE(flag.rawGet());
    poly.deregisterThread(token);
}

TEST(PolyTmTest, StatsCountCommits)
{
    PolyTm poly;
    auto token = poly.registerThread();
    TxField<std::uint64_t> x(0);
    for (int i = 0; i < 50; ++i)
        poly.run(token, [&](Tx &tx) { tx.write(x, tx.read(x) + 1); });
    const PolyStats stats = poly.snapshotStats();
    EXPECT_EQ(stats.commits, 50u);
    poly.deregisterThread(token);
}

TEST(PolyTmTest, RetryIsCountedAsExplicitAbort)
{
    PolyTm poly;
    auto token = poly.registerThread();
    TxField<int> x(0);
    bool once = false;
    poly.run(token, [&](Tx &tx) {
        tx.write(x, 1);
        if (!once) {
            once = true;
            tx.retry();
        }
    });
    const PolyStats stats = poly.snapshotStats();
    EXPECT_EQ(stats.commits, 1u);
    EXPECT_EQ(stats.abortsByCause[static_cast<std::size_t>(
                  tm::AbortCause::kExplicit)],
              1u);
    poly.deregisterThread(token);
}

TEST(PolyTmTest, ReconfigureSwitchesBackend)
{
    PolyTm poly({tm::BackendKind::kTl2, 2, {}});
    auto token = poly.registerThread();
    TxField<int> x(0);

    poly.run(token, [&](Tx &tx) { tx.write(x, 1); });
    poly.reconfigure({tm::BackendKind::kNorec, 2, {}});
    poly.run(token, [&](Tx &tx) { tx.write(x, tx.read(x) + 1); });
    poly.reconfigure({tm::BackendKind::kSimHtm, 2, {}});
    poly.run(token, [&](Tx &tx) { tx.write(x, tx.read(x) + 1); });

    EXPECT_EQ(x.rawGet(), 3);
    EXPECT_EQ(poly.currentConfig().backend, tm::BackendKind::kSimHtm);
    poly.deregisterThread(token);
}

TEST(PolyTmTest, SwitchingUnderLoadPreservesInvariant)
{
    PolyTm poly({tm::BackendKind::kTl2, 8, {}});
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 1500;
    TxField<std::uint64_t> counter(0);

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            auto token = poly.registerThread();
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                poly.run(token, [&](Tx &tx) {
                    tx.write(counter, tx.read(counter) + 1);
                });
            }
            poly.deregisterThread(token);
        });
    }

    // Adapter: rotate through every backend while workers hammer.
    const tm::BackendKind kinds[] = {
        tm::BackendKind::kNorec,   tm::BackendKind::kTinyStm,
        tm::BackendKind::kSwissTm, tm::BackendKind::kSimHtm,
        tm::BackendKind::kHybridNorec, tm::BackendKind::kTl2,
    };
    for (int round = 0; round < 12; ++round) {
        poly.reconfigure({kinds[round % 6], 8, {}});
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    for (auto &w : workers)
        w.join();
    EXPECT_EQ(counter.rawGet(), kThreads * kPerThread);
}

TEST(PolyTmTest, ParallelismDegreeBlocksExtraThreads)
{
    PolyTm poly({tm::BackendKind::kTl2, 1, {}});

    std::atomic<bool> stop{false};
    std::atomic<int> t1_commits{0};

    // Thread with tid 0: always enabled. Thread tid 1: blocked at P=1.
    auto token0 = poly.registerThread();

    std::thread worker([&] {
        auto token1 = poly.registerThread();
        while (!stop.load()) {
            TxField<int> dummy(0);
            poly.run(token1, [&](Tx &tx) { tx.write(dummy, 1); });
            t1_commits.fetch_add(1);
        }
        poly.deregisterThread(token1);
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(t1_commits.load(), 0) << "tid 1 must be disabled at P=1";

    poly.reconfigure({tm::BackendKind::kTl2, 2, {}});
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_GT(t1_commits.load(), 0) << "tid 1 must run at P=2";

    stop.store(true);
    poly.resumeAllForShutdown();
    worker.join();
    poly.deregisterThread(token0);
}

TEST(PolyTmTest, PinnedThreadSurvivesParallelismShrink)
{
    PolyTm poly({tm::BackendKind::kTl2, 2, {}});
    auto token0 = poly.registerThread();

    std::atomic<bool> stop{false};
    std::atomic<int> t1_commits{0};
    std::thread worker([&] {
        auto token1 = poly.registerThread();
        poly.setPinned(token1.tid, true);
        while (!stop.load()) {
            TxField<int> dummy(0);
            poly.run(token1, [&](Tx &tx) { tx.write(dummy, 1); });
            t1_commits.fetch_add(1);
        }
        poly.deregisterThread(token1);
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    poly.reconfigure({tm::BackendKind::kTl2, 1, {}});
    const int before = t1_commits.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_GT(t1_commits.load(), before)
        << "pinned thread must keep running at P=1";

    stop.store(true);
    poly.resumeAllForShutdown();
    worker.join();
    poly.deregisterThread(token0);
}

TEST(PolyTmTest, CmOnlyChangeNeedsNoQuiescence)
{
    PolyTm poly({tm::BackendKind::kSimHtm, 2, {}});
    auto token = poly.registerThread();

    TmConfig next = poly.currentConfig();
    next.cm.htmBudget = 16;
    next.cm.capacityPolicy = tm::CapacityPolicy::kHalve;
    poly.reconfigure(next);
    // A CM-only change must not count as a quiesced reconfiguration.
    EXPECT_EQ(poly.lastReconfigureNanos(), 0u);
    EXPECT_EQ(poly.currentConfig().cm.htmBudget, 16);
    poly.deregisterThread(token);
}

TEST(PolyTmTest, ReconfigureLatencyIsRecorded)
{
    PolyTm poly({tm::BackendKind::kTl2, 1, {}});
    auto token = poly.registerThread();
    poly.reconfigure({tm::BackendKind::kNorec, 1, {}});
    EXPECT_GT(poly.lastReconfigureNanos(), 0u);
    poly.deregisterThread(token);
}

TEST(PolyTmTest, HtmBudgetConsumedAcrossRetries)
{
    // With a tiny capacity, a big transaction must land in the
    // fallback path and still commit.
    tm::SimHtmConfig htm;
    htm.writeCapacityLines = 2;
    PolyTm poly({tm::BackendKind::kSimHtm, 1, {}}, htm);
    auto token = poly.registerThread();

    std::vector<TxField<int>> xs(64);
    poly.run(token, [&](Tx &tx) {
        for (auto &x : xs)
            tx.write(x, 7);
    });
    for (auto &x : xs)
        EXPECT_EQ(x.rawGet(), 7);

    const PolyStats stats = poly.snapshotStats();
    EXPECT_GT(stats.abortsByCause[static_cast<std::size_t>(
                  tm::AbortCause::kCapacity)],
              0u);
    poly.deregisterThread(token);
}

TEST(PolyTmTest, BankInvariantAcrossBackendsAndParallelism)
{
    PolyTm poly({tm::BackendKind::kSwissTm, 8, {}});
    constexpr int kThreads = 4;
    constexpr int kAccounts = 32;
    std::vector<TxField<std::uint64_t>> accounts(kAccounts);
    for (auto &a : accounts)
        a.rawSet(100);

    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            auto token = poly.registerThread();
            Rng rng(t + 1);
            while (!stop.load()) {
                const auto i = rng.nextBounded(kAccounts);
                const auto j = rng.nextBounded(kAccounts);
                if (i == j)
                    continue;
                poly.run(token, [&](Tx &tx) {
                    const auto a = tx.read(accounts[i]);
                    const auto b = tx.read(accounts[j]);
                    if (a == 0)
                        return;
                    tx.write(accounts[i], a - 1);
                    tx.write(accounts[j], b + 1);
                });
            }
            poly.deregisterThread(token);
        });
    }

    const tm::BackendKind kinds[] = {
        tm::BackendKind::kTl2, tm::BackendKind::kNorec,
        tm::BackendKind::kSimHtm, tm::BackendKind::kTinyStm};
    for (int round = 0; round < 8; ++round) {
        poly.reconfigure({kinds[round % 4], 1 + round % 4, {}});
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    stop.store(true);
    poly.resumeAllForShutdown();
    for (auto &w : workers)
        w.join();

    std::uint64_t total = 0;
    for (auto &a : accounts)
        total += a.rawGet();
    EXPECT_EQ(total, 100u * kAccounts);
}

/** Every backend at its default knobs, plus the emulated HTM with a
 *  zero retry budget: every attempt runs on its fallback lock. */
std::vector<TmConfig>
everyBackendAndHtmFallback()
{
    std::vector<TmConfig> configs;
    for (int k = 0; k < static_cast<int>(tm::BackendKind::kNumBackends);
         ++k)
        configs.push_back({static_cast<tm::BackendKind>(k), 1, {}});
    configs.push_back({tm::BackendKind::kSimHtm, 1,
                       {/*htmBudget=*/0, tm::CapacityPolicy::kDecrease}});
    return configs;
}

class PolyTmRollbackTest : public ::testing::TestWithParam<TmConfig>
{
};

TEST_P(PolyTmRollbackTest, ForeignExceptionRollsBackAndRethrows)
{
    PolyTm poly(GetParam());
    auto token = poly.registerThread();
    TxField<std::uint64_t> a(1);
    TxField<std::uint64_t> b(2);

    EXPECT_THROW(poly.run(token,
                          [&](Tx &tx) {
                              tx.write(a, std::uint64_t{11});
                              tx.write(b, std::uint64_t{20});
                              throw std::runtime_error("body failed");
                          }),
                 std::runtime_error);
    EXPECT_EQ(a.rawGet(), 1u) << "write survived the throw";
    EXPECT_EQ(b.rawGet(), 2u) << "write survived the throw";

    // Nothing leaked: the next run on the same token commits.
    poly.run(token, [&](Tx &tx) {
        tx.write(a, tx.read(a) + 10);
        tx.write(b, tx.read(b) + 10);
    });
    EXPECT_EQ(a.rawGet(), 11u);
    EXPECT_EQ(b.rawGet(), 12u);
    poly.deregisterThread(token);
}

INSTANTIATE_TEST_SUITE_P(
    EveryBackend, PolyTmRollbackTest,
    ::testing::ValuesIn(everyBackendAndHtmFallback()),
    [](const ::testing::TestParamInfo<TmConfig> &info) {
        std::string name = info.param.label();
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace proteus::polytm
