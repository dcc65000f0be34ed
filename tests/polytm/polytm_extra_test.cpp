/**
 * Additional PolyTM edge cases: typed fields over the full payload
 * spectrum, instance independence, registration churn, reconfigure
 * storms, abort accounting, and pins racing reconfigurations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "polytm/polytm.hpp"

namespace proteus::polytm {
namespace {

TEST(PolyTmExtraTest, TxFieldSupportsVariedPayloads)
{
    PolyTm poly;
    auto token = poly.registerThread();

    TxField<std::int8_t> tiny(-5);
    TxField<std::uint16_t> medium(65535);
    TxField<std::int64_t> negative(-123456789012345LL);
    TxField<float> fraction(0.25f);
    int sentinel = 42;
    TxField<int *> pointer(&sentinel);

    poly.run(token, [&](Tx &tx) {
        tx.write(tiny, static_cast<std::int8_t>(tx.read(tiny) - 1));
        tx.write(medium, static_cast<std::uint16_t>(
                             tx.read(medium) - 1));
        tx.write(negative, tx.read(negative) * 2);
        tx.write(fraction, tx.read(fraction) + 0.5f);
        *tx.read(pointer) += 1; // read the pointer transactionally
    });

    EXPECT_EQ(tiny.rawGet(), -6);
    EXPECT_EQ(medium.rawGet(), 65534);
    EXPECT_EQ(negative.rawGet(), -246913578024690LL);
    EXPECT_FLOAT_EQ(fraction.rawGet(), 0.75f);
    EXPECT_EQ(sentinel, 43);
    poly.deregisterThread(token);
}

TEST(PolyTmExtraTest, InstancesAreIndependent)
{
    PolyTm a({tm::BackendKind::kTl2, 2, {}});
    PolyTm b({tm::BackendKind::kNorec, 4, {}});
    auto ta = a.registerThread();
    auto tb = b.registerThread();

    TxField<int> x(0);
    a.run(ta, [&](Tx &tx) { tx.write(x, 1); });
    b.run(tb, [&](Tx &tx) { tx.write(x, tx.read(x) + 1); });
    EXPECT_EQ(x.rawGet(), 2);

    a.reconfigure({tm::BackendKind::kSwissTm, 1, {}});
    EXPECT_EQ(b.currentConfig().backend, tm::BackendKind::kNorec);
    EXPECT_EQ(a.snapshotStats().commits, 1u);
    EXPECT_EQ(b.snapshotStats().commits, 1u);

    a.deregisterThread(ta);
    b.deregisterThread(tb);
}

TEST(PolyTmExtraTest, RegistrationChurnReusesTids)
{
    PolyTm poly;
    for (int round = 0; round < 50; ++round) {
        auto token = poly.registerThread();
        EXPECT_EQ(token.tid, 0) << "lowest tid must be reused";
        TxField<int> x(round);
        poly.run(token, [&](Tx &tx) { tx.write(x, tx.read(x) + 1); });
        EXPECT_EQ(x.rawGet(), round + 1);
        poly.deregisterThread(token);
    }
    EXPECT_EQ(poly.registeredThreads(), 0);
    EXPECT_EQ(poly.snapshotStats().commits, 50u);
}

TEST(PolyTmExtraTest, ReconfigureStormWithIdleThreads)
{
    PolyTm poly({tm::BackendKind::kTl2, 8, {}});
    auto t0 = poly.registerThread();
    auto t1 = poly.registerThread();

    // Nobody is running transactions: the storm must not wedge the
    // gate state.
    const tm::BackendKind kinds[] = {
        tm::BackendKind::kNorec, tm::BackendKind::kTinyStm,
        tm::BackendKind::kSimHtm, tm::BackendKind::kTl2};
    for (int i = 0; i < 200; ++i)
        poly.reconfigure({kinds[i % 4], 1 + i % 8, {}});

    poly.reconfigure({tm::BackendKind::kTl2, 8, {}});
    TxField<int> x(0);
    poly.run(t0, [&](Tx &tx) { tx.write(x, 1); });
    poly.run(t1, [&](Tx &tx) { tx.write(x, tx.read(x) + 1); });
    EXPECT_EQ(x.rawGet(), 2);

    poly.deregisterThread(t0);
    poly.deregisterThread(t1);
}

TEST(PolyTmExtraTest, AbortsAttributedToCauses)
{
    tm::SimHtmConfig htm;
    htm.writeCapacityLines = 2;
    PolyTm poly({tm::BackendKind::kSimHtm, 1, {}}, htm);
    auto token = poly.registerThread();

    std::vector<TxField<int>> xs(32);
    poly.run(token, [&](Tx &tx) {
        for (auto &x : xs)
            tx.write(x, 1);
    });
    bool once = false;
    poly.run(token, [&](Tx &tx) {
        tx.write(xs[0], 2);
        if (!once) {
            once = true;
            tx.retry();
        }
    });

    const PolyStats stats = poly.snapshotStats();
    std::uint64_t by_cause = 0;
    for (const auto n : stats.abortsByCause)
        by_cause += n;
    EXPECT_EQ(by_cause, stats.aborts)
        << "every abort must carry exactly one cause";
    EXPECT_GT(stats.abortsByCause[static_cast<std::size_t>(
                  tm::AbortCause::kCapacity)],
              0u);
    EXPECT_EQ(stats.abortsByCause[static_cast<std::size_t>(
                  tm::AbortCause::kExplicit)],
              1u);
    poly.deregisterThread(token);
}

TEST(PolyTmExtraTest, RunResetsConsecutiveAbortsBetweenTransactions)
{
    PolyTm poly;
    auto token = poly.registerThread();
    TxField<int> x(0);
    // A transaction that aborts twice then commits.
    int tries = 0;
    poly.run(token, [&](Tx &tx) {
        tx.write(x, 1);
        if (++tries < 3)
            tx.retry();
    });
    EXPECT_EQ(token.desc->consecutiveAborts, 0u)
        << "commit must clear the backoff state";
    poly.deregisterThread(token);
}

TEST(PolyTmExtraTest, ThreadsBeyondMaxRejected)
{
    PolyTm poly;
    std::vector<ThreadToken> tokens;
    for (int i = 0; i < tm::kMaxThreads; ++i)
        tokens.push_back(poly.registerThread());
    EXPECT_THROW((void)poly.registerThread(), std::runtime_error);
    for (auto &t : tokens)
        poly.deregisterThread(t);
}

TEST(PolyTmExtraTest, UnpinReblocksAThreadOnlyItsPinAdmitted)
{
    // Degree 1: tid 1 is disabled. A pin admits it; the unpin must put
    // it back behind the gate (a transient pin, as KvStore::multiOp
    // takes, may not defeat the configured degree permanently), so its
    // next run() parks until a reconfigure raises the degree.
    PolyTm poly(TmConfig{tm::BackendKind::kTl2, 1, {}});
    auto token0 = poly.registerThread();
    auto token1 = poly.registerThread();
    TxField<int> field(0);
    auto bump = [&](Tx &tx) { tx.write(field, tx.read(field) + 1); };

    poly.setPinned(token1.tid, true);
    poly.run(token1, bump);
    EXPECT_EQ(field.rawGet(), 1) << "the pin admits tid 1 at P=1";
    poly.setPinned(token1.tid, false);

    std::atomic<bool> committed{false};
    std::thread worker([&] {
        poly.run(token1, bump);
        committed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(committed.load())
        << "unpin must put the thread back behind the gate";
    EXPECT_EQ(field.rawGet(), 1);

    // Raising the degree admits it again.
    poly.reconfigure({tm::BackendKind::kTl2, 2, {}});
    for (int i = 0; i < 1000 && !committed.load(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(committed.load()) << "P=2 must admit tid 1";
    poly.resumeAllForShutdown(); // never leave the worker parked
    worker.join();
    EXPECT_EQ(field.rawGet(), 2);

    poly.deregisterThread(token0);
    poly.deregisterThread(token1);
}

TEST(PolyTmExtraTest, PinRacesReconfigure)
{
    // tid 1 loops pin -> run -> unpin while this thread moves the
    // degree 1 <-> 2 and the backend TL2 <-> NOrec. A pinned run may
    // pause for a switch but never parks behind the degree. Each phase
    // ends with a shrink to degree 1 racing the loop's last unpin, and
    // either order must leave tid 1 blocked: the unpin sees the new
    // degree, or the reconfigure sees the pin gone (setPinned).
    using Clock = std::chrono::steady_clock;
    constexpr int kPhases = 200;
    constexpr int kRoundsPerPhase = 4;
    constexpr std::int64_t kRunLimitNs = 1'000'000'000;
    const tm::BackendKind kinds[] = {tm::BackendKind::kTl2,
                                     tm::BackendKind::kNorec};
    // Small orec tables keep each switch's reset short.
    PolyTm poly(TmConfig{tm::BackendKind::kTl2, 2, {}}, {}, 8);
    auto token0 = poly.registerThread();
    auto token1 = poly.registerThread();
    TxField<int> field(0);

    const auto nowNs = [] {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    };
    std::atomic<int> released{0}; // phases the pinner may run
    std::atomic<int> finished{0};  // phases the pinner has run
    std::atomic<std::int64_t> runSince{0}; // 0 = not inside run()
    std::int64_t slowest_ns = 0; // read after the join
    std::atomic<bool> abandon{false};
    std::thread pinner([&] {
        for (int phase = 0; phase < kPhases; ++phase) {
            while (released.load() <= phase) {
                if (abandon.load())
                    return;
                std::this_thread::yield();
            }
            for (int round = 0; round < kRoundsPerPhase; ++round) {
                poly.setPinned(token1.tid, true);
                const std::int64_t start = nowNs();
                runSince.store(start);
                poly.run(token1, [&](Tx &tx) {
                    tx.write(field, tx.read(field) + 1);
                });
                runSince.store(0);
                slowest_ns = std::max(slowest_ns, nowNs() - start);
                poly.setPinned(token1.tid, false);
            }
            finished.store(phase + 1);
        }
    });

    bool stuck = false;
    bool wrong = false;
    for (int phase = 0; phase < kPhases && !stuck && !wrong; ++phase) {
        poly.reconfigure({kinds[phase % 2], 2, {}});
        released.store(phase + 1);
        poly.reconfigure({kinds[(phase + 1) % 2], 1, {}});
        while (finished.load() <= phase && !stuck) {
            const std::int64_t since = runSince.load();
            stuck = since != 0 && nowNs() - since > kRunLimitNs;
            std::this_thread::yield();
        }
        if (stuck)
            break;
        const bool pinner_blocked = poly.blocked(token1.tid);
        const bool other_blocked = poly.blocked(token0.tid);
        EXPECT_TRUE(pinner_blocked)
            << "phase " << phase << ": an unpin raced the shrink and "
            << "left tid 1 admitted at degree 1";
        EXPECT_FALSE(other_blocked) << "phase " << phase;
        wrong = !pinner_blocked || other_blocked;
    }
    // A parked run (or an early stop) is freed so the test can end.
    abandon.store(true);
    poly.resumeAllForShutdown();
    pinner.join();
    EXPECT_FALSE(stuck) << "a pinned run did not return within 1 s";
    EXPECT_LT(slowest_ns, kRunLimitNs);
    if (!stuck && !wrong)
        EXPECT_EQ(field.rawGet(), kPhases * kRoundsPerPhase);

    poly.deregisterThread(token0);
    poly.deregisterThread(token1);
}

} // namespace
} // namespace proteus::polytm
